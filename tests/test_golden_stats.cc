/**
 * @file
 * Golden end-to-end stat snapshot: one workload run through
 * {baseline, static RVP, dynamic RVP} x {refetch, selective, reissue}
 * x {Table-1 core, wide core}, plus a rename-tag churn config, with
 * the *entire* stat map pinned against a committed golden file,
 * full double precision. IPC-identity is far too weak a check for
 * timing-model refactors — two different cores can agree on IPC while
 * disagreeing on every occupancy and stall counter — so this test is
 * the bit-identity oracle for the event-driven core hot path (and for
 * any future core rework).
 *
 * Regenerate after an *intentional* stat change with:
 *
 *   RVP_UPDATE_GOLDEN=1 ./test_golden_stats
 *
 * and review the golden diff like code.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "uarch/core.hh"

namespace rvp
{
namespace
{

/**
 * A config whose rename-tag churn outruns the core's initial tag ring
 * (see Core::tagRingSlots): refetch recovery keeps squashing and
 * re-renaming the window behind an uncommitted head, so the tags of
 * squashed producers, whose seqs have not committed yet, pile up past
 * robEntries (the ring grows from 128 to 1024 slots).
 */
ExperimentConfig
tagChurnConfig()
{
    ExperimentConfig config;
    config.workload = "mgrid";
    config.core.maxInsts = 15'000;
    config.profileInsts = 15'000;
    config.core.recovery = RecoveryPolicy::Refetch;
    config.scheme = VpScheme::DynamicRvp;
    config.assist = AssistLevel::DeadLv;
    config.loadsOnly = false;
    return config;
}

/**
 * The pinned grid: every recovery policy against every scheme kind,
 * on the Table-1 core and on the Section-7.4 wide core (ROB 256) that
 * fig08 runs, plus the tag-churn config.
 */
std::vector<std::pair<std::string, ExperimentConfig>>
goldenGrid()
{
    std::vector<std::pair<std::string, ExperimentConfig>> grid;
    for (auto [suffix, core] :
         {std::pair{"", CoreParams::table1()},
          std::pair{"-wide", CoreParams::aggressive16()}}) {
        for (auto [rname, policy] :
             {std::pair{"refetch", RecoveryPolicy::Refetch},
              std::pair{"selective", RecoveryPolicy::Selective},
              std::pair{"reissue", RecoveryPolicy::Reissue}}) {
            ExperimentConfig base;
            base.workload = "go";
            base.core = core;
            base.core.maxInsts = 15'000;
            base.profileInsts = 15'000;
            base.core.recovery = policy;
            std::string tail = std::string(rname) + suffix;

            ExperimentConfig none = base;
            grid.emplace_back("baseline-" + tail, none);

            ExperimentConfig srvp = base;
            srvp.scheme = VpScheme::StaticRvp;
            srvp.assist = AssistLevel::Dead;
            grid.emplace_back("srvp-" + tail, srvp);

            ExperimentConfig drvp = base;
            drvp.scheme = VpScheme::DynamicRvp;
            drvp.assist = AssistLevel::DeadLv;
            drvp.loadsOnly = false;
            grid.emplace_back("drvp-" + tail, drvp);
        }
    }
    grid.emplace_back("tag-churn", tagChurnConfig());
    return grid;
}

std::string
goldenPath()
{
    // The test binary runs from an arbitrary build directory; the
    // golden file is addressed relative to this source file.
    std::string src = __FILE__;
    return src.substr(0, src.rfind('/')) + "/golden/core_stats.txt";
}

std::string
formatValue(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** label -> (stat name -> formatted value), exactly as serialized. */
using Snapshot = std::map<std::string, std::map<std::string, std::string>>;

Snapshot
runGrid()
{
    Snapshot snap;
    for (const auto &[label, config] : goldenGrid()) {
        ExperimentResult r = runExperiment(config);
        std::map<std::string, std::string> &stats = snap[label];
        for (const auto &[name, value] : r.stats.values())
            stats[name] = formatValue(value);
    }
    return snap;
}

void
writeGolden(const Snapshot &snap, const std::string &path)
{
    std::ofstream os(path);
    ASSERT_TRUE(os) << "cannot write " << path;
    os << "# Full stat maps for the golden core grid; regenerate with\n"
          "# RVP_UPDATE_GOLDEN=1 ./test_golden_stats (review the diff).\n";
    for (const auto &[label, stats] : snap)
        for (const auto &[name, value] : stats)
            os << label << " " << name << " " << value << "\n";
}

Snapshot
readGolden(const std::string &path)
{
    Snapshot snap;
    std::ifstream is(path);
    EXPECT_TRUE(is) << "missing golden file " << path
                    << " (generate with RVP_UPDATE_GOLDEN=1)";
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string label, name, value;
        EXPECT_TRUE(static_cast<bool>(ls >> label >> name >> value))
            << line;
        snap[label][name] = value;
    }
    return snap;
}

TEST(GoldenStats, FullStatMapsMatchTheCommittedSnapshot)
{
    Snapshot actual = runGrid();
    if (std::getenv("RVP_UPDATE_GOLDEN")) {
        writeGolden(actual, goldenPath());
        GTEST_SKIP() << "golden file regenerated: " << goldenPath();
    }
    Snapshot golden = readGolden(goldenPath());
    ASSERT_EQ(golden.size(), actual.size());
    for (const auto &[label, stats] : golden) {
        auto it = actual.find(label);
        ASSERT_NE(it, actual.end()) << label;
        // Key sets must match exactly: a stat appearing or vanishing
        // is as much a regression as a changed value.
        EXPECT_EQ(stats.size(), it->second.size()) << label;
        for (const auto &[name, value] : stats) {
            auto sit = it->second.find(name);
            ASSERT_NE(sit, it->second.end()) << label << ": " << name;
            EXPECT_EQ(value, sit->second) << label << ": " << name;
        }
        for (const auto &[name, value] : it->second)
            EXPECT_TRUE(stats.count(name))
                << label << ": unexpected new stat " << name;
    }
}

TEST(GoldenStats, BatchedSweepMatchesTheSoloRunnerOnTheGoldenGrid)
{
    // The batched-replay scheduler against the same oracle: every
    // stat of every golden-grid run must match the standalone runner
    // bit-for-bit, and the grid (many schemes per binary) must have
    // actually been batched.
    std::vector<std::pair<std::string, ExperimentConfig>> grid =
        goldenGrid();
    std::vector<ExperimentConfig> configs;
    for (const auto &[label, config] : grid)
        configs.push_back(config);
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    SweepReport report;
    std::vector<ExperimentResult> results =
        runSweep(configs, opts, &report);
    EXPECT_GT(report.batchedRuns, 0u);

    ASSERT_EQ(results.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        ASSERT_FALSE(results[i].failed)
            << grid[i].first << ": " << results[i].error;
        ExperimentResult solo = runExperiment(configs[i]);
        ASSERT_EQ(results[i].stats.values().size(),
                  solo.stats.values().size())
            << grid[i].first;
        for (const auto &[name, value] : solo.stats.values())
            EXPECT_EQ(formatValue(results[i].stats.get(name)),
                      formatValue(value))
                << grid[i].first << ": " << name;
    }
}

TEST(GoldenStats, TagChurnConfigGrowsTheTagRing)
{
    // The tag-churn golden row covers the ring's growth path only if
    // the ring really grew: run the config through a Core built here,
    // read its ring size, and check this very run against the row.
    ExperimentConfig config = tagChurnConfig();
    PreparedRun prep = prepareExperiment(config, RunContext{});
    Core core(config.core, prep.timedProgram(), *prep.predictor);
    std::size_t initial = core.tagRingSlots();
    EXPECT_GE(initial, config.core.robEntries);
    ExperimentResult result = finishExperiment(prep, core.run(), 0.0);
    EXPECT_GT(core.tagRingSlots(), initial);

    std::map<std::string, std::string> golden =
        readGolden(goldenPath())["tag-churn"];
    ASSERT_EQ(golden.size(), result.stats.values().size());
    for (const auto &[name, value] : golden)
        EXPECT_EQ(value, formatValue(result.stats.get(name))) << name;
}

} // namespace
} // namespace rvp
