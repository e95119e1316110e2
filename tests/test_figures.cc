/**
 * @file
 * Tests of the figure table (sim/figures.hh): the default expansion is
 * the 308-run paper grid in report order, with each figure's variants,
 * workloads and config edits, and the renderer prints speedup and
 * coverage tables from results without deriving a number from a
 * failed run. Keyed by config (sim/journal.hh), the grid's repeated
 * runs fold and no two configs that differ do.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <sstream>

#include "config_error.hh"
#include "sim/figures.hh"
#include "sim/journal.hh"
#include "workloads/workloads.hh"

namespace rvp
{
namespace
{

std::vector<std::string>
allWorkloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : allWorkloads())
        names.push_back(spec.name);
    return names;
}

ExperimentConfig
budgets()
{
    ExperimentConfig base;
    base.core.maxInsts = 400'000;
    base.profileInsts = 300'000;
    return base;
}

TEST(FigureTable, DefaultExpansionIsThePaperGrid)
{
    const std::vector<std::string> workloads = allWorkloadNames();
    std::vector<FigureRun> runs = expandFigures({}, workloads, budgets());
    ASSERT_EQ(runs.size(), 308u);

    const std::vector<std::pair<std::string, std::vector<std::string>>>
        expected = {
            {"fig03",
             {"no_predict", "lvp", "srvp_same", "srvp_dead", "srvp_live",
              "srvp_live_lv"}},
            {"fig04",
             {"no_predict", "srvp_refetch", "srvp_reissue",
              "srvp_selective"}},
            {"fig05",
             {"no_predict", "lvp", "drvp", "drvp_dead", "drvp_dead_lv"}},
            {"fig06",
             {"no_predict", "lvp_all", "grp_all", "drvp_all",
              "drvp_all_dead", "drvp_all_dead_lv"}},
            {"table2", {"drvp_dead", "drvp_dead_lv", "lvp", "grp"}},
            {"fig07",
             {"no_predict", "lvp", "drvp_all_noreallocate",
              "drvp_all_dead_lv_realloc", "drvp_all_dead_lv_ideal"}},
            {"fig08",
             {"no_predict", "lvp_all", "drvp_all", "drvp_all_dead_lv"}},
            {"stride",
             {"no_predict", "drvp_dead_lv", "drvp_dead_lv_stride"}},
        };
    const std::vector<std::string> realloc_workloads{"hydro2d", "li",
                                                   "mgrid", "su2cor"};

    // Report order: figure by figure, then workload, then variant.
    std::size_t i = 0;
    for (const auto &[figure, variants] : expected) {
        const std::vector<std::string> &figure_workloads =
            figure == "fig07" ? realloc_workloads : workloads;
        for (const std::string &workload : figure_workloads) {
            for (const std::string &variant : variants) {
                ASSERT_LT(i, runs.size());
                EXPECT_EQ(runs[i].figure, figure) << i;
                EXPECT_EQ(runs[i].variant, variant) << i;
                EXPECT_EQ(runs[i].config.workload, workload) << i;
                EXPECT_EQ(runs[i].config.core.maxInsts, 400'000u) << i;
                EXPECT_EQ(runs[i].config.profileInsts, 300'000u) << i;
                ++i;
            }
        }
    }
    EXPECT_EQ(i, runs.size());

    CoreParams wide = CoreParams::aggressive16();
    for (const FigureRun &run : runs) {
        if (run.figure == "fig04")
            EXPECT_EQ(run.config.profileThreshold, 0.9) << run.variant;
        else
            EXPECT_EQ(run.config.profileThreshold, 0.8) << run.figure;
        if (run.figure == "fig08") {
            EXPECT_EQ(run.config.core.fetchWidth, wide.fetchWidth);
            EXPECT_EQ(run.config.core.robEntries, wide.robEntries);
            EXPECT_EQ(run.config.core.physIntRegs, wide.physIntRegs);
            EXPECT_FALSE(run.config.loadsOnly);
        } else {
            EXPECT_EQ(run.config.core.fetchWidth,
                      CoreParams{}.fetchWidth);
        }
        EXPECT_EQ(run.config.realisticRealloc,
                  run.variant == "drvp_all_dead_lv_realloc");
    }
}

TEST(FigureTable, OptInFiguresRunOnlyWhenNamed)
{
    const std::vector<std::string> workloads = allWorkloadNames();
    std::map<std::string, bool> opt_in;
    for (const Figure &figure : paperFigures())
        opt_in[figure.id] = figure.optIn;
    EXPECT_TRUE(opt_in.at("headtohead"));
    EXPECT_TRUE(opt_in.at("counters"));
    for (const FigureRun &run : expandFigures({}, workloads, budgets())) {
        EXPECT_NE(run.figure, "headtohead");
        EXPECT_NE(run.figure, "counters");
    }

    std::vector<FigureRun> counters =
        expandFigures({"counters"}, {"go"}, budgets());
    ASSERT_EQ(counters.size(), 7u);
    // The baseline is the default config, untouched; the six cells are
    // dynamic RVP over all instructions with the counter design varied.
    EXPECT_EQ(counters[0].variant, "no_predict");
    EXPECT_EQ(counters[0].config.scheme, VpScheme::None);
    EXPECT_TRUE(counters[0].config.loadsOnly);
    const std::vector<std::tuple<std::string, bool, unsigned, unsigned>>
        cells = {{"untag-1K-t7", false, 1024, 7},
                 {"tag-1K-t7", true, 1024, 7},
                 {"untag-256-t7", false, 256, 7},
                 {"untag-4K-t7", false, 4096, 7},
                 {"untag-1K-t3", false, 1024, 3},
                 {"untag-1K-t5", false, 1024, 5}};
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const auto &[name, tagged, entries, threshold] = cells[c];
        const ExperimentConfig &config = counters[c + 1].config;
        EXPECT_EQ(counters[c + 1].variant, name);
        EXPECT_EQ(config.scheme, VpScheme::DynamicRvp);
        EXPECT_FALSE(config.loadsOnly);
        EXPECT_EQ(config.taggedRvp, tagged);
        EXPECT_EQ(config.tableEntries, entries);
        EXPECT_EQ(config.counterThreshold, threshold);
        EXPECT_EQ(config.core.recovery, RecoveryPolicy::Selective);
    }

    EXPECT_EQ(expandFigures({"headtohead"}, workloads, budgets()).size(),
              8u * workloads.size());
    // A figure with its own workload list runs only where it overlaps.
    EXPECT_TRUE(expandFigures({"fig07"}, {"go"}, budgets()).empty());
    EXPECT_CONFIG_ERROR(expandFigures({"fig05", "fig99"}, workloads,
                                      budgets()),
                        "unknown figure 'fig99'");
}

ExperimentResult
ran(double ipc, double predicted = 0.0, double accuracy = 0.0)
{
    ExperimentResult r;
    r.ipc = ipc;
    r.predictedFrac = predicted;
    r.accuracy = accuracy;
    return r;
}

ExperimentResult
failedRun()
{
    ExperimentResult r;
    r.failed = true;
    r.error = "boom";
    return r;
}

/** Config key of every run, by "figure/variant/workload". */
std::map<std::string, std::string>
keysByLabel(const std::vector<FigureRun> &runs)
{
    std::map<std::string, std::string> keys;
    for (const FigureRun &run : runs)
        keys[run.figure + "/" + run.variant + "/" + run.config.workload] =
            configKey(run.config);
    return keys;
}

std::size_t
distinctKeys(const std::map<std::string, std::string> &keys)
{
    std::set<std::string> distinct;
    for (const auto &[label, key] : keys)
        distinct.insert(key);
    return distinct.size();
}

TEST(FigureTable, RepeatedConfigsShareAKeyAndNoOthersDo)
{
    const std::vector<std::string> workloads = allWorkloadNames();
    std::map<std::string, std::string> keys =
        keysByLabel(expandFigures({}, workloads, budgets()));
    ASSERT_EQ(keys.size(), 308u);
    EXPECT_EQ(distinctKeys(keys), 220u);
    EXPECT_EQ(keys.at("fig03/lvp/go"), keys.at("fig05/lvp/go"));
    EXPECT_EQ(keys.at("fig03/no_predict/go"),
              keys.at("fig05/no_predict/go"));
    EXPECT_EQ(keys.at("table2/lvp/go"), keys.at("fig06/lvp_all/go"));
    // Fields a RunSpec cannot express still separate runs: core
    // geometry (fig08 is 16-wide) and the Section-7.3 re-allocation.
    EXPECT_NE(keys.at("fig08/lvp_all/go"), keys.at("table2/lvp/go"));
    EXPECT_NE(keys.at("fig07/drvp_all_dead_lv_realloc/li"),
              keys.at("fig08/drvp_all/li"));
    EXPECT_NE(keys.at("fig07/drvp_all_dead_lv_realloc/li"),
              keys.at("fig06/drvp_all/li"));

    // With the opt-in figures: tagged counters are not untagged ones.
    std::vector<std::string> all;
    for (const Figure &figure : paperFigures())
        all.push_back(figure.id);
    keys = keysByLabel(expandFigures(all, workloads, budgets()));
    ASSERT_EQ(keys.size(), 443u);
    EXPECT_EQ(distinctKeys(keys), 301u);
    EXPECT_NE(keys.at("counters/tag-1K-t7/go"),
              keys.at("counters/untag-1K-t7/go"));
}

TEST(FigureTable, RendererPrintsSpeedupAndCoverageAndMarksFailures)
{
    Figure figure;
    figure.id = "demo";
    figure.title = "Demo: two predictors";
    figure.variants = {{"no_predict", {}}, {"lvp", {}}, {"drvp", {}}};
    figure.metrics = {FigureMetric::Speedup, FigureMetric::Coverage};
    figure.shape = "paper shape: demo.";

    std::vector<FigureRun> runs;
    std::vector<ExperimentResult> results;
    auto add = [&](const std::string &workload, const std::string &variant,
                   ExperimentResult result) {
        FigureRun run{"demo", variant, {}};
        run.config.workload = workload;
        runs.push_back(run);
        results.push_back(result);
    };
    // A run of another figure is not this figure's.
    add("go", "no_predict", ran(9.0));
    runs.back().figure = "other";
    add("go", "no_predict", ran(2.0));
    add("go", "lvp", ran(2.2, 0.123, 0.9876));
    add("go", "drvp", ran(2.4, 0.05, 0.5));
    add("li", "no_predict", ran(1.0));
    add("li", "lvp", failedRun());   // its zero IPC is no speedup
    add("li", "drvp", ran(1.7, 0.25, 0.75));

    std::ostringstream os;
    printFigure(os, figure, runs, results);
    EXPECT_EQ(os.str(),
              "Demo: two predictors\n"
              "\n"
              "speedup over no_predict\n"
              "program  lvp     drvp   \n"
              "------------------------\n"
              "go       1.100   1.200  \n"
              "li       failed  1.700  \n"
              "average  failed  1.450  \n"
              "\n"
              "% of committed instructions predicted / accuracy %\n"
              "program  lvp        drvp       \n"
              "-------------------------------\n"
              "go       12.3/98.8  5.0/50.0   \n"
              "li       failed     25.0/75.0  \n"
              "\n"
              "paper shape: demo.\n"
              "\n");

    // A failed baseline leaves its whole row without a speedup.
    results[1] = failedRun();
    std::ostringstream no_base;
    printFigure(no_base, figure, runs, results);
    EXPECT_NE(no_base.str().find("go       failed  failed"),
              std::string::npos)
        << no_base.str();
    EXPECT_NE(no_base.str().find("average  failed  failed"),
              std::string::npos)
        << no_base.str();

    // A figure with no runs prints nothing.
    std::ostringstream none;
    printFigure(none, figure, {}, {});
    EXPECT_EQ(none.str(), "");
}

TEST(FigureTable, EveryFigureRendersItsTablesAndPaperText)
{
    // Every figure prints its title, its paper text, and no failed
    // cell when every run succeeded (a speedup figure without a
    // no_predict baseline would abort in printFigure).
    for (const Figure &figure : paperFigures()) {
        std::vector<FigureRun> runs =
            expandFigures({figure.id}, {"hydro2d"}, budgets());
        std::vector<ExperimentResult> results(runs.size(), ran(1.0));
        std::ostringstream os;
        printFigure(os, figure, runs, results);
        EXPECT_EQ(os.str().rfind(figure.title, 0), 0u) << figure.id;
        EXPECT_NE(os.str().find(figure.shape), std::string::npos)
            << figure.id;
        EXPECT_EQ(os.str().find("failed"), std::string::npos)
            << figure.id << "\n"
            << os.str();
    }
}

} // namespace
} // namespace rvp
