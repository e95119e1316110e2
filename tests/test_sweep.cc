/**
 * @file
 * Tests of the parallel sweep scheduler (sim/sweep.hh): parallel runs
 * must be bit-identical to serial ones, results must come back in
 * input order, the compile/profile memo cache must actually hit, the
 * up-front configuration validation must fail fast on contradictions,
 * and the committed-path prediction accounting must keep coverage a
 * real fraction (predictions never exceed committed instructions).
 * Also the run identity (sim/journal.hh): every field of its table
 * changes a run's key.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "config_error.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "uarch/core.hh"
#include "vp/oracle.hh"

namespace rvp
{
namespace
{

ExperimentConfig
smallConfig(const std::string &workload)
{
    ExperimentConfig config;
    config.workload = workload;
    config.core.maxInsts = 15'000;
    config.profileInsts = 15'000;
    return config;
}

/**
 * A small grid that exercises every code path the scheduler treats
 * differently: no prediction, LVP, static RVP (binary rewrite),
 * dynamic RVP with profile assists, and the Figure-7 re-allocation.
 */
std::vector<ExperimentConfig>
mixedGrid()
{
    std::vector<ExperimentConfig> configs;
    for (const char *workload : {"go", "mgrid"}) {
        ExperimentConfig base = smallConfig(workload);
        configs.push_back(base);

        ExperimentConfig lvp = base;
        lvp.scheme = VpScheme::Lvp;
        configs.push_back(lvp);

        ExperimentConfig srvp = base;
        srvp.scheme = VpScheme::StaticRvp;
        srvp.assist = AssistLevel::Dead;
        configs.push_back(srvp);

        ExperimentConfig drvp = base;
        drvp.scheme = VpScheme::DynamicRvp;
        drvp.assist = AssistLevel::DeadLv;
        drvp.loadsOnly = false;
        configs.push_back(drvp);

        ExperimentConfig realloc_cfg = base;
        realloc_cfg.scheme = VpScheme::DynamicRvp;
        realloc_cfg.realisticRealloc = true;
        realloc_cfg.loadsOnly = false;
        configs.push_back(realloc_cfg);
    }
    return configs;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b,
                const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.committed, b.committed) << label;
    EXPECT_EQ(a.reallocFailed, b.reallocFailed) << label;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << label;
    EXPECT_DOUBLE_EQ(a.predictedFrac, b.predictedFrac) << label;
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy) << label;
    // Every stat, bit for bit — not just the headline numbers.
    EXPECT_EQ(a.stats.values().size(), b.stats.values().size()) << label;
    for (const auto &[name, value] : a.stats.values())
        EXPECT_DOUBLE_EQ(value, b.stats.get(name)) << label << ": " << name;
}

TEST(Sweep, ParallelIsBitIdenticalToSerial)
{
    std::vector<ExperimentConfig> configs = mixedGrid();
    SweepOptions serial;
    serial.jobs = 1;
    serial.progress = false;
    SweepOptions parallel_opts;
    parallel_opts.jobs = 8;
    parallel_opts.progress = false;
    std::vector<ExperimentResult> a = runSweep(configs, serial);
    std::vector<ExperimentResult> b = runSweep(configs, parallel_opts);
    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        expectIdentical(a[i], b[i], describeConfig(configs[i]));
}

TEST(Sweep, ChunkedBatchGroupsStayBitIdentical)
{
    // Chunking a batch group (maxBatchGroupRuns bounds group size so
    // the biggest groups cannot serialize a parallel sweep's tail)
    // must not perturb a single result bit: each chunk replays the
    // same committed stream from the same cache.
    std::vector<ExperimentConfig> configs = mixedGrid();
    SweepOptions plain;
    plain.jobs = 1;
    plain.progress = false;
    plain.maxBatchGroupRuns = 0;   // whole groups
    SweepOptions chunked = plain;
    // mixedGrid's Base-binary group has 3 members per workload
    // (Base/Lvp/DynamicRvp share one committed stream), so a cap of 2
    // forces a mid-group split.
    chunked.maxBatchGroupRuns = 2;
    std::vector<ExperimentResult> a = runSweep(configs, plain);
    std::vector<ExperimentResult> b = runSweep(configs, chunked);
    ASSERT_EQ(a.size(), configs.size());
    ASSERT_EQ(b.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        expectIdentical(a[i], b[i], describeConfig(configs[i]));
}

TEST(Sweep, MaxBatchGroupZeroKeepsWholeGroup)
{
    // maxBatchGroupRuns = 0 disables chunking entirely — the batch
    // counters must match a cap no group reaches — while a cap of 1
    // degenerates every group to a group of one (batching needs >= 2).
    std::vector<ExperimentConfig> configs = mixedGrid();
    SweepOptions whole;
    whole.jobs = 1;
    whole.progress = false;
    whole.maxBatchGroupRuns = 0;
    SweepReport whole_report;
    runSweep(configs, whole, &whole_report);
    EXPECT_GT(whole_report.batchGroups, 0u);

    SweepOptions huge = whole;
    huge.maxBatchGroupRuns = 100'000;
    SweepReport huge_report;
    runSweep(configs, huge, &huge_report);
    EXPECT_EQ(whole_report.batchGroups, huge_report.batchGroups);
    EXPECT_EQ(whole_report.batchedRuns, huge_report.batchedRuns);

    SweepOptions singles = whole;
    singles.maxBatchGroupRuns = 1;
    SweepReport singles_report;
    runSweep(configs, singles, &singles_report);
    EXPECT_EQ(singles_report.batchGroups, 0u);
    EXPECT_EQ(singles_report.batchedRuns, 0u);
}

// ---------------------------------------------------------------------
// Partition: the batch groups runSweep hands its jobs (streamKeyGroups)
// ---------------------------------------------------------------------

using Groups = std::vector<std::vector<std::size_t>>;

TEST(Partition, GroupsByStreamKeyAndCoversPendingExactly)
{
    // Per workload, no prediction, LVP and dynamic RVP replay the one
    // Base-binary stream; static RVP and the re-allocated binary each
    // commit a stream of their own. Groups follow first appearance and
    // hold every index once.
    EXPECT_EQ(streamKeyGroups(mixedGrid(), 0),
              (Groups{{0, 1, 3}, {2}, {4}, {5, 6, 8}, {7}, {9}}));
    EXPECT_TRUE(streamKeyGroups({}, 0).empty());
}

TEST(Partition, ChunksOversizedGroupsWithoutMixingKeys)
{
    std::vector<ExperimentConfig> grid(5, smallConfig("go"));
    grid.push_back(smallConfig("mgrid"));
    // go: {0,1} {2,3} {4}; mgrid: {5}. Chunks keep input order.
    EXPECT_EQ(streamKeyGroups(grid, 2), (Groups{{0, 1}, {2, 3}, {4}, {5}}));
    // A cap no group reaches is the same as no cap.
    EXPECT_EQ(streamKeyGroups(grid, 100), (Groups{{0, 1, 2, 3, 4}, {5}}));
    EXPECT_EQ(streamKeyGroups(grid, 0), streamKeyGroups(grid, 100));
}

TEST(Partition, RespectsPendingSubset)
{
    // A resumed sweep hands runSweep only its pending runs. Of the grid
    // go, mgrid, go, mgrid, go with runs 0 and 3 journaled, runs 1, 2
    // and 4 are pending: groups follow the pending order (mgrid first
    // now) and index the pending list, not the grid.
    std::vector<ExperimentConfig> pending{
        smallConfig("mgrid"), smallConfig("go"), smallConfig("go")};
    EXPECT_EQ(streamKeyGroups(pending, 0), (Groups{{0}, {1, 2}}));
}

TEST(Sweep, CachedRunsMatchTheUncachedRunner)
{
    std::vector<ExperimentConfig> configs = mixedGrid();
    SweepOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    std::vector<ExperimentResult> swept = runSweep(configs, opts);
    ASSERT_EQ(swept.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        ExperimentResult direct = runExperiment(configs[i]);
        expectIdentical(swept[i], direct, describeConfig(configs[i]));
    }
}

TEST(Sweep, ResultsComeBackInInputOrder)
{
    // Distinct commit budgets mark each config; spacing exceeds any
    // over-commit within the final cycle, so the budgets round-trip.
    std::vector<ExperimentConfig> configs;
    for (int i = 0; i < 6; ++i) {
        ExperimentConfig config = smallConfig(i % 2 ? "go" : "mgrid");
        config.core.maxInsts = 10'000 + 1'000u * static_cast<unsigned>(i);
        configs.push_back(config);
    }
    SweepOptions opts;
    opts.jobs = 8;
    opts.progress = false;
    std::vector<ExperimentResult> results = runSweep(configs, opts);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_GE(results[i].committed, configs[i].core.maxInsts);
        EXPECT_LT(results[i].committed, configs[i].core.maxInsts + 1'000u);
    }
}

TEST(Sweep, CompileAndProfileAreMemoized)
{
    // Four dynamic-RVP runs of one workload: the train and ref binaries
    // compile once each, the profile runs once, everything else hits.
    std::vector<ExperimentConfig> configs;
    for (unsigned threshold : {4u, 5u, 6u, 7u}) {
        ExperimentConfig config = smallConfig("go");
        config.scheme = VpScheme::DynamicRvp;
        config.assist = AssistLevel::Dead;
        config.counterThreshold = threshold;
        configs.push_back(config);
    }
    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    SweepReport report;
    runSweep(configs, opts, &report);
    EXPECT_EQ(report.cache.compileMisses, 2u);   // train + ref
    EXPECT_EQ(report.cache.profileMisses, 1u);
    EXPECT_GT(report.cache.compileHits, 0u);
    EXPECT_EQ(report.cache.profileHits, 3u);
    EXPECT_EQ(report.jobs, 2u);
    EXPECT_EQ(report.runSeconds.size(), configs.size());
    EXPECT_GT(report.wallSeconds, 0.0);
}

TEST(Sweep, WorkloadCacheReturnsOneInstance)
{
    WorkloadCache cache;
    auto a = cache.compiled("go", InputSet::Ref);
    auto b = cache.compiled("go", InputSet::Ref);
    EXPECT_EQ(a.get(), b.get());
    auto p = cache.profiled("go", InputSet::Train, 5'000);
    auto q = cache.profiled("go", InputSet::Train, 5'000);
    EXPECT_EQ(p.get(), q.get());
    // A different budget is a different profile.
    auto r = cache.profiled("go", InputSet::Train, 6'000);
    EXPECT_NE(p.get(), r.get());
}

TEST(SweepValidationDeathTest, ReallocRequiresDynamicRvp)
{
    ExperimentConfig config = smallConfig("go");
    config.realisticRealloc = true;
    config.scheme = VpScheme::Lvp;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "re-colours");
}

TEST(SweepValidationDeathTest, StaticRvpIsLoadsOnly)
{
    ExperimentConfig config = smallConfig("go");
    config.scheme = VpScheme::StaticRvp;
    config.loadsOnly = false;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config),
                        "loadsOnly=false is contradictory");
}

TEST(SweepValidationDeathTest, UnknownWorkloadAndBadKnobs)
{
    ExperimentConfig config = smallConfig("go");
    config.workload = "nonesuch";
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "unknown workload");

    config = smallConfig("go");
    config.counterThreshold = 9;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "3-bit");

    config = smallConfig("go");
    config.tableEntries = 0;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "at least one entry");

    config = smallConfig("go");
    config.profileThreshold = 1.5;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "not a rate");

    // Budgets are in [1, 2^40], so the replay bound cannot wrap; the
    // table is bounded so a request cannot exhaust host memory.
    config = smallConfig("go");
    config.core.maxInsts = 0;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "insts 0");
    config.core.maxInsts = maxInstBudget + 1;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "insts 1099");
    config.core.maxInsts = maxInstBudget;
    EXPECT_NO_THROW(validateExperimentConfig(config));
    config = smallConfig("go");
    config.profileInsts = 0;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "profile_insts");
    config = smallConfig("go");
    config.tableEntries = maxTableEntries + 1;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "table_entries");
}

/**
 * A loop whose every body instruction is value-stable (r_k = r_k + r31)
 * — near-100% coverage for dynamic RVP, which makes the fetch-time
 * overcount of the in-flight tail visible: with a small commit budget
 * the core fetches (and "predicts") a window of instructions beyond the
 * budget that never commit.
 */
Program
stableLoop(unsigned body, std::int32_t iters)
{
    Program prog;
    StaticInst init;
    init.op = Opcode::LDA;
    init.rc = 1;
    init.ra = zeroReg;
    init.useImm = true;
    init.imm = iters;
    prog.insts.push_back(init);
    for (unsigned i = 0; i < body; ++i) {
        StaticInst add;
        add.op = Opcode::ADDQ;
        add.rc = static_cast<RegIndex>(2 + (i % 24));
        add.ra = add.rc;
        add.rb = zeroReg;
        prog.insts.push_back(add);
    }
    StaticInst dec;
    dec.op = Opcode::SUBQ;
    dec.rc = 1;
    dec.ra = 1;
    dec.useImm = true;
    dec.imm = 1;
    prog.insts.push_back(dec);
    StaticInst br;
    br.op = Opcode::BNE;
    br.ra = 1;
    br.imm = -static_cast<std::int32_t>(body + 2);
    prog.insts.push_back(br);
    StaticInst halt;
    halt.op = Opcode::HALT;
    prog.insts.push_back(halt);
    return prog;
}

TEST(CommittedPathStats, PredictionsNeverExceedCommitted)
{
    // Regression: vp.predictions used to count every fetched
    // instruction the predictor fired on, including the in-flight tail
    // past the commit budget — so "coverage" could exceed 100%.
    Program prog = stableLoop(64, 2'000);
    VpConfig vp;
    vp.scheme = VpScheme::DynamicRvp;
    vp.loadsOnly = false;
    auto predictor = makePredictor(vp, prog);
    CoreParams params = CoreParams::table1();
    params.maxInsts = 3'000;
    Core core(params, prog, *predictor);
    CoreResult r = core.run();

    double committed = static_cast<double>(r.committed);
    EXPECT_LE(r.stats.get("vp.eligible"), committed);
    EXPECT_LE(r.stats.get("vp.predictions"), r.stats.get("vp.eligible"));
    EXPECT_LE(r.stats.get("vp.correct"), r.stats.get("vp.predictions"));
    // The fetch-time counts remain visible and bound the committed ones.
    EXPECT_GE(r.stats.get("vp.predictions_fetched"),
              r.stats.get("vp.predictions"));
    EXPECT_GE(r.stats.get("vp.eligible_fetched"),
              r.stats.get("vp.eligible"));
    // The loop really is highly predictable (the gap to 100% is the
    // confidence warm-up), so the invariant is load-bearing here: the
    // in-flight tail past the budget is fetched, predicted, and never
    // committed — fetch-time counting strictly overshoots.
    EXPECT_GT(r.stats.get("vp.predictions"), 0.7 * committed);
    EXPECT_GT(r.stats.get("vp.predictions_fetched"),
              r.stats.get("vp.predictions"));
}

TEST(CommittedPathStats, ExperimentCoverageIsAFraction)
{
    ExperimentConfig config = smallConfig("m88ksim");
    config.scheme = VpScheme::DynamicRvp;
    config.assist = AssistLevel::DeadLv;
    config.loadsOnly = false;
    ExperimentResult r = runExperiment(config);
    EXPECT_GE(r.predictedFrac, 0.0);
    EXPECT_LE(r.predictedFrac, 1.0);
    EXPECT_GE(r.accuracy, 0.0);
    EXPECT_LE(r.accuracy, 1.0);
}

TEST(ReallocStats, SuccessPathIsRecorded)
{
    ExperimentConfig config = smallConfig("hydro2d");
    config.scheme = VpScheme::DynamicRvp;
    config.realisticRealloc = true;
    config.loadsOnly = false;
    ExperimentResult r = runExperiment(config);
    EXPECT_DOUBLE_EQ(r.stats.get("realloc.attempted"), 1.0);
    EXPECT_DOUBLE_EQ(r.stats.get("realloc.failed"), 0.0);
    EXPECT_FALSE(r.reallocFailed);
    EXPECT_GT(r.stats.get("realloc.candidates"), 0.0);
    EXPECT_GE(r.stats.get("realloc.honored"), 0.0);
}

TEST(ReallocStats, NonReallocRunsCarryNoReallocStats)
{
    ExperimentResult r = runExperiment(smallConfig("go"));
    EXPECT_DOUBLE_EQ(r.stats.get("realloc.attempted"), 0.0);
    EXPECT_FALSE(r.reallocFailed);
}

TEST(Sweep, DescribeConfigNamesTheVariant)
{
    ExperimentConfig config = smallConfig("go");
    config.scheme = VpScheme::DynamicRvp;
    config.assist = AssistLevel::DeadLv;
    config.loadsOnly = false;
    std::string desc = describeConfig(config);
    EXPECT_NE(desc.find("go"), std::string::npos);
    EXPECT_NE(desc.find("drvp"), std::string::npos);
}

TEST(Sweep, AThrowingRunIsContainedAndTheRestComplete)
{
    // Regression: a run body that threw used to escape parallelFor's
    // worker thread and std::terminate the whole process, taking every
    // other run's results with it. The run driver now contains each
    // attempt's exception and runSweep records the failure on that run
    // alone, whichever group it ran in.
    std::vector<ExperimentConfig> configs;
    for (int i = 0; i < 5; ++i)
        configs.push_back(smallConfig(i % 2 ? "go" : "mgrid"));

    SweepOptions opts;
    opts.jobs = 4;
    opts.progress = false;
    opts.maxRetries = 0;   // containment semantics, not retry (see
                           // test_robustness.cc for the retry paths)
    std::atomic<int> calls{0};
    opts.onAttemptStart = [&calls](const ExperimentConfig &,
                                   const RunContext &) {
        if (calls.fetch_add(1) == 2)
            throw std::runtime_error("simulated mid-run failure");
    };

    std::vector<ExperimentResult> results = runSweep(configs, opts);
    ASSERT_EQ(results.size(), configs.size());
    std::size_t failed = 0;
    for (const ExperimentResult &r : results) {
        if (r.failed) {
            ++failed;
            EXPECT_EQ(r.error, "simulated mid-run failure");
            EXPECT_EQ(r.committed, 0u);   // default-initialized metrics
        } else {
            EXPECT_TRUE(r.error.empty());
            EXPECT_GT(r.committed, 0u);
            EXPECT_GT(r.ipc, 0.0);
        }
    }
    EXPECT_EQ(failed, 1u);
}

TEST(Sweep, ContainedFailuresStaySerialParallelIdentical)
{
    // Which run fails is determined by the injected hook (index 1),
    // not by scheduling, so serial and parallel sweeps agree even in
    // the presence of failures.
    std::vector<ExperimentConfig> configs;
    for (int i = 0; i < 4; ++i)
        configs.push_back(smallConfig("go"));
    auto hook = [](const ExperimentConfig &config, const RunContext &) {
        if (config.core.maxInsts == 16'000)
            throw std::runtime_error("bad budget");
    };
    configs[1].core.maxInsts = 16'000;

    for (unsigned jobs : {1u, 8u}) {
        SweepOptions opts;
        opts.jobs = jobs;
        opts.progress = false;
        opts.maxRetries = 0;
        opts.onAttemptStart = hook;
        std::vector<ExperimentResult> results = runSweep(configs, opts);
        ASSERT_EQ(results.size(), 4u);
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(results[i].failed, i == 1) << "jobs=" << jobs;
            if (i == 1) {
                EXPECT_EQ(results[i].error, "bad budget");
            }
        }
    }
}

TEST(SweepValidationDeathTest, BadCacheGeometryIsRejectedUpFront)
{
    // validateExperimentConfig now vets the whole cache hierarchy, so
    // a sweep fails before any simulation rather than silently running
    // a smaller cache than configured.
    ExperimentConfig config = smallConfig("go");
    config.core.mem.l1d.sizeBytes = 65'636;   // not sets*assoc*line
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "silently");

    config = smallConfig("go");
    config.core.mem.l2.lineBytes = 48;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "power of two");
}

TEST(SweepValidationDeathTest, TracingNeedsAPositiveSampleInterval)
{
    ExperimentConfig config = smallConfig("go");
    config.traceOut = "/tmp/x.trace.json";
    config.traceSample = 0;
    EXPECT_CONFIG_ERROR(validateExperimentConfig(config), "traceSample");
}

TEST(Sweep, NegativeStreamEntryPinsSmallerCallersToLive)
{
    // An over-budget capture resolves to a negative (null) entry;
    // every later caller — including one with a smaller bound that a
    // fresh capture might have satisfied — takes the live-emulation
    // fallback without re-attempting the build.
    WorkloadCache cache(1024);
    StreamKey key;
    key.workload = "go";
    int builds = 0;
    auto build = [&](std::uint64_t) -> WorkloadCache::StreamPtr {
        ++builds;
        return nullptr;   // capture exceeded maxBytes
    };
    EXPECT_EQ(cache.stream(key, 10'000, build), nullptr);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(cache.stream(key, 1'000, build), nullptr);
    EXPECT_EQ(builds, 1);   // negative entry honored, no rebuild
    WorkloadCacheStats stats = cache.stats();
    EXPECT_EQ(stats.streamMisses, 2u);
    EXPECT_EQ(stats.streamHits, 0u);
    EXPECT_EQ(stats.streamBytesBuilt, 0u);
}

TEST(Sweep, TruncatedStreamIsRebuiltForALongerRun)
{
    // A stream captured for a short run is truncated below a longer
    // run's bound; the cache must rebuild at the larger bound instead
    // of replaying a stream that ends mid-run, and both runs must
    // match their uncached equivalents bit for bit.
    WorkloadCache cache;
    ExperimentConfig small_cfg = smallConfig("go");
    ExperimentConfig big_cfg = smallConfig("go");
    big_cfg.core.maxInsts = 30'000;

    RunContext context;
    context.cache = &cache;
    ExperimentResult a = runExperiment(small_cfg, context);
    ExperimentResult b = runExperiment(big_cfg, context);

    WorkloadCacheStats stats = cache.stats();
    EXPECT_EQ(stats.streamMisses, 2u)
        << "the truncated stream must be rebuilt, not replayed";
    EXPECT_EQ(stats.streamHits, 0u);

    expectIdentical(a, runExperiment(small_cfg), "small vs uncached");
    expectIdentical(b, runExperiment(big_cfg), "big vs uncached");
}

TEST(Sweep, UncoveredWaiterRebuildsOnceAndCountsOneLookup)
{
    // Two callers on one key: the first captures 1,000 instructions
    // and holds its build until the second is waiting on it; the
    // second needs 5,000, so it must rebuild once (the entry is
    // resolved before the shared future is published), never re-share
    // the finished build in a loop counting hits.
    WorkloadCache cache;
    std::shared_ptr<const CompiledWorkload> compiled =
        cache.compiled("go", InputSet::Ref);
    StreamKey key;
    key.workload = "go";
    std::atomic<int> builds{0};
    auto capture = [&](std::uint64_t insts, bool holdForWaiter) {
        return [&, insts, holdForWaiter](std::uint64_t maxBytes) {
            ++builds;
            while (holdForWaiter && cache.stats().streamWaits < 1)
                std::this_thread::yield();
            return CapturedStream::capture(compiled->low.program, insts,
                                           maxBytes);
        };
    };

    WorkloadCache::StreamPtr small;
    std::thread first([&] {
        small = cache.stream(key, 1'000, capture(1'000, true));
    });
    while (cache.stats().streamMisses < 1)
        std::this_thread::yield();
    WorkloadCache::StreamPtr big =
        cache.stream(key, 5'000, capture(5'000, false));
    first.join();

    ASSERT_NE(small, nullptr);
    ASSERT_NE(big, nullptr);
    EXPECT_TRUE(small->covers(1'000));
    EXPECT_TRUE(big->covers(5'000));
    EXPECT_EQ(builds.load(), 2);
    WorkloadCacheStats stats = cache.stats();
    EXPECT_EQ(stats.streamWaits, 1u);
    EXPECT_EQ(stats.streamHits + stats.streamMisses, 2u);
    EXPECT_EQ(stats.streamBytesResident, big->encodedBytes());
}

TEST(Sweep, ParallelForCoversEveryIndexOnce)
{
    std::vector<int> hits(100, 0);
    parallelFor(hits.size(), 8,
                [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
    // Serial fallback path.
    std::vector<int> serial_hits(5, 0);
    parallelFor(serial_hits.size(), 1,
                [&](std::size_t i) { serial_hits[i] += 1; });
    for (int h : serial_hits)
        EXPECT_EQ(h, 1);
}

TEST(Sweep, SummarizeKipsTreatsZeroAsAValidMinimum)
{
    // Regression for the old min-throughput sentinel: min_kips == 0.0
    // meant "unset", so a run that legitimately committed nothing
    // (zero KIPS) could never be the reported minimum. The summary
    // carries an explicit any-completed flag instead.
    auto completed = [](double kips) {
        ExperimentResult r;
        r.kips = kips;
        return r;
    };
    auto failed = [](double kips) {
        ExperimentResult r;
        r.kips = kips;
        r.failed = true;
        return r;
    };

    // A legitimate zero-KIPS run IS the minimum.
    KipsSummary s = summarizeKips({completed(0.0), completed(120.5)});
    EXPECT_TRUE(s.any);
    EXPECT_DOUBLE_EQ(s.minKips, 0.0);
    EXPECT_DOUBLE_EQ(s.maxKips, 120.5);

    // Failed runs are excluded from both extremes.
    s = summarizeKips(
        {failed(1.0), completed(50.0), completed(75.0), failed(900.0)});
    EXPECT_TRUE(s.any);
    EXPECT_DOUBLE_EQ(s.minKips, 50.0);
    EXPECT_DOUBLE_EQ(s.maxKips, 75.0);

    // Nothing completed: flagged, not silently zero-but-meaningless.
    s = summarizeKips({failed(1.0), failed(2.0)});
    EXPECT_FALSE(s.any);
    s = summarizeKips({});
    EXPECT_FALSE(s.any);
}

TEST(RunIdentity, EveryFieldOfTheTableChangesTheKey)
{
    // One edit per row of configFields(): a config that differs from
    // the default only in that field gets that row's text changed, no
    // other row's, and a key of its own.
    using Edit = std::function<void(ExperimentConfig &)>;
    const std::map<std::string, Edit> edits = {
        {"workload", [](ExperimentConfig &c) { c.workload = "mgrid"; }},
        {"scheme", [](ExperimentConfig &c) { c.scheme = VpScheme::Lvp; }},
        {"assist",
         [](ExperimentConfig &c) { c.assist = AssistLevel::DeadLv; }},
        {"recovery",
         [](ExperimentConfig &c) {
             c.core.recovery = RecoveryPolicy::Refetch;
         }},
        {"loads_only", [](ExperimentConfig &c) { c.loadsOnly = false; }},
        {"insts", [](ExperimentConfig &c) { c.core.maxInsts = 12'000; }},
        {"profile_insts",
         [](ExperimentConfig &c) { c.profileInsts = 12'000; }},
        {"profile_threshold",
         [](ExperimentConfig &c) { c.profileThreshold = 0.9; }},
        {"table_entries", [](ExperimentConfig &c) { c.tableEntries = 256; }},
        {"counter_threshold",
         [](ExperimentConfig &c) { c.counterThreshold = 3; }},
        {"vp_params", [](ExperimentConfig &c) { c.vpParams = "hist=3"; }},
        {"realistic_realloc",
         [](ExperimentConfig &c) { c.realisticRealloc = true; }},
        {"tagged_rvp", [](ExperimentConfig &c) { c.taggedRvp = true; }},
        {"fetch_width", [](ExperimentConfig &c) { c.core.fetchWidth = 16; }},
        {"fetch_blocks",
         [](ExperimentConfig &c) { c.core.fetchBlocks = 3; }},
        {"front_depth", [](ExperimentConfig &c) { c.core.frontDepth = 6; }},
        {"rename_width",
         [](ExperimentConfig &c) { c.core.renameWidth = 16; }},
        {"commit_width",
         [](ExperimentConfig &c) { c.core.commitWidth = 16; }},
        {"int_iq_entries",
         [](ExperimentConfig &c) { c.core.intIqEntries = 64; }},
        {"fp_iq_entries",
         [](ExperimentConfig &c) { c.core.fpIqEntries = 64; }},
        {"int_fus", [](ExperimentConfig &c) { c.core.intFus = 12; }},
        {"ldst_ports", [](ExperimentConfig &c) { c.core.ldstPorts = 8; }},
        {"fp_fus", [](ExperimentConfig &c) { c.core.fpFus = 6; }},
        {"rob_entries", [](ExperimentConfig &c) { c.core.robEntries = 256; }},
        {"phys_int_regs",
         [](ExperimentConfig &c) { c.core.physIntRegs = 256; }},
        {"phys_fp_regs",
         [](ExperimentConfig &c) { c.core.physFpRegs = 256; }},
        {"lsq_entries", [](ExperimentConfig &c) { c.core.lsqEntries = 128; }},
        {"collect_hist",
         [](ExperimentConfig &c) { c.core.collectHist = true; }},
        {"l1i_name", [](ExperimentConfig &c) { c.core.mem.l1i.name = "i"; }},
        {"l1i_size_bytes",
         [](ExperimentConfig &c) { c.core.mem.l1i.sizeBytes = 65536; }},
        {"l1i_assoc", [](ExperimentConfig &c) { c.core.mem.l1i.assoc = 2; }},
        {"l1i_line_bytes",
         [](ExperimentConfig &c) { c.core.mem.l1i.lineBytes = 32; }},
        {"l1d_name", [](ExperimentConfig &c) { c.core.mem.l1d.name = "d"; }},
        {"l1d_size_bytes",
         [](ExperimentConfig &c) { c.core.mem.l1d.sizeBytes = 65536; }},
        {"l1d_assoc", [](ExperimentConfig &c) { c.core.mem.l1d.assoc = 2; }},
        {"l1d_line_bytes",
         [](ExperimentConfig &c) { c.core.mem.l1d.lineBytes = 32; }},
        {"l2_name", [](ExperimentConfig &c) { c.core.mem.l2.name = "u"; }},
        {"l2_size_bytes",
         [](ExperimentConfig &c) { c.core.mem.l2.sizeBytes = 1 << 20; }},
        {"l2_assoc", [](ExperimentConfig &c) { c.core.mem.l2.assoc = 4; }},
        {"l2_line_bytes",
         [](ExperimentConfig &c) { c.core.mem.l2.lineBytes = 128; }},
        {"l1_hit_latency",
         [](ExperimentConfig &c) { c.core.mem.l1HitLatency = 2; }},
        {"l1_miss_penalty",
         [](ExperimentConfig &c) { c.core.mem.l1MissPenalty = 10; }},
        {"l2_miss_penalty",
         [](ExperimentConfig &c) { c.core.mem.l2MissPenalty = 40; }},
        {"bp_pht_entries",
         [](ExperimentConfig &c) { c.core.bp.phtEntries = 4096; }},
        {"bp_btb_entries",
         [](ExperimentConfig &c) { c.core.bp.btbEntries = 512; }},
        {"bp_ras_entries",
         [](ExperimentConfig &c) { c.core.bp.rasEntries = 32; }},
        {"bp_history_bits",
         [](ExperimentConfig &c) { c.core.bp.historyBits = 12; }},
        {"trace_out", [](ExperimentConfig &c) { c.traceOut = "t.json"; }},
        {"trace_sample", [](ExperimentConfig &c) { c.traceSample = 8; }},
    };
    const ExperimentConfig base;
    std::set<std::string> keys{configKey(base)};
    for (const ConfigField &field : configFields()) {
        auto edit = edits.find(field.name);
        ASSERT_NE(edit, edits.end()) << "no edit for row " << field.name;
        ExperimentConfig changed = base;
        edit->second(changed);
        for (const ConfigField &other : configFields()) {
            bool same = other.format(changed) == other.format(base);
            EXPECT_EQ(same, std::string(other.name) != field.name)
                << "editing " << field.name << " changed " << other.name;
        }
        EXPECT_TRUE(keys.insert(configKey(changed)).second)
            << field.name << " shares a key";
    }
    EXPECT_EQ(edits.size(), configFields().size());
}

TEST(RunIdentity, TextKeepsTheFrozenPrefixAndEscapesStrings)
{
    // A default config writes only the frozen v1 fields; a later field
    // appears as name=value, and a string cannot forge a boundary.
    ExperimentConfig config;
    EXPECT_EQ(canonicalConfigText(config),
              "rvp-spec-v1|go|none|same|selective|loads|400000|300000|"
              "0.80000000000000004|1024|7|");
    config.taggedRvp = true;
    config.traceOut = "a|trace_sample=5";
    EXPECT_EQ(canonicalConfigText(config),
              "rvp-spec-v1|go|none|same|selective|loads|400000|300000|"
              "0.80000000000000004|1024|7||tagged_rvp=true|"
              "trace_out=a\\|trace_sample=5");
    ExperimentConfig forged;
    forged.taggedRvp = true;
    forged.traceOut = "a";
    forged.traceSample = 5;
    EXPECT_NE(configKey(config), configKey(forged));
    EXPECT_EQ(configKey(config),
              hashHex(fnv1a(canonicalConfigText(config))));
}

} // namespace
} // namespace rvp
