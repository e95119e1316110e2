/**
 * @file
 * Robustness tests: watchdog deadlines, retry-with-degradation, stream
 * integrity verification, the crash-safe run journal, and sweep_all's
 * kill-and-resume behaviour and bench row (exercised on the real
 * binary via fork/exec/SIGKILL). Every fault class the injector can
 * produce (sim/faultinject.hh) must end in either a recorded failure or
 * a degraded-but-bit-exact result — never a crash, a hang, or a
 * silently wrong statistic.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hh"
#include "common/jsonlite.hh"
#include "sim/faultinject.hh"
#include "sim/figures.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stream/stream.hh"
#include "uarch/core.hh"
#include "vp/oracle.hh"

#include "config_error.hh"

namespace rvp
{
namespace
{

ExperimentConfig
smallConfig(const std::string &workload)
{
    ExperimentConfig config;
    config.workload = workload;
    config.core.maxInsts = 12'000;
    config.profileInsts = 12'000;
    return config;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b,
                const std::string &label)
{
    EXPECT_EQ(a.cycles, b.cycles) << label;
    EXPECT_EQ(a.committed, b.committed) << label;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << label;
    EXPECT_DOUBLE_EQ(a.predictedFrac, b.predictedFrac) << label;
    EXPECT_DOUBLE_EQ(a.accuracy, b.accuracy) << label;
    EXPECT_EQ(a.stats.values().size(), b.stats.values().size()) << label;
    for (const auto &[name, value] : a.stats.values())
        EXPECT_DOUBLE_EQ(value, b.stats.get(name)) << label << ": " << name;
}

/** A value-writing loop long enough to feed capture and the core. */
Program
loopProgram(std::int32_t iters)
{
    Program prog;
    StaticInst init;
    init.op = Opcode::LDA;
    init.rc = 1;
    init.ra = zeroReg;
    init.useImm = true;
    init.imm = iters;
    prog.insts.push_back(init);
    StaticInst add;
    add.op = Opcode::ADDQ;
    add.rc = 2;
    add.ra = 2;
    add.rb = zeroReg;
    prog.insts.push_back(add);
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
    br.imm = -3;
    prog.insts.push_back(br);
    StaticInst halt;
    halt.op = Opcode::HALT;
    prog.insts.push_back(halt);
    return prog;
}

/** A capture of a real program, so every dynamic lane is non-empty. */
std::shared_ptr<const CapturedStream>
captureWithMemoryOps()
{
    CompiledWorkload go = compileWorkload("go", InputSet::Ref);
    return CapturedStream::capture(go.low.program, 4'000);
}

/** The dynamic lanes of a captured stream, by corruption-seam index. */
constexpr unsigned kStreamLanes[] = {0, 1, 2};   // value/address/taken

// ---------------------------------------------------------------------
// RunDeadline
// ---------------------------------------------------------------------

TEST(Deadline, GenerousBudgetNeitherExpiresNorThrows)
{
    RunDeadline deadline(3600.0);
    EXPECT_FALSE(deadline.expired());
    EXPECT_NO_THROW(deadline.check("test"));
}

TEST(Deadline, ExpiredBudgetThrowsWithTheCheckSite)
{
    RunDeadline deadline(-1.0);
    EXPECT_TRUE(deadline.expired());
    try {
        deadline.check("unit test site");
        FAIL() << "check() must throw";
    } catch (const DeadlineExceeded &e) {
        EXPECT_NE(std::string(e.what()).find("unit test site"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("deadline exceeded"),
                  std::string::npos);
    }
}

TEST(Deadline, ExpiredDeadlineAbortsRunExperiment)
{
    RunDeadline expired(-1.0);
    RunContext context;
    context.deadline = &expired;
    EXPECT_THROW(runExperiment(smallConfig("go"), context),
                 DeadlineExceeded);
}

TEST(Deadline, ExpiredDeadlineAbortsTheCoreLoop)
{
    Program prog = loopProgram(50'000);
    VpConfig vp;
    auto predictor = makePredictor(vp, prog);
    CoreParams params = CoreParams::table1();
    params.maxInsts = 100'000;
    RunDeadline expired(-1.0);
    Core core(params, prog, *predictor, nullptr, nullptr, &expired);
    EXPECT_THROW(core.run(), DeadlineExceeded);
}

TEST(Deadline, NullDeadlineLeavesResultsBitIdentical)
{
    // The watchdog-off fast path must not perturb any statistic: the
    // golden-stat snapshot pins the default path globally, and this
    // pins the seam directly.
    ExperimentConfig config = smallConfig("go");
    ExperimentResult with_null_seam = runExperiment(config, RunContext{});
    ExperimentResult plain = runExperiment(config);
    expectIdentical(with_null_seam, plain, "null deadline seam");

    // A generous (non-null, never-firing) deadline is also invisible.
    RunDeadline generous(3600.0);
    RunContext context;
    context.deadline = &generous;
    ExperimentResult with_deadline = runExperiment(config, context);
    expectIdentical(with_deadline, plain, "armed-but-unfired deadline");
}

// ---------------------------------------------------------------------
// Retry with graceful degradation (sweep scheduler)
// ---------------------------------------------------------------------

TEST(Retry, TransientThrowIsRetriedDegradedWithExactStats)
{
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("go"));
    configs.push_back(smallConfig("mgrid"));
    configs.push_back(smallConfig("go"));

    FaultPlan plan;
    plan.faults[1] = FaultKind::Throw;   // transient: attempt 0 only
    auto log = std::make_shared<FaultLog>();

    SweepOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.onAttemptStart = makeFaultHook(plan, log);
    std::vector<ExperimentResult> results = runSweep(configs, opts);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(log->fired.load(), 1u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed) << i;
        EXPECT_EQ(results[i].retries, i == 1 ? 1u : 0u) << i;
        EXPECT_EQ(results[i].degraded, i == 1) << i;
    }
    // The retried run keeps the error of the attempt that failed, so
    // the report can say why it ran degraded; the others carry none.
    EXPECT_EQ(results[1].error, "injected fault (run 1)");
    EXPECT_TRUE(results[0].error.empty());
    EXPECT_TRUE(results[2].error.empty());
    // The degraded profile only bypasses observers (stream replay,
    // tracing, histograms), so the retried run's stats are bit-exact.
    expectIdentical(results[1], runExperiment(configs[1]),
                    "degraded retry vs clean run");
}

TEST(Retry, PersistentThrowEndsAsARecordedFailure)
{
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("go"));
    configs.push_back(smallConfig("go"));

    FaultPlan plan;
    plan.faults[0] = FaultKind::Throw;
    plan.persistent = true;
    auto log = std::make_shared<FaultLog>();

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.onAttemptStart = makeFaultHook(plan, log);
    std::vector<ExperimentResult> results = runSweep(configs, opts);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(log->fired.load(), 2u);   // initial attempt + retry
    EXPECT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].retries, 1u);
    EXPECT_NE(results[0].error.find("injected fault"), std::string::npos);
    EXPECT_FALSE(results[1].failed);
    expectIdentical(results[1], runExperiment(configs[1]),
                    "unfaulted neighbour");
}

TEST(Retry, PersistentDeadlineOverrunIsRecordedNotWedged)
{
    // The injected run sleeps past its watchdog on every attempt, so
    // both attempts fail with DeadlineExceeded at the run-start check
    // (timing-robust: the sleep strictly exceeds the budget and the
    // simulation itself never starts). The sweep completes anyway.
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("go"));
    configs.push_back(smallConfig("go"));

    FaultPlan plan;
    plan.faults[0] = FaultKind::SleepPastDeadline;
    plan.sleepSeconds = 0.6;
    plan.persistent = true;
    auto log = std::make_shared<FaultLog>();

    // Prewarm compile/profile/stream into the sweep's cache with no
    // deadline before the first timed attempt: run 0 faults at entry
    // and never builds anything, so without this the unfaulted run 1
    // would pay the whole toolchain under the tight watchdog and fail
    // spuriously on slow or sanitizer-instrumented hosts. The timed
    // attempts then exercise exactly what the test is about: the
    // watchdog catching the injected sleep, not build latency.
    WorkloadCache cache;
    RunContext warm;
    warm.cache = &cache;
    runExperiment(configs[1], warm);

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.runDeadline = 0.25;
    opts.sharedCache = &cache;
    opts.onAttemptStart = makeFaultHook(plan, log);
    std::vector<ExperimentResult> results = runSweep(configs, opts);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].failed);
    EXPECT_EQ(results[0].retries, 1u);
    EXPECT_NE(results[0].error.find("deadline exceeded"),
              std::string::npos);
    EXPECT_FALSE(results[1].failed);
}

TEST(Retry, FailedSharedBuildIsEvictedNotPoisoned)
{
    // Regression guard for the memoization layer: a compile/profile
    // build that throws (here: an expired deadline) used to leave its
    // exception cached in the shared_future forever, so every later
    // run of the workload inherited the failure. The entry is now
    // evicted before the exception is published.
    WorkloadCache cache;
    RunDeadline expired(-1.0);
    EXPECT_THROW(cache.profiled("go", InputSet::Train, 5'000, &expired),
                 DeadlineExceeded);
    // Clean rebuild with no deadline: must succeed, not rethrow.
    auto profile = cache.profiled("go", InputSet::Train, 5'000);
    EXPECT_NE(profile, nullptr);
}

// ---------------------------------------------------------------------
// Stream capture OOM degradation
// ---------------------------------------------------------------------

TEST(CaptureOom, FallsBackToLiveHalvesBudgetAndStaysExact)
{
    constexpr std::uint64_t budget = 1u << 20;
    WorkloadCache cache(budget);
    RunContext context;
    context.cache = &cache;

    ExperimentConfig config = smallConfig("go");
    ExperimentResult faulted;
    {
        CaptureFaultGuard guard;
        armCaptureBadAlloc(64);   // capture dies 64 instructions in
        faulted = runExperiment(config, context);
    }

    WorkloadCacheStats stats = cache.stats();
    EXPECT_EQ(stats.streamCaptureOoms, 1u);
    EXPECT_EQ(cache.streamBudgetBytes(), budget / 2);
    EXPECT_EQ(stats.streamBytesBuilt, 0u);

    // The run recovered via live emulation: bit-exact result.
    expectIdentical(faulted, runExperiment(config), "oom fallback");

    // The key is pinned live: no further capture attempt (which would
    // throw again were the hook still armed — it is not, so a rebuild
    // would instead show up as streamBytesBuilt).
    ExperimentResult again = runExperiment(config, context);
    EXPECT_EQ(cache.stats().streamBytesBuilt, 0u);
    expectIdentical(again, faulted, "pinned-live rerun");
}

TEST(CaptureOom, InjectedBadAllocInASweepDegradesWithoutFailing)
{
    // The injector arms the capture OOM hook for run 0's first
    // attempt only (jobs=1: the hook is process-global). The two runs
    // share a stream key, so they form one group whose capture throws
    // bad_alloc: the cache halves its budget and pins the key live,
    // and both runs complete via live emulation without even needing
    // the retry.
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("go"));
    configs.push_back(smallConfig("go"));
    configs[1].scheme = VpScheme::Lvp;

    FaultPlan plan;
    plan.faults[0] = FaultKind::BadAlloc;
    plan.oomAfterInsts = 0;
    auto log = std::make_shared<FaultLog>();

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.onAttemptStart = makeFaultHook(plan, log);
    SweepReport report;
    std::vector<ExperimentResult> results;
    {
        CaptureFaultGuard guard;
        results = runSweep(configs, opts, &report);
    }

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(log->fired.load(), 1u);
    EXPECT_EQ(report.cache.streamCaptureOoms, 1u);
    EXPECT_EQ(report.cache.streamBytesBuilt, 0u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed) << i;
        EXPECT_EQ(results[i].retries, 0u) << i;
        expectIdentical(results[i], runExperiment(configs[i]),
                        "bad_alloc sweep run " + std::to_string(i));
    }
}

TEST(CaptureOom, ConcurrentArmDisarmAndCaptureIsRaceFree)
{
    // Regression for the capture hook being a bare static function
    // pointer: sweep workers capture streams while a test arms or
    // disarms the hook from another thread, so the hook must be an
    // atomic (this test races the two on purpose — TSan flags the old
    // plain load/store in the capture loop). The armed threshold sits
    // far past the capture length, so a capture that observes the
    // armed hook still never throws.
    Program prog = loopProgram(400);
    std::atomic<bool> stop{false};
    std::thread toggler([&] {
        while (!stop.load()) {
            armCaptureBadAlloc(
                std::numeric_limits<std::uint64_t>::max());
            disarmCaptureFaults();
        }
    });
    for (int i = 0; i < 100; ++i) {
        auto stream = CapturedStream::capture(prog, 2'000);
        ASSERT_NE(stream, nullptr);
    }
    stop.store(true);
    toggler.join();
    disarmCaptureFaults();
}

// ---------------------------------------------------------------------
// Stream integrity
// ---------------------------------------------------------------------

TEST(StreamIntegrity, FreshCaptureVerifiesAndAttaches)
{
    auto stream = CapturedStream::capture(loopProgram(2'000), 4'000);
    ASSERT_NE(stream, nullptr);
    EXPECT_NO_THROW(stream->verifyIntegrity());
    EXPECT_NO_THROW(StreamCursor{stream});
}

TEST(StreamIntegrity, FlippedLaneByteFailsCursorAttach)
{
    for (unsigned lane : kStreamLanes) {
        auto stream = captureWithMemoryOps();
        ASSERT_NE(stream, nullptr);
        EXPECT_NO_THROW(StreamCursor{stream}) << "lane " << lane;
        corruptStreamForTest(*stream, lane, 0, 0x40);
        EXPECT_THROW(StreamCursor{stream}, StreamIntegrityError)
            << "lane " << lane;
        EXPECT_THROW(stream->verifyIntegrity(), StreamIntegrityError)
            << "lane " << lane;
    }
}

TEST(StreamIntegrity, TruncatedLaneFailsCursorAttach)
{
    for (unsigned lane : kStreamLanes) {
        auto stream = captureWithMemoryOps();
        ASSERT_NE(stream, nullptr);
        truncateStreamForTest(*stream, lane, 1);
        EXPECT_THROW(StreamCursor{stream}, StreamIntegrityError)
            << "lane " << lane;
        EXPECT_THROW(stream->verifyIntegrity(), StreamIntegrityError)
            << "lane " << lane;
    }
}

TEST(StreamIntegrity, CorruptCachedStreamFallsBackToLiveInTheSweep)
{
    // A prewarmed cache holds the stream; the injector corrupts it as
    // run 1's attempt starts, before the group (both runs share the
    // stream key) attaches its shared decode. The group must detect
    // the corruption at attach, drop the entry, count it, and produce
    // bit-exact results via live emulation — with no failure and no
    // retry. Every lane in turn.
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("go"));
    configs.push_back(smallConfig("go"));
    configs[1].scheme = VpScheme::Lvp;   // same stream key, distinct run
    std::vector<ExperimentResult> live;
    for (const ExperimentConfig &config : configs)
        live.push_back(runExperiment(config));

    for (unsigned lane : kStreamLanes) {
        FaultPlan plan;
        plan.faults[1] = FaultKind::CorruptStream;
        plan.corruptLane = lane;
        auto log = std::make_shared<FaultLog>();

        WorkloadCache cache;
        RunContext warm;
        warm.cache = &cache;
        runExperiment(configs[0], warm);

        SweepOptions opts;
        opts.jobs = 1;
        opts.progress = false;
        opts.sharedCache = &cache;
        opts.onAttemptStart = makeFaultHook(plan, log);
        SweepReport report;
        std::vector<ExperimentResult> results =
            runSweep(configs, opts, &report);

        std::string label = "lane " + std::to_string(lane) + " run ";
        ASSERT_EQ(results.size(), 2u);
        EXPECT_EQ(log->fired.load(), 1u) << label;
        EXPECT_EQ(report.cache.streamIntegrityFailures, 1u) << label;
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_FALSE(results[i].failed) << label << i;
            EXPECT_EQ(results[i].retries, 0u) << label << i;
            expectIdentical(results[i], live[i],
                            "corrupt-stream fallback " + label +
                                std::to_string(i));
        }
    }
}

TEST(StreamIntegrity, TruncatedCachedStreamFallsBackToLiveInTheSweep)
{
    // Groups of one: run 0 captures the stream, the injector truncates
    // it as run 1's attempt starts, and run 1's cursor attach must
    // fail verification and fall back to live emulation.
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("mgrid"));
    configs.push_back(smallConfig("mgrid"));
    ExperimentResult live = runExperiment(configs[1]);

    for (unsigned lane : kStreamLanes) {
        FaultPlan plan;
        plan.faults[1] = FaultKind::TruncateStream;
        plan.corruptLane = lane;

        SweepOptions opts;
        opts.jobs = 1;   // deterministic capture-then-truncate ordering
        opts.progress = false;
        opts.maxBatchGroupRuns = 1;
        opts.onAttemptStart = makeFaultHook(plan, nullptr);
        SweepReport report;
        std::vector<ExperimentResult> results =
            runSweep(configs, opts, &report);

        std::string label = "lane " + std::to_string(lane);
        ASSERT_EQ(results.size(), 2u);
        EXPECT_EQ(report.cache.streamIntegrityFailures, 1u) << label;
        EXPECT_FALSE(results[0].failed) << label;
        EXPECT_FALSE(results[1].failed) << label;
        expectIdentical(results[1], live,
                        "truncated-stream fallback " + label);
    }
}

// ---------------------------------------------------------------------
// The run driver's fallbacks: one lookup and one preparation per run
// ---------------------------------------------------------------------

/** Four runs of go that share the Base binary's stream key (one group
 *  in a default sweep), and their live results. */
struct BaseGroup
{
    std::vector<ExperimentConfig> configs;
    std::vector<ExperimentResult> live;

    BaseGroup()
    {
        for (VpScheme scheme : {VpScheme::None, VpScheme::Lvp,
                                VpScheme::DynamicRvp, VpScheme::Stride})
        {
            configs.push_back(smallConfig("go"));
            configs.back().scheme = scheme;
        }
        for (const ExperimentConfig &config : configs)
            live.push_back(runExperiment(config));
    }
};

/** Sweep group's configs at jobs=1 with an attempt counter chained in
 *  front of hook; returns the attempts started (= preparations). */
unsigned
sweepCountingAttempts(
    const BaseGroup &group, SweepOptions opts, SweepReport &report,
    std::vector<ExperimentResult> &results,
    std::function<void(const ExperimentConfig &, const RunContext &)> hook =
        nullptr)
{
    std::atomic<unsigned> starts{0};
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.onAttemptStart = [&](const ExperimentConfig &config,
                              const RunContext &context) {
        ++starts;
        if (hook)
            hook(config, context);
    };
    results = runSweep(group.configs, opts, &report);
    return starts.load();
}

void
expectLiveResults(const BaseGroup &group,
                  const std::vector<ExperimentResult> &results,
                  const std::string &label)
{
    ASSERT_EQ(results.size(), group.live.size()) << label;
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed) << label << i << results[i].error;
        EXPECT_EQ(results[i].retries, 0u) << label << i;
        expectIdentical(results[i], group.live[i],
                        label + std::to_string(i));
    }
}

TEST(DriverAccounting, OverBudgetGroupLooksUpAndPreparesEachRunOnce)
{
    BaseGroup group;
    SweepOptions opts;
    opts.streamCacheBytes = 1'000;   // far below the stream's size
    SweepReport report;
    std::vector<ExperimentResult> results;
    unsigned starts = sweepCountingAttempts(group, opts, report, results);

    const std::size_t n = group.configs.size();
    // The group ran live, so no shared decode fed it.
    EXPECT_EQ(report.batchGroups, 0u);
    EXPECT_EQ(report.batchedRuns, 0u);
    EXPECT_EQ(starts, n);
    // A preparation compiles through the cache once (these schemes
    // need no profile).
    EXPECT_EQ(report.cache.compileHits + report.cache.compileMisses, n);
    EXPECT_EQ(report.cache.streamHits, 0u);
    EXPECT_EQ(report.cache.streamMisses, n);
    EXPECT_EQ(report.cache.streamBytesBuilt, 0u);
    expectLiveResults(group, results, "over budget run ");
}

TEST(DriverAccounting, CaptureOomGroupLooksUpAndPreparesEachRunOnce)
{
    BaseGroup group;
    FaultPlan plan;
    plan.faults[0] = FaultKind::BadAlloc;
    SweepReport report;
    std::vector<ExperimentResult> results;
    unsigned starts;
    {
        CaptureFaultGuard guard;   // jobs=1: the hook is process-global
        starts = sweepCountingAttempts(group, SweepOptions{}, report,
                                       results, makeFaultHook(plan));
    }

    const std::size_t n = group.configs.size();
    EXPECT_EQ(report.cache.streamCaptureOoms, 1u);
    EXPECT_EQ(report.batchGroups, 0u);
    EXPECT_EQ(report.batchedRuns, 0u);
    EXPECT_EQ(starts, n);
    EXPECT_EQ(report.cache.compileHits + report.cache.compileMisses, n);
    EXPECT_EQ(report.cache.streamHits + report.cache.streamMisses, n);
    EXPECT_EQ(report.cache.streamBytesBuilt, 0u);
    expectLiveResults(group, results, "capture OOM run ");
}

TEST(DriverAccounting, CorruptStreamGroupRunsLiveWithOneIntegrityFailure)
{
    BaseGroup group;
    WorkloadCache cache;
    RunContext warm;
    warm.cache = &cache;
    runExperiment(group.configs[0], warm);
    auto stream = cache.stream(
        streamKeyFor(group.configs[0], false), 0,
        [](std::uint64_t) -> WorkloadCache::StreamPtr { return nullptr; });
    ASSERT_NE(stream, nullptr);
    corruptStreamForTest(*stream, 0, 0, 0x40);
    WorkloadCacheStats before = cache.stats();

    SweepOptions opts;
    opts.sharedCache = &cache;
    SweepReport report;
    std::vector<ExperimentResult> results;
    unsigned starts = sweepCountingAttempts(group, opts, report, results);

    const std::size_t n = group.configs.size();
    const WorkloadCacheStats &after = report.cache;
    EXPECT_EQ(after.streamIntegrityFailures, 1u);
    EXPECT_EQ(report.batchGroups, 0u);
    EXPECT_EQ(report.batchedRuns, 0u);
    EXPECT_EQ(starts, n);
    EXPECT_EQ(after.compileHits + after.compileMisses -
                  before.compileHits - before.compileMisses,
              n);
    EXPECT_EQ(after.streamHits + after.streamMisses - before.streamHits -
                  before.streamMisses,
              n);
    // The group ran live: nothing was captured again.
    EXPECT_EQ(after.streamInstsBuilt, before.streamInstsBuilt);
    expectLiveResults(group, results, "corrupt stream run ");
}

TEST(DriverAccounting, LiveGroupChargesEachRunOnlyItsOwnTime)
{
    // With no stream, a partition's members run live one after another.
    // Each run's watchdog budget and reported time cover its own run,
    // never the runs it waited for: a budget that fits one run but not
    // the twelve in a row passes every run at its first attempt, and
    // the runs' times add up to about the sweep's, not twelve times
    // it.
    ExperimentConfig base = smallConfig("go");
    base.core.maxInsts = 200'000;
    std::vector<ExperimentConfig> configs;
    for (int copy = 0; copy < 3; ++copy) {
        for (VpScheme scheme : {VpScheme::None, VpScheme::Lvp,
                                VpScheme::DynamicRvp, VpScheme::Stride})
        {
            configs.push_back(base);
            configs.back().scheme = scheme;
        }
    }

    // Stream budget 0: every run is live. Warm the compile cache, then
    // time each scheme's run alone.
    WorkloadCache cache(0);
    RunContext warm;
    warm.cache = &cache;
    double longest = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        runExperiment(configs[i], warm);
        auto t0 = std::chrono::steady_clock::now();
        runExperiment(configs[i], warm);
        longest = std::max(
            longest, std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count());
    }

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.sharedCache = &cache;
    opts.runDeadline = 4.0 * longest;
    SweepReport report;
    std::vector<ExperimentResult> results =
        runSweep(configs, opts, &report);

    ASSERT_EQ(results.size(), configs.size());
    EXPECT_EQ(report.batchGroups, 0u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed) << i << ": " << results[i].error;
        EXPECT_EQ(results[i].retries, 0u) << i << ": " << results[i].error;
    }
    double summed = 0.0;
    for (double seconds : report.runSeconds)
        summed += seconds;
    EXPECT_GT(summed, 0.0);
    EXPECT_LT(summed, 2.0 * report.wallSeconds);
}

// ---------------------------------------------------------------------
// Journal and atomic-write primitives
// ---------------------------------------------------------------------

struct TempDir
{
    std::string path;

    TempDir()
    {
        char tmpl[] = "/tmp/rvp_robust_XXXXXX";
        char *dir = mkdtemp(tmpl);
        EXPECT_NE(dir, nullptr);
        path = dir ? dir : "";
    }
    ~TempDir()
    {
        if (!path.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path, ec);
        }
    }
    std::string file(const std::string &name) const
    {
        return path + "/" + name;
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(AtomicWrite, WriteFileAtomicCreatesAndReplaces)
{
    TempDir dir;
    std::string path = dir.file("out.json");
    EXPECT_TRUE(writeFileAtomic(path, "first\n"));
    EXPECT_EQ(readFile(path), "first\n");
    EXPECT_TRUE(writeFileAtomic(path, "second\n"));
    EXPECT_EQ(readFile(path), "second\n");
    // No temp-file litter left beside the target.
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(dir.path))
        ++entries;
    EXPECT_EQ(entries, 1u);
}

TEST(AtomicWrite, WriteFileAtomicReportsUnwritableTargets)
{
    EXPECT_FALSE(writeFileAtomic("/nonexistent-dir-zzz/x.json", "data"));
}

TEST(AtomicWrite, NonRegularTargetsAreRefusedAndLeftInPlace)
{
    // A FIFO, a directory or a symlink at the target is a ConfigError
    // naming it, and stays what it was; the symlink's target is not
    // written through.
    TempDir dir;
    std::string fifo = dir.file("fifo");
    std::string sub = dir.file("dir");
    std::string target = dir.file("target");
    std::string link = dir.file("link");
    ASSERT_EQ(mkfifo(fifo.c_str(), 0644), 0);
    ASSERT_TRUE(std::filesystem::create_directory(sub));
    ASSERT_TRUE(writeFileAtomic(target, "kept\n"));
    ASSERT_EQ(symlink(target.c_str(), link.c_str()), 0);
    for (const std::string &path : {fifo, sub, link}) {
        EXPECT_CONFIG_ERROR(writeFileAtomic(path, "data"), path);
        EXPECT_CONFIG_ERROR(appendLineAtomic(path, "row"), path);
    }
    struct stat st;
    ASSERT_EQ(lstat(fifo.c_str(), &st), 0);
    EXPECT_TRUE(S_ISFIFO(st.st_mode));
    ASSERT_EQ(lstat(sub.c_str(), &st), 0);
    EXPECT_TRUE(S_ISDIR(st.st_mode));
    ASSERT_EQ(lstat(link.c_str(), &st), 0);
    EXPECT_TRUE(S_ISLNK(st.st_mode));
    EXPECT_EQ(readFile(target), "kept\n");
    // No temp-file litter either: only the four entries made above.
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(dir.path))
        ++entries;
    EXPECT_EQ(entries, 4u);
}

TEST(AtomicWrite, NewFilesTakeTheUmaskMode)
{
    TempDir dir;
    mode_t saved = umask(022);
    EXPECT_TRUE(writeFileAtomic(dir.file("open.json"), "x\n"));
    umask(077);
    EXPECT_TRUE(writeFileAtomic(dir.file("private.json"), "x\n"));
    umask(saved);
    struct stat st;
    ASSERT_EQ(stat(dir.file("open.json").c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777, 0644u);
    ASSERT_EQ(stat(dir.file("private.json").c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777, 0600u);
}

TEST(AtomicWrite, WriteFileAtomicSyncsTheParentDirectoryEntry)
{
    // Regression for the missing directory fsync after the rename:
    // the data fsync alone leaves the *name* undurable, so a crash
    // right after writeFileAtomic() returned could resurrect the old
    // contents. Userland can't observe the fsync itself, so this pins
    // the code paths it added: a nested parent directory, and the "."
    // parent for a slashless path (both must open-and-sync cleanly
    // and still replace atomically with no temp litter).
    TempDir dir;
    std::string nested = dir.path + "/sub";
    ASSERT_TRUE(std::filesystem::create_directory(nested));
    std::string path = nested + "/out.json";
    EXPECT_TRUE(writeFileAtomic(path, "old\n"));
    EXPECT_TRUE(writeFileAtomic(path, "new\n"));
    EXPECT_EQ(readFile(path), "new\n");
    std::size_t entries = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator(nested))
        ++entries;
    EXPECT_EQ(entries, 1u);

    // Slashless target: the parent is the working directory.
    std::filesystem::path old_cwd = std::filesystem::current_path();
    std::filesystem::current_path(dir.path);
    EXPECT_TRUE(writeFileAtomic("bare.json", "bare\n"));
    EXPECT_EQ(readFile("bare.json"), "bare\n");
    std::filesystem::current_path(old_cwd);
}

TEST(AtomicWrite, AppendLineAtomicAccumulatesWholeLines)
{
    TempDir dir;
    std::string path = dir.file("bench.json");
    EXPECT_TRUE(appendLineAtomic(path, "{\"row\": 1}"));
    EXPECT_TRUE(appendLineAtomic(path, "{\"row\": 2}"));
    EXPECT_EQ(readFile(path), "{\"row\": 1}\n{\"row\": 2}\n");
}

JournalRecord
sampleRecord(const std::string &key, bool failed)
{
    JournalRecord rec;
    rec.key = key;
    rec.figure = "fig05";
    rec.variant = "drvp";
    rec.workload = "go";
    rec.runSeconds = 0.1 + 0.2;   // not exactly representable
    rec.result.ipc = 1.0 / 3.0;
    rec.result.cycles = 123'456'789'012'345ull;
    rec.result.committed = 400'000;
    rec.result.predictedFrac = 0.12345678901234567;
    rec.result.accuracy = 0.99999999999999989;
    rec.result.hostSeconds = 2.5e-3;
    rec.result.kips = 1234.5678901234567;
    rec.result.failed = failed;
    rec.result.error = failed ? "synthetic \"quoted\" error" : "";
    rec.result.retries = failed ? 1 : 0;
    rec.result.degraded = failed;
    rec.result.stats.set("core.cycles", 7.0);
    rec.result.stats.set("vp.accuracy", 0.3333333333333333);
    return rec;
}

/** The record stored under key, decoded; nullopt when none is. */
std::optional<JournalRecord>
storedRecord(const RunStore &store, const std::string &key)
{
    std::optional<std::string> line = store.get(key);
    return line ? parseJournalRunLine(*line) : std::nullopt;
}

std::size_t
countLines(const std::string &text)
{
    return static_cast<std::size_t>(
        std::count(text.begin(), text.end(), '\n'));
}

TEST(Journal, RecordsRoundTripBitExactly)
{
    TempDir dir;
    std::string path = dir.file("sweep.journal");
    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.ok());
        journal.appendSweepHeader("cafebabe00000001");
        journal.append(sampleRecord("k1", false));
        journal.append(sampleRecord("k2", true));
    }
    // The sweep header writes nothing: the store header and two puts.
    EXPECT_EQ(countLines(readFile(path)), 3u);
    RunStore loaded(path);
    EXPECT_EQ(loaded.skippedLines(), 0u);
    ASSERT_EQ(loaded.size(), 2u);

    JournalRecord want = sampleRecord("k2", true);
    std::optional<JournalRecord> stored = storedRecord(loaded, "k2");
    ASSERT_TRUE(stored.has_value());
    const JournalRecord &got = *stored;
    EXPECT_EQ(got.key, want.key);
    EXPECT_EQ(got.figure, want.figure);
    EXPECT_EQ(got.variant, want.variant);
    EXPECT_EQ(got.workload, want.workload);
    // %.17g round-trips doubles exactly: EXPECT_EQ, not NEAR.
    EXPECT_EQ(got.runSeconds, want.runSeconds);
    EXPECT_EQ(got.result.ipc, want.result.ipc);
    EXPECT_EQ(got.result.cycles, want.result.cycles);
    EXPECT_EQ(got.result.committed, want.result.committed);
    EXPECT_EQ(got.result.predictedFrac, want.result.predictedFrac);
    EXPECT_EQ(got.result.accuracy, want.result.accuracy);
    EXPECT_EQ(got.result.hostSeconds, want.result.hostSeconds);
    EXPECT_EQ(got.result.kips, want.result.kips);
    EXPECT_EQ(got.result.failed, want.result.failed);
    EXPECT_EQ(got.result.error, want.result.error);
    EXPECT_EQ(got.result.retries, want.result.retries);
    EXPECT_EQ(got.result.degraded, want.result.degraded);
    EXPECT_EQ(got.result.stats.values(), want.result.stats.values());
}

TEST(Journal, TornTrailingLineIsSkippedNotFatal)
{
    TempDir dir;
    std::string path = dir.file("sweep.journal");
    {
        RunJournal journal(path);
        journal.append(sampleRecord("k1", false));
        journal.append(sampleRecord("k2", false));
    }
    // Simulate a SIGKILL mid-append: chop the file mid-way through the
    // final put.
    std::string contents = readFile(path);
    ASSERT_FALSE(contents.empty());
    std::string torn = contents.substr(0, contents.size() - 40);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << torn;
    }
    RunStore loaded(path);
    EXPECT_EQ(loaded.skippedLines(), 1u);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(storedRecord(loaded, "k1").has_value());
}

TEST(Journal, AppendAfterATornTailKeepsBothRecords)
{
    // A killed sweep left a put torn mid-line. Reopening the journal
    // for --resume must end that line before appending, or the new put
    // is spliced onto it and lost on the next replay.
    TempDir dir;
    std::string path = dir.file("sweep.journal");
    {
        RunJournal journal(path);
        journal.append(sampleRecord("k1", false));
        journal.append(sampleRecord("torn", false));
    }
    std::string contents = readFile(path);
    std::size_t last = contents.rfind('\n', contents.size() - 2) + 1;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << contents.substr(0, last + (contents.size() - last) / 2);
    }
    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.ok());
        journal.append(sampleRecord("k2", false));
    }
    RunStore loaded(path);
    EXPECT_EQ(loaded.skippedLines(), 1u);
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(storedRecord(loaded, "k1").has_value());
    EXPECT_TRUE(storedRecord(loaded, "k2").has_value());
    EXPECT_FALSE(loaded.get("torn").has_value());
}

TEST(Journal, DuplicateKeysKeepTheLaterRecord)
{
    TempDir dir;
    std::string path = dir.file("sweep.journal");
    {
        RunJournal journal(path);
        journal.append(sampleRecord("k1", true));    // failed first try
        journal.append(sampleRecord("k1", false));   // resumed retry won
    }
    RunStore loaded(path);
    ASSERT_EQ(loaded.size(), 1u);
    std::optional<JournalRecord> rec = storedRecord(loaded, "k1");
    ASSERT_TRUE(rec.has_value());
    EXPECT_FALSE(rec->result.failed);
}

TEST(Journal, MissingFileLoadsEmpty)
{
    RunStore loaded("/nonexistent-dir-zzz/nope.journal");
    EXPECT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.skippedLines(), 0u);
}

TEST(JournalMerge, PreStoreJournalLinesAreSkipped)
{
    // A journal written before runs were keyed by config: a sweep
    // header and `run` lines keyed by labels. Its lines are skipped,
    // so no record of it is ever reused (every run executes), and the
    // file takes new puts after them.
    TempDir dir;
    std::string path = dir.file("old.journal");
    {
        std::ofstream os(path, std::ios::binary);
        os << "{\"type\": \"sweep\", \"version\": 1, "
              "\"sweep_hash\": \"cafebabe00000001\"}\n"
           << encodeJournalRecord(sampleRecord("k1", false)) << "\n";
    }
    {
        RunJournal journal(path);
        ASSERT_TRUE(journal.ok());
        EXPECT_EQ(journal.skippedLines(), 2u);
        EXPECT_EQ(journal.size(), 0u);
        EXPECT_FALSE(journal.get("k1").has_value());
        journal.append(sampleRecord("k2", false));
    }
    RunStore loaded(path);
    EXPECT_EQ(loaded.skippedLines(), 2u);
    ASSERT_EQ(loaded.size(), 1u);
    EXPECT_TRUE(storedRecord(loaded, "k2").has_value());
}

// ---------------------------------------------------------------------
// The stored-run executor (runStored) and its store rule
// ---------------------------------------------------------------------

/** Whether a result carries the core's --hist distributions. */
bool
hasHistograms(const ExperimentResult &result)
{
    for (const auto &[name, value] : result.stats.values())
        if (name.rfind("core.issue_to_complete", 0) == 0)
            return true;
    return false;
}

SweepOptions
quietSweepOptions()
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    return opts;
}

TEST(RunStored, DegradedHistRunIsReturnedButNotStored)
{
    // A --hist run whose first attempt fails succeeds on its degraded
    // retry without its distributions. That is not the config its key
    // names, so the store must not answer the key with it: the next
    // call runs the config again, whole.
    TempDir dir;
    RunStore store(dir.file("store.jsonl"));
    ExperimentConfig config = smallConfig("go");
    config.scheme = VpScheme::Lvp;
    config.core.collectHist = true;

    FaultPlan plan;
    plan.faults[0] = FaultKind::Throw;
    SweepOptions faulty = quietSweepOptions();
    faulty.onAttemptStart = makeFaultHook(plan);
    std::vector<StoredRun> first = runStored({config}, &store, faulty);
    ASSERT_EQ(first.size(), 1u);
    const ExperimentResult &degraded = first[0].record.result;
    EXPECT_FALSE(degraded.failed);
    EXPECT_TRUE(degraded.degraded);
    EXPECT_EQ(degraded.retries, 1u);
    EXPECT_FALSE(hasHistograms(degraded));
    EXPECT_EQ(first[0].key, configKey(config));
    EXPECT_EQ(first[0].line, encodeJournalRecord(first[0].record));
    EXPECT_FALSE(store.get(first[0].key).has_value());
    EXPECT_EQ(store.size(), 0u);

    std::vector<StoredRun> second =
        runStored({config}, &store, quietSweepOptions());
    EXPECT_FALSE(second[0].cached);
    EXPECT_FALSE(second[0].record.result.degraded);
    EXPECT_TRUE(hasHistograms(second[0].record.result));
    EXPECT_EQ(store.get(second[0].key), second[0].line);
}

TEST(RunStored, RunFailingEveryAttemptIsReturnedFailedNotStored)
{
    TempDir dir;
    RunStore store(dir.file("store.jsonl"));
    FaultPlan plan;
    plan.faults[0] = FaultKind::Throw;
    plan.persistent = true;
    SweepOptions opts = quietSweepOptions();
    opts.onAttemptStart = makeFaultHook(plan);
    std::vector<StoredRun> runs =
        runStored({smallConfig("go")}, &store, opts);
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_TRUE(runs[0].record.result.failed);
    EXPECT_NE(runs[0].record.result.error.find("injected fault"),
              std::string::npos);
    EXPECT_FALSE(runs[0].cached);
    EXPECT_FALSE(store.get(runs[0].key).has_value());
    EXPECT_EQ(store.size(), 0u);
}

TEST(RunStored, StoredKeysRunNoAttemptAndRepeatedKeysRunOnce)
{
    TempDir dir;
    RunStore store(dir.file("store.jsonl"));
    ExperimentConfig a = smallConfig("go");
    ExperimentConfig b = smallConfig("mgrid");
    ExperimentConfig c = smallConfig("go");
    c.scheme = VpScheme::Lvp;
    std::vector<StoredRun> filled =
        runStored({a, b}, &store, quietSweepOptions());
    ASSERT_EQ(store.size(), 2u);

    std::atomic<unsigned> attempts{0};
    std::vector<std::string> recorded;
    std::size_t planned = 0, toRun = 0;
    SweepOptions opts = quietSweepOptions();
    opts.onAttemptStart = [&](const ExperimentConfig &config,
                              const RunContext &) {
        ++attempts;
        EXPECT_EQ(configKey(config), configKey(c));
    };
    std::vector<StoredRun> runs = runStored(
        {a, b, a, c, c}, &store, opts, nullptr,
        [&](const StoredRun &run) {
            // A run record is durable before anyone sees it.
            EXPECT_EQ(store.get(run.key), run.line);
            recorded.push_back(run.key);
        },
        [&](std::size_t distinct, std::size_t pending) {
            planned = distinct;
            toRun = pending;
            EXPECT_EQ(attempts.load(), 0u);
        });

    EXPECT_EQ(attempts.load(), 1u) << "only c runs, once";
    EXPECT_EQ(planned, 3u);
    EXPECT_EQ(toRun, 1u);
    EXPECT_EQ(recorded,
              (std::vector<std::string>{configKey(a), configKey(b),
                                        configKey(c)}));
    ASSERT_EQ(runs.size(), 5u);
    EXPECT_TRUE(runs[0].cached);
    EXPECT_TRUE(runs[1].cached);
    EXPECT_TRUE(runs[2].cached);
    EXPECT_FALSE(runs[3].cached);
    EXPECT_FALSE(runs[4].cached);
    EXPECT_EQ(runs[0].line, filled[0].line);
    EXPECT_EQ(runs[1].line, filled[1].line);
    EXPECT_EQ(runs[2].line, runs[0].line);
    EXPECT_EQ(runs[4].line, runs[3].line);
    EXPECT_EQ(runs[2].first, 0u);
    EXPECT_EQ(runs[4].first, 3u);
    EXPECT_EQ(runs[4].record.result.cycles, runs[3].record.result.cycles);
    // The labels come from the config alone.
    EXPECT_EQ(runs[3].record.figure, "");
    EXPECT_EQ(runs[3].record.variant, describeConfig(c));
    EXPECT_EQ(runs[3].record.workload, "go");
}

// ---------------------------------------------------------------------
// sweep_all kill-and-resume (subprocess tests on the real binary)
// ---------------------------------------------------------------------

pid_t
spawnSweepAll(const std::vector<std::string> &args,
              const std::string &cwd = "", const std::string &errPath = "")
{
    pid_t pid = fork();
    if (pid != 0)
        return pid;
    if (!cwd.empty() && chdir(cwd.c_str()) != 0)
        _exit(126);
    // Child: silence it (stderr to errPath when given) and exec the
    // real binary.
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
        dup2(devnull, 1);
        dup2(devnull, 2);
        close(devnull);
    }
    if (!errPath.empty()) {
        int err = open(errPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (err < 0)
            _exit(126);
        dup2(err, 2);
        close(err);
    }
    std::vector<char *> argv;
    static const char *bin = RVP_SWEEP_ALL_BIN;
    argv.push_back(const_cast<char *>(bin));
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);
    execv(bin, argv.data());
    _exit(127);
}

/** Blocking reap; exit status, or -signal when killed. */
int
waitExit(pid_t pid)
{
    int status = 0;
    if (waitpid(pid, &status, 0) != pid)
        return -9999;
    if (WIFEXITED(status))
        return WEXITSTATUS(status);
    if (WIFSIGNALED(status))
        return -WTERMSIG(status);
    return -9998;
}

/** Puts in the run store at path so far, counted from the text: a
 *  RunStore would heal the tail a live writer is still appending. */
std::size_t
countJournalRuns(const std::string &path)
{
    std::ifstream is(path);
    std::size_t count = 0;
    std::string line;
    while (std::getline(is, line))
        if (line.find("\"type\": \"put\"") != std::string::npos)
            ++count;
    return count;
}

/** A small (10-run) grid with deterministic, timing-free output. */
std::vector<std::string>
stableSweepArgs(const std::string &out)
{
    return {"--workloads", "go,mgrid", "--figures",        "fig05",
            "--insts",     "12000",    "--profile-insts",  "12000",
            "--jobs",      "2",        "--quiet",          "--stable-output",
            "--bench-out", "",         "--out",            out};
}

/** Start a sweep, SIGKILL it once >= targetRuns are journaled (or let
 *  it win the race and finish), then --resume to completion. */
void
killAndResume(const std::string &out, std::size_t targetRuns)
{
    std::string journal = out + ".journal";
    pid_t pid = spawnSweepAll(stableSweepArgs(out));
    ASSERT_GT(pid, 0);
    bool reaped = false;
    for (int spin = 0; spin < 150'000; ++spin) {   // <= ~5 min
        int status = 0;
        pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid) {
            reaped = true;   // finished before the kill: still valid
            break;
        }
        if (countJournalRuns(journal) >= targetRuns) {
            kill(pid, SIGKILL);
            break;
        }
        usleep(2'000);
    }
    if (!reaped) {
        kill(pid, SIGKILL);   // idempotent if already sent
        waitExit(pid);
    }

    std::vector<std::string> resume_args = stableSweepArgs(out);
    resume_args.push_back("--resume");
    EXPECT_EQ(waitExit(spawnSweepAll(resume_args)), 0);
}

TEST(SweepAllResume, KilledSweepResumesToByteIdenticalOutput)
{
    TempDir dir;
    std::string out = dir.file("results.json");

    // Reference: one uninterrupted sweep.
    ASSERT_EQ(waitExit(spawnSweepAll(stableSweepArgs(out))), 0);
    std::string reference = readFile(out);
    ASSERT_FALSE(reference.empty());
    // A fully successful sweep cleans up its journal.
    EXPECT_FALSE(std::filesystem::exists(out + ".journal"));

    std::filesystem::remove(out);
    killAndResume(out, 2);
    EXPECT_EQ(readFile(out), reference)
        << "resumed output must be byte-identical to the uninterrupted "
           "sweep";
    EXPECT_FALSE(std::filesystem::exists(out + ".journal"));
}

TEST(SweepAllResume, KillResumeSmokeLoopStaysByteIdentical)
{
    // S5: kill at five different points in the sweep's lifetime; every
    // resume must converge to the same bytes.
    TempDir dir;
    std::string out = dir.file("results.json");
    ASSERT_EQ(waitExit(spawnSweepAll(stableSweepArgs(out))), 0);
    std::string reference = readFile(out);
    ASSERT_FALSE(reference.empty());

    for (std::size_t target = 1; target <= 5; ++target) {
        std::filesystem::remove(out);
        killAndResume(out, target * 2);
        EXPECT_EQ(readFile(out), reference) << "kill point " << target;
        EXPECT_FALSE(std::filesystem::exists(out + ".journal"))
            << "kill point " << target;
    }
}

/** The stableSweepArgs grid at an --insts budget, as sweep_all
 *  expands it. */
std::vector<FigureRun>
stableGrid(std::uint64_t insts = 12'000)
{
    ExperimentConfig base;
    base.core.maxInsts = insts;
    base.profileInsts = 12'000;
    return expandFigures({"fig05"}, {"go", "mgrid"}, base);
}

/** Journal at path a success of IPC 0.125, which no real run
 *  produces, under the config key of every run of grid. */
void
forgeSucceededJournal(const std::string &path,
                      const std::vector<FigureRun> &grid)
{
    RunJournal journal(path);
    ASSERT_TRUE(journal.ok());
    for (const FigureRun &run : grid) {
        JournalRecord rec;
        rec.key = configKey(run.config);
        rec.figure = run.figure;
        rec.variant = run.variant;
        rec.workload = run.config.workload;
        rec.result.ipc = 0.125;
        journal.append(rec);
    }
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t at = 0; (at = text.find(needle, at)) != std::string::npos;
         at += needle.size())
        ++count;
    return count;
}

TEST(SweepAllResume, JournalFromAnotherInstsBudgetReusesNothing)
{
    // Records journaled at --insts 13000 carry other keys than this
    // 12000-instruction grid's, though their labels match: a resume
    // reuses none of them and runs every entry.
    TempDir dir;
    std::string out = dir.file("results.json");
    forgeSucceededJournal(out + ".journal", stableGrid(13'000));
    std::vector<std::string> args = stableSweepArgs(out);
    args.push_back("--resume");
    ASSERT_EQ(waitExit(spawnSweepAll(args)), 0);
    std::string report = readFile(out);
    EXPECT_EQ(countOccurrences(report, "\"ipc\": "), 10u) << report;
    EXPECT_EQ(countOccurrences(report, "\"ipc\": 0.125,"), 0u) << report;
    EXPECT_FALSE(std::filesystem::exists(out + ".journal"));
}

TEST(SweepAllResume, JournalFromAnotherModelReusesNothing)
{
    // The same keys, put by another build (another fingerprint, or
    // none, as before puts were stamped): every line is stale, so a
    // resume reuses nothing, says so, and runs every entry.
    TempDir dir;
    std::string out = dir.file("results.json");
    std::string journal = out + ".journal";
    forgeSucceededJournal(journal, stableGrid());
    std::string text = readFile(journal);
    const std::string stamp =
        "\"model\": \"" + std::string(modelFingerprint()) + "\", ";
    ASSERT_EQ(countOccurrences(text, stamp), 10u);
    std::size_t at = text.find(stamp);
    text.erase(at, stamp.size());   // one put with no model at all
    for (at = text.find(stamp); at != std::string::npos;
         at = text.find(stamp, at))
        text.replace(at, stamp.size(),
                     "\"model\": \"0000000000000000\", ");
    {
        std::ofstream os(journal, std::ios::binary | std::ios::trunc);
        os << text;
    }

    std::string err = dir.file("stderr.txt");
    std::vector<std::string> args = stableSweepArgs(out);
    args.push_back("--resume");
    ASSERT_EQ(waitExit(spawnSweepAll(args, "", err)), 0);
    std::string report = readFile(out);
    EXPECT_EQ(countOccurrences(report, "\"ipc\": "), 10u) << report;
    EXPECT_EQ(countOccurrences(report, "\"ipc\": 0.125,"), 0u) << report;
    std::string log = readFile(err);
    EXPECT_NE(log.find("10 stale line(s) of another model"),
              std::string::npos)
        << log;
    EXPECT_NE(log.find("10 to execute, 0 resumed"), std::string::npos)
        << log;
}

TEST(SweepAllResume, ResumeWithNoJournalIsRefused)
{
    // --no-journal turns off the file --resume reads. The pair is a
    // usage error: it must not re-run the whole grid and leave the
    // journal it ignored behind for a later --resume.
    TempDir dir;
    std::string out = dir.file("results.json");
    std::string journal_path = out + ".journal";
    {
        JournalRecord rec;
        rec.key = "0123456789abcdef";
        rec.figure = "fig05";
        rec.variant = "no_predict";
        rec.workload = "go";
        RunJournal journal(journal_path);
        journal.append(rec);
    }
    std::string journal_before = readFile(journal_path);
    std::vector<std::string> args = stableSweepArgs(out);
    args.push_back("--resume");
    args.push_back("--no-journal");
    EXPECT_EQ(waitExit(spawnSweepAll(args)), 1);
    EXPECT_FALSE(std::filesystem::exists(out));
    EXPECT_EQ(readFile(journal_path), journal_before);
}

/** The report row (one line) of figure/variant in report. */
std::string
reportRow(const std::string &report, const std::string &figure,
          const std::string &variant)
{
    std::size_t at = report.find("{\"figure\": \"" + figure +
                                 "\", \"variant\": \"" + variant + "\"");
    if (at == std::string::npos)
        return "";
    return report.substr(at, report.find('\n', at) - at);
}

TEST(Coordinator, ForgedFig03RecordsFillFig05SharedRows)
{
    // fig05's no_predict and lvp runs have fig03's configs, so a
    // journal holding only fig03's records, under their config keys,
    // fills exactly those two fig05 rows on --resume; the other three
    // runs execute.
    TempDir dir;
    std::string out = dir.file("results.json");
    ExperimentConfig base;
    base.core.maxInsts = 12'000;
    base.profileInsts = 12'000;
    forgeSucceededJournal(out + ".journal",
                          expandFigures({"fig03"}, {"go"}, base));
    std::vector<std::string> args = {
        "--workloads", "go",    "--figures",       "fig05",
        "--insts",     "12000", "--profile-insts", "12000",
        "--jobs",      "1",     "--quiet",         "--stable-output",
        "--bench-out", "",      "--out",           out,
        "--resume"};
    ASSERT_EQ(waitExit(spawnSweepAll(args)), 0);
    std::string report = readFile(out);
    EXPECT_EQ(countOccurrences(report, "\"ipc\": 0.125,"), 2u) << report;
    for (const char *variant :
         {"no_predict", "lvp", "drvp", "drvp_dead", "drvp_dead_lv"}) {
        std::string row = reportRow(report, "fig05", variant);
        ASSERT_FALSE(row.empty()) << variant;
        bool forged = std::string(variant) == "no_predict" ||
                      std::string(variant) == "lvp";
        EXPECT_EQ(row.find("\"ipc\": 0.125,") != std::string::npos, forged)
            << row;
    }
}

TEST(Coordinator, EmptyUnitListIsTrivialSuccess)
{
    // A resume whose journal already holds every run has nothing left
    // to execute: runSweep gets an empty grid, the report comes from
    // the journal alone, and the spent journal is removed.
    TempDir dir;
    std::string out = dir.file("results.json");
    forgeSucceededJournal(out + ".journal", stableGrid());
    std::vector<std::string> args = stableSweepArgs(out);
    args.push_back("--resume");
    EXPECT_EQ(waitExit(spawnSweepAll(args)), 0);
    std::string report = readFile(out);
    EXPECT_EQ(countOccurrences(report, "\"ipc\": "), 10u) << report;
    EXPECT_EQ(countOccurrences(report, "\"ipc\": 0.125,"), 10u) << report;
    EXPECT_FALSE(std::filesystem::exists(out + ".journal"));
}

TEST(SweepAllBenchRow, CarriesJobsThroughputAndPeakRss)
{
    TempDir dir;
    std::string out = dir.file("results.json");
    std::string bench = dir.file("bench.json");
    std::vector<std::string> args{
        "--workloads", "go",    "--figures",       "fig05",
        "--insts",     "12000", "--profile-insts", "12000",
        "--jobs",      "2",     "--quiet",         "--out",
        out,           "--bench-out", bench};
    ASSERT_EQ(waitExit(spawnSweepAll(args)), 0);

    // One appended row: a single line of JSON.
    std::string row = readFile(bench);
    ASSERT_FALSE(row.empty());
    ASSERT_EQ(row.find('\n'), row.size() - 1) << row;
    row.pop_back();
    JsonObject obj = parseJsonLine(row);
    EXPECT_EQ(jsonGet<unsigned>(obj, "jobs"), 2u) << row;
    EXPECT_GT(jsonGet<double>(obj, "wall_kips"), 0.0) << row;
    EXPECT_GT(jsonGet<double>(obj, "aggregate_kips"), 0.0) << row;
    EXPECT_GT(jsonGet<double>(obj, "peak_rss_mb"), 0.0) << row;
    EXPECT_EQ(obj.count("workers"), 0u) << row;
}

TEST(SweepAllBenchRow, SharedConfigsRunOnceAndTheHashIgnoresFigureOrder)
{
    // fig03 and fig05 share their no_predict and lvp configs: 11 rows,
    // 9 distinct runs, and each shared row equals its twin. The row's
    // config_hash names the grid's configs, not the option text.
    TempDir dir;
    std::string bench = dir.file("bench.json");
    auto sweep = [&](const std::string &figures, const std::string &out) {
        std::vector<std::string> args{
            "--workloads", "go",    "--figures",       figures,
            "--insts",     "12000", "--profile-insts", "12000",
            "--jobs",      "2",     "--quiet",         "--stable-output",
            "--out",       out,     "--bench-out",     bench};
        EXPECT_EQ(waitExit(spawnSweepAll(args)), 0);
        return readFile(out);
    };
    std::string report = sweep("fig03,fig05", dir.file("a.json"));
    EXPECT_EQ(sweep("fig05,fig03", dir.file("b.json")), report);

    std::istringstream rows(readFile(bench));
    std::vector<JsonObject> objs;
    for (std::string line; std::getline(rows, line);)
        objs.push_back(parseJsonLine(line));
    ASSERT_EQ(objs.size(), 2u);
    EXPECT_EQ(jsonGet<unsigned>(objs[0], "runs"), 11u);
    EXPECT_EQ(jsonGet<unsigned>(objs[0], "distinct_runs"), 9u);
    EXPECT_EQ(jsonGet<std::string>(objs[0], "config_hash"),
              jsonGet<std::string>(objs[1], "config_hash"));

    EXPECT_EQ(countOccurrences(report, "\"figure\": "), 11u) << report;
    for (const char *variant : {"no_predict", "lvp"}) {
        std::string a = reportRow(report, "fig03", variant);
        std::string b = reportRow(report, "fig05", variant);
        ASSERT_FALSE(a.empty()) << variant;
        EXPECT_EQ(a.substr(a.find("\"workload\"")),
                  b.substr(b.find("\"workload\"")));
    }
}

TEST(SweepAllBenchRow, NoRowUnlessAsked)
{
    // Run from a directory of its own without --bench-out: a sweep
    // started from the repository root must not append to the
    // committed trail there.
    TempDir dir;
    std::string out = dir.file("results.json");
    std::vector<std::string> args{
        "--workloads", "go",    "--figures",       "fig05",
        "--insts",     "12000", "--profile-insts", "12000",
        "--jobs",      "2",     "--quiet",         "--out",
        out};
    ASSERT_EQ(waitExit(spawnSweepAll(args, dir.path)), 0);
    EXPECT_TRUE(std::filesystem::exists(out));
    EXPECT_FALSE(std::filesystem::exists(dir.file("BENCH_perf.json")));
}

TEST(SweepAllFailures, DeadlineFailuresExitNonzeroAndResumeRecovers)
{
    TempDir dir;
    std::string out = dir.file("results.json");

    // An impossible per-run deadline: every run fails (after its
    // degraded retry), the exit code is nonzero, the failure rows are
    // reported, and the journal survives for --resume.
    std::vector<std::string> failing = {
        "--workloads", "go",    "--figures",       "fig05",
        "--insts",     "12000", "--profile-insts", "12000",
        "--jobs",      "2",     "--quiet",         "--stable-output",
        "--bench-out", "",      "--out",           out,
        "--run-deadline", "0.000001"};
    EXPECT_EQ(waitExit(spawnSweepAll(failing)), 2);
    std::string report = readFile(out);
    EXPECT_NE(report.find("\"failed\": true"), std::string::npos);
    EXPECT_NE(report.find("deadline exceeded"), std::string::npos);
    EXPECT_NE(report.find("\"retries\": 1"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(out + ".journal"));
    {
        // No failure is stored: nothing answers a failed run's key, so
        // --resume runs it again.
        ExperimentConfig base;
        base.core.maxInsts = 12'000;
        base.profileInsts = 12'000;
        RunStore journal(out + ".journal");
        EXPECT_EQ(journal.size(), 0u);
        for (const FigureRun &run : expandFigures({"fig05"}, {"go"}, base))
            EXPECT_FALSE(journal.get(configKey(run.config)).has_value())
                << run.variant;
    }

    // --keep-going turns the same failures into exit 0.
    std::vector<std::string> keep_going = failing;
    keep_going.push_back("--keep-going");
    EXPECT_EQ(waitExit(spawnSweepAll(keep_going)), 0);

    // Resuming without the deadline re-runs exactly the failed runs
    // and completes the sweep (journal cleaned up on full success).
    std::vector<std::string> resume = {
        "--workloads", "go",    "--figures",       "fig05",
        "--insts",     "12000", "--profile-insts", "12000",
        "--jobs",      "2",     "--quiet",         "--stable-output",
        "--bench-out", "",      "--out",           out,
        "--resume"};
    EXPECT_EQ(waitExit(spawnSweepAll(resume)), 0);
    std::string recovered = readFile(out);
    EXPECT_EQ(recovered.find("\"failed\": true"), std::string::npos);
    EXPECT_FALSE(std::filesystem::exists(out + ".journal"));
}

TEST(SweepAllFailures, DegradedRunKeepsItsFirstErrorInReportAndSummary)
{
    // A run whose first attempt failed and whose degraded retry
    // succeeded: produced in-process through the fault hook, forged
    // into the journal under its config key with RunJournal::append
    // (no production path stores a degraded run any more: runStored
    // puts only first-attempt successes), and picked up by --resume.
    // The report row must carry the first attempt's error, and the
    // end-of-sweep summary must name the run even under --quiet.
    TempDir dir;
    std::string out = dir.file("results.json");
    ExperimentConfig base;
    base.core.maxInsts = 12'000;
    base.profileInsts = 12'000;
    std::vector<FigureRun> grid = expandFigures({"fig05"}, {"go"}, base);
    auto lvp = std::find_if(grid.begin(), grid.end(),
                            [](const FigureRun &e) {
                                return e.variant == "lvp";
                            });
    ASSERT_NE(lvp, grid.end());

    FaultPlan plan;
    plan.faults[0] = FaultKind::Throw;
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.onAttemptStart = makeFaultHook(plan);
    std::vector<ExperimentResult> retried = runSweep({lvp->config}, opts);
    ASSERT_EQ(retried[0].retries, 1u);
    ASSERT_FALSE(retried[0].failed);
    ASSERT_EQ(retried[0].error, "injected fault (run 0)");
    {
        RunJournal journal(out + ".journal");
        JournalRecord rec;
        rec.key = configKey(lvp->config);
        rec.figure = lvp->figure;
        rec.variant = lvp->variant;
        rec.workload = lvp->config.workload;
        rec.result = retried[0];
        journal.append(rec);
        // The record survives its codec byte for byte.
        std::optional<JournalRecord> back =
            parseJournalRunLine(encodeJournalRecord(rec));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(encodeJournalRecord(*back), encodeJournalRecord(rec));
    }

    std::string err = dir.file("stderr.txt");
    std::vector<std::string> args = {
        "--workloads", "go",    "--figures",       "fig05",
        "--insts",     "12000", "--profile-insts", "12000",
        "--jobs",      "1",     "--quiet",         "--stable-output",
        "--bench-out", "",      "--out",           out,
        "--resume"};
    ASSERT_EQ(waitExit(spawnSweepAll(args, "", err)), 0);
    std::string report = readFile(out);
    EXPECT_EQ(countOccurrences(report, "\"error\": "), 1u) << report;
    EXPECT_NE(report.find("\"variant\": \"lvp\""), std::string::npos);
    std::size_t row = report.find("\"variant\": \"lvp\"");
    std::string line = report.substr(row, report.find('\n', row) - row);
    EXPECT_NE(line.find("\"retries\": 1, \"degraded\": true"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"error\": \"injected fault (run 0)\""),
              std::string::npos)
        << line;
    std::string summary = readFile(err);
    EXPECT_NE(summary.find("1 of " + std::to_string(grid.size()) +
                           " runs succeeded only on a degraded retry"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("fig05/lvp/go"), std::string::npos) << summary;
    EXPECT_NE(summary.find("injected fault (run 0)"), std::string::npos)
        << summary;
}

} // namespace
} // namespace rvp
