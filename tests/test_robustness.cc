/**
 * @file
 * Robustness tests: watchdog deadlines, retry-with-degradation, stream
 * integrity verification, the crash-safe run journal, and sweep_all's
 * kill-and-resume behaviour (exercised on the real binary via
 * fork/exec/SIGKILL). Every fault class the injector can produce
 * (sim/faultinject.hh) must end in either a recorded failure or a
 * degraded-but-bit-exact result — never a crash, a hang, or a silently
 * wrong statistic.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.hh"
#include "sim/faultinject.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stream/stream.hh"
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
    opts.runFn = makeFaultInjectingRunFn(plan, log);
    std::vector<ExperimentResult> results = runSweep(configs, opts);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(log->fired.load(), 1u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed) << i;
        EXPECT_EQ(results[i].retries, i == 1 ? 1u : 0u) << i;
        EXPECT_EQ(results[i].degraded, i == 1) << i;
    }
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
    opts.runFn = makeFaultInjectingRunFn(plan, log);
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

    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.runDeadline = 0.25;
    // Prewarm compile/profile/stream into the sweep's cache with no
    // deadline before the first timed attempt: run 0 faults at entry
    // and never builds anything, so without this the unfaulted run 1
    // would pay the whole toolchain under the tight watchdog and fail
    // spuriously on slow or sanitizer-instrumented hosts. The timed
    // attempts then exercise exactly what the test is about: the
    // watchdog catching the injected sleep, not build latency.
    auto inject = makeFaultInjectingRunFn(plan, log);
    bool prewarmed = false;   // jobs == 1, so a plain bool is safe
    opts.runFn = [&inject, &prewarmed](const ExperimentConfig &config,
                                       WorkloadCache &cache,
                                       const RunContext &context) {
        if (!prewarmed) {
            prewarmed = true;
            RunContext warm;
            warm.cache = &cache;
            runExperiment(config, warm);
        }
        return inject(config, cache, context);
    };
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
    // attempt only (jobs=1: the hook is process-global). The capture
    // throws bad_alloc, the cache halves its budget and pins the key
    // live, and the run itself completes via live emulation without
    // even needing the retry.
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
    opts.runFn = makeFaultInjectingRunFn(plan, log);
    SweepReport report;
    std::vector<ExperimentResult> results =
        runSweep(configs, opts, &report);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(log->fired.load(), 1u);
    EXPECT_EQ(report.cache.streamCaptureOoms, 1u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_FALSE(results[i].failed) << i;
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
    // Run 0 captures the stream; the injector corrupts it before run 1
    // attaches. Run 1 must detect the corruption at attach, drop the
    // entry, count it, and produce bit-exact results via live
    // emulation — with no failure and no retry. Every lane in turn.
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

        SweepOptions opts;
        opts.jobs = 1;   // deterministic capture-then-corrupt ordering
        opts.progress = false;
        opts.runFn = makeFaultInjectingRunFn(plan, log);
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
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("mgrid"));
    configs.push_back(smallConfig("mgrid"));
    ExperimentResult live = runExperiment(configs[1]);

    for (unsigned lane : kStreamLanes) {
        FaultPlan plan;
        plan.faults[1] = FaultKind::TruncateStream;
        plan.corruptLane = lane;

        SweepOptions opts;
        opts.jobs = 1;
        opts.progress = false;
        opts.runFn = makeFaultInjectingRunFn(plan, nullptr);
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
    RunJournal::Loaded loaded = RunJournal::load(path);
    EXPECT_EQ(loaded.sweepHash, "cafebabe00000001");
    EXPECT_EQ(loaded.skippedLines, 0u);
    ASSERT_EQ(loaded.runs.size(), 2u);

    JournalRecord want = sampleRecord("k2", true);
    const JournalRecord &got = loaded.runs.at("k2");
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
        journal.appendSweepHeader("feedface00000001");
        journal.append(sampleRecord("k1", false));
        journal.append(sampleRecord("k2", false));
    }
    // Simulate a SIGKILL mid-append: chop the file mid-way through the
    // final record.
    std::string contents = readFile(path);
    ASSERT_FALSE(contents.empty());
    std::string torn = contents.substr(0, contents.size() - 40);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << torn;
    }
    RunJournal::Loaded loaded = RunJournal::load(path);
    EXPECT_EQ(loaded.sweepHash, "feedface00000001");
    EXPECT_EQ(loaded.skippedLines, 1u);
    ASSERT_EQ(loaded.runs.size(), 1u);
    EXPECT_EQ(loaded.runs.count("k1"), 1u);
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
    RunJournal::Loaded loaded = RunJournal::load(path);
    ASSERT_EQ(loaded.runs.size(), 1u);
    EXPECT_FALSE(loaded.runs.at("k1").result.failed);
}

TEST(Journal, MissingFileLoadsEmpty)
{
    RunJournal::Loaded loaded =
        RunJournal::load("/nonexistent-dir-zzz/nope.journal");
    EXPECT_TRUE(loaded.sweepHash.empty());
    EXPECT_TRUE(loaded.runs.empty());
    EXPECT_EQ(loaded.skippedLines, 0u);
}

// ---------------------------------------------------------------------
// sweep_all kill-and-resume (subprocess tests on the real binary)
// ---------------------------------------------------------------------

pid_t
spawnSweepAll(const std::vector<std::string> &args)
{
    pid_t pid = fork();
    if (pid != 0)
        return pid;
    // Child: silence it and exec the real binary.
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
        dup2(devnull, 1);
        dup2(devnull, 2);
        close(devnull);
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

std::size_t
countJournalRuns(const std::string &path)
{
    std::ifstream is(path);
    std::size_t count = 0;
    std::string line;
    while (std::getline(is, line))
        if (line.find("\"type\": \"run\"") != std::string::npos)
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

TEST(SweepAllResume, MismatchedJournalIsRefused)
{
    TempDir dir;
    std::string out = dir.file("results.json");
    // Forge a journal from a "different" sweep configuration.
    {
        RunJournal journal(out + ".journal");
        journal.appendSweepHeader("0123456789abcdef");
    }
    std::vector<std::string> args = stableSweepArgs(out);
    args.push_back("--resume");
    EXPECT_NE(waitExit(spawnSweepAll(args)), 0);
    EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(SweepAllFailures, DeadlineFailuresExitNonzeroAndResumeRecovers)
{
    TempDir dir;
    std::string out = dir.file("results.json");

    // An impossible per-run deadline: every run fails (after its
    // degraded retry), the exit code is nonzero, the failure rows are
    // recorded, and the journal survives for --resume.
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

} // namespace
} // namespace rvp
