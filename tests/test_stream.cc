/**
 * @file
 * Tests of committed-stream capture & replay (stream/stream.hh).
 * The contract under test is strong: a replayed stream must be
 * indistinguishable from live emulation instruction by instruction
 * (DynInst fields and the predictor-visible pre-state) and experiment
 * by experiment (every stat bit-for-bit, histogram distributions and
 * trace bytes included), under cache eviction, truncation rebuilds,
 * and over-budget fallback to live execution. Also the fetch-path
 * regression for the I-cache line size the stream work flushed out.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "stream/batch.hh"
#include "stream/stream.hh"

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

/** The instruction bound runExperiment captures at (fetch runahead). */
std::uint64_t
captureBound(const ExperimentConfig &config)
{
    return config.core.maxInsts + config.core.robEntries +
           config.core.commitWidth;
}

bool
sameInst(const DynInst &a, const DynInst &b)
{
    return a.seq == b.seq && a.staticIndex == b.staticIndex &&
           a.pc == b.pc && a.op == b.op && a.srcA == b.srcA &&
           a.srcB == b.srcB && a.dest == b.dest &&
           a.effAddr == b.effAddr && a.isTaken == b.isTaken &&
           a.nextPc == b.nextPc && a.oldDestValue == b.oldDestValue &&
           a.newValue == b.newValue;
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
    ASSERT_EQ(a.stats.values().size(), b.stats.values().size()) << label;
    for (const auto &[name, value] : a.stats.values())
        EXPECT_DOUBLE_EQ(value, b.stats.get(name))
            << label << ": " << name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is.good()) << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(Stream, ReplayMatchesLiveInstructionByInstruction)
{
    // go for branch-heavy code; li also calls and returns through
    // JSR/RET, whose successors replay reads from the pre-state.
    for (const char *workload : {"go", "li"}) {
        CompiledWorkload c = compileWorkload(workload, InputSet::Ref);
        auto stream = CapturedStream::capture(c.low.program, 20'000);
        ASSERT_TRUE(stream);
        ASSERT_EQ(stream->instCount(), 20'000u);

        LiveEmulatorSource live(c.low.program);
        StreamCursor replay(stream);
        DynInst a, b;
        std::uint64_t indirect = 0;
        for (std::uint64_t i = 0; i < stream->instCount(); ++i) {
            ASSERT_TRUE(live.step(a)) << workload << " " << i;
            ASSERT_TRUE(replay.step(b)) << workload << " " << i;
            ASSERT_TRUE(sameInst(a, b)) << workload << " inst " << i
                                        << " pc " << a.pc << " vs "
                                        << b.pc;
            // The predictor-visible pre-state, every register.
            ASSERT_TRUE(live.preState().regs == replay.preState().regs)
                << workload << " pre-state diverged at inst " << i;
            indirect += a.op == Opcode::JSR || a.op == Opcode::RET;
        }
        if (std::string(workload) == "li") {
            EXPECT_GT(indirect, 0u);
        }
    }
}

TEST(Stream, TwoCursorsOverOneStreamAreIndependent)
{
    CompiledWorkload c = compileWorkload("mgrid", InputSet::Ref);
    auto stream = CapturedStream::capture(c.low.program, 5'000);
    ASSERT_TRUE(stream);

    // Interleave a second cursor mid-way through the first: shared
    // immutable data, private cursor state.
    StreamCursor x(stream), y(stream);
    DynInst dx, dy;
    for (int i = 0; i < 1'000; ++i)
        ASSERT_TRUE(x.step(dx));
    for (int i = 0; i < 1'000; ++i) {
        ASSERT_TRUE(y.step(dy));
        ASSERT_EQ(dy.seq, static_cast<std::uint64_t>(i));
    }
    ASSERT_TRUE(x.step(dx));
    EXPECT_EQ(dx.seq, 1'000u);
}

TEST(Stream, CompleteStreamEndsWhereTheEmulatorHalts)
{
    // A tiny program that halts well inside the bound: the capture is
    // complete, covers() any count, and the cursor reports the end.
    Program prog;
    StaticInst add;
    add.op = Opcode::ADDQ;
    add.rc = 1;
    add.ra = 1;
    add.rb = zeroReg;
    prog.insts.push_back(add);
    StaticInst halt;
    halt.op = Opcode::HALT;
    prog.insts.push_back(halt);

    auto stream = CapturedStream::capture(prog, 1'000);
    ASSERT_TRUE(stream);
    EXPECT_TRUE(stream->complete());
    EXPECT_TRUE(stream->covers(1'000'000));
    StreamCursor cursor(stream);
    DynInst di;
    std::uint64_t n = 0;
    while (cursor.step(di))
        ++n;
    EXPECT_EQ(n, stream->instCount());
    EXPECT_FALSE(cursor.step(di));   // stays exhausted, no panic
}

struct Variant
{
    const char *name;
    std::function<void(ExperimentConfig &)> apply;
};

/** Every binary-shaping path: baseline, LVP, static RVP's marked
 *  binary, dynamic RVP with assists, Figure-7 re-allocation. */
std::vector<Variant>
binaryShapingVariants()
{
    return {
        {"none", [](ExperimentConfig &) {}},
        {"lvp",
         [](ExperimentConfig &c) { c.scheme = VpScheme::Lvp; }},
        {"srvp",
         [](ExperimentConfig &c) {
             c.scheme = VpScheme::StaticRvp;
             c.assist = AssistLevel::Dead;
         }},
        {"drvp",
         [](ExperimentConfig &c) {
             c.scheme = VpScheme::DynamicRvp;
             c.assist = AssistLevel::DeadLv;
             c.loadsOnly = false;
         }},
        {"realloc",
         [](ExperimentConfig &c) {
             c.scheme = VpScheme::DynamicRvp;
             c.realisticRealloc = true;
             c.loadsOnly = false;
         }},
    };
}

/**
 * The tentpole property: for a grid covering every binary-shaping
 * path, a replayed sweep must emit every stat bit-identical to live
 * emulation — including the --hist histogram distributions and the
 * sampled pipeline trace bytes.
 */
TEST(Stream, ReplayedSweepIsBitIdenticalToLiveIncludingHistAndTrace)
{
    std::vector<Variant> variants = binaryShapingVariants();

    const std::string dir = ::testing::TempDir();
    std::vector<ExperimentConfig> live_cfgs, replay_cfgs;
    std::vector<std::string> live_traces, replay_traces, labels;
    for (const char *workload : {"go", "mgrid"}) {
        for (const Variant &v : variants) {
            ExperimentConfig config = smallConfig(workload);
            config.core.collectHist = true;
            config.traceSample = 32;
            v.apply(config);
            std::string label =
                std::string(workload) + "-" + v.name;
            labels.push_back(label);

            config.traceOut = dir + "live-" + label + ".trace.jsonl";
            live_traces.push_back(config.traceOut);
            live_cfgs.push_back(config);

            config.traceOut = dir + "replay-" + label + ".trace.jsonl";
            replay_traces.push_back(config.traceOut);
            replay_cfgs.push_back(config);
        }
    }

    SweepOptions live_opts;
    live_opts.jobs = 1;
    live_opts.progress = false;
    live_opts.streamCapture = false;
    SweepOptions replay_opts;
    replay_opts.jobs = 1;
    replay_opts.progress = false;
    SweepReport live_report, replay_report;
    std::vector<ExperimentResult> live =
        runSweep(live_cfgs, live_opts, &live_report);
    std::vector<ExperimentResult> replay =
        runSweep(replay_cfgs, replay_opts, &replay_report);

    // The live sweep must really have run live, and the replay sweep
    // must really have replayed (first run per binary captures, the
    // rest hit).
    EXPECT_EQ(live_report.cache.streamHits +
                  live_report.cache.streamMisses,
              0u);
    EXPECT_GT(replay_report.cache.streamHits, 0u);
    EXPECT_GT(replay_report.cache.streamMisses, 0u);

    ASSERT_EQ(live.size(), replay.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
        ASSERT_FALSE(live[i].failed) << labels[i] << ": "
                                     << live[i].error;
        ASSERT_FALSE(replay[i].failed) << labels[i] << ": "
                                       << replay[i].error;
        expectIdentical(live[i], replay[i], labels[i]);
        EXPECT_EQ(readFile(live_traces[i]), readFile(replay_traces[i]))
            << labels[i] << ": trace bytes diverged";
    }
}

/**
 * The batched-replay tentpole property: a --batch-replay sweep (one
 * decode pass driving every config sharing a stream) must be
 * bit-identical to the solo-replay sweep over the same full grid —
 * stats, histograms, and trace bytes — while actually batching.
 */
TEST(Stream, BatchedSweepIsBitIdenticalToSoloIncludingHistAndTrace)
{
    std::vector<Variant> variants = binaryShapingVariants();

    const std::string dir = ::testing::TempDir();
    std::vector<ExperimentConfig> solo_cfgs, batch_cfgs;
    std::vector<std::string> solo_traces, batch_traces, labels;
    for (const char *workload : {"go", "mgrid"}) {
        for (const Variant &v : variants) {
            ExperimentConfig config = smallConfig(workload);
            config.core.collectHist = true;
            config.traceSample = 32;
            v.apply(config);
            std::string label = std::string(workload) + "-" + v.name;
            labels.push_back(label);

            config.traceOut = dir + "solo-" + label + ".trace.jsonl";
            solo_traces.push_back(config.traceOut);
            solo_cfgs.push_back(config);

            config.traceOut = dir + "batch-" + label + ".trace.jsonl";
            batch_traces.push_back(config.traceOut);
            batch_cfgs.push_back(config);
        }
    }

    SweepOptions solo_opts;
    solo_opts.jobs = 1;
    solo_opts.progress = false;
    solo_opts.batchReplay = false;
    SweepOptions batch_opts;
    batch_opts.jobs = 1;
    batch_opts.progress = false;
    SweepReport solo_report, batch_report;
    std::vector<ExperimentResult> solo =
        runSweep(solo_cfgs, solo_opts, &solo_report);
    std::vector<ExperimentResult> batched =
        runSweep(batch_cfgs, batch_opts, &batch_report);

    // The solo sweep must not have batched, and the batched sweep
    // must really have grouped runs (the grid has several configs per
    // binary). The cache hit/miss counters must agree between the two
    // modes: batching makes one lookup per member, like solo runs do.
    EXPECT_EQ(solo_report.batchGroups, 0u);
    EXPECT_EQ(solo_report.batchedRuns, 0u);
    EXPECT_GT(batch_report.batchGroups, 0u);
    EXPECT_GT(batch_report.batchedRuns, 0u);
    EXPECT_EQ(batch_report.batchFallouts, 0u);
    EXPECT_EQ(batch_report.cache.streamHits,
              solo_report.cache.streamHits);
    EXPECT_EQ(batch_report.cache.streamMisses,
              solo_report.cache.streamMisses);

    ASSERT_EQ(solo.size(), batched.size());
    for (std::size_t i = 0; i < solo.size(); ++i) {
        ASSERT_FALSE(solo[i].failed) << labels[i] << ": "
                                     << solo[i].error;
        ASSERT_FALSE(batched[i].failed) << labels[i] << ": "
                                        << batched[i].error;
        expectIdentical(solo[i], batched[i], labels[i]);
        EXPECT_EQ(readFile(solo_traces[i]), readFile(batch_traces[i]))
            << labels[i] << ": trace bytes diverged";
    }
}

TEST(Stream, BatchedConsumersMatchCursorsAtDifferentRates)
{
    // Two consumers of one BatchedStreamRun advancing at different
    // rates must each see the exact DynInst sequence and pre-state an
    // independent StreamCursor sees, across many ring wrap-arounds
    // (small ring, so the laggard pins the decode frontier). The
    // program halts inside the bound so the capture is complete and
    // both consumers can run to the clean end-of-stream.
    Program prog;
    StaticInst init;
    init.op = Opcode::LDA;
    init.rc = 1;
    init.ra = zeroReg;
    init.useImm = true;
    init.imm = 1'500;
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

    auto stream = CapturedStream::capture(prog, 6'000);
    ASSERT_TRUE(stream);
    ASSERT_TRUE(stream->complete());
    BatchedStreamRun batch(stream, 64);
    BatchedStreamRun::Consumer *fast = batch.addConsumer();
    BatchedStreamRun::Consumer *slow = batch.addConsumer();
    StreamCursor cf(stream), cs(stream);

    DynInst a, b;
    bool fast_done = false, slow_done = false;
    auto stepPair = [&](BatchedStreamRun::Consumer *cons,
                        StreamCursor &cur, bool &done) {
        bool ok = cons->step(a);
        ASSERT_EQ(ok, cur.step(b));
        if (!ok) {
            done = true;
            return;
        }
        ASSERT_TRUE(sameInst(a, b))
            << "inst " << a.seq << " pc " << a.pc << " vs " << b.pc;
        ASSERT_TRUE(cons->preState().regs == cur.preState().regs)
            << "pre-state diverged at inst " << a.seq;
    };
    while (!fast_done || !slow_done) {
        batch.refill();
        for (int k = 0; k < 4 && !fast_done; ++k) {
            // Honour the driver burst contract: never step into
            // undecoded territory while decoding is still under way.
            if (!batch.decodeDone() &&
                fast->position() >= batch.decodedCount())
                break;
            stepPair(fast, cf, fast_done);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        if (!slow_done) {
            stepPair(slow, cs, slow_done);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
    EXPECT_EQ(fast->position(), stream->instCount());
    EXPECT_EQ(slow->position(), stream->instCount());
    EXPECT_GT(batch.refillCalls(), 1u);
}

TEST(Stream, BatchMemberFaultFallsOutAndOthersFinishBitExact)
{
    // Three configs share one stream key (timing-only knobs fold onto
    // one binary), so they form one batch. Member 1 throws at its
    // attempt-0 preparation: it must fall out, retry solo degraded,
    // and succeed — while the other members finish batched and every
    // result stays bit-exact against the standalone runner.
    std::vector<ExperimentConfig> configs;
    configs.push_back(smallConfig("go"));
    configs.push_back(smallConfig("go"));
    configs[1].scheme = VpScheme::Lvp;
    configs.push_back(smallConfig("go"));
    configs[2].scheme = VpScheme::DynamicRvp;
    configs[2].assist = AssistLevel::DeadLv;
    configs[2].loadsOnly = false;

    std::atomic<unsigned> fired{0};
    SweepOptions opts;
    opts.jobs = 1;
    opts.progress = false;
    opts.retryBackoff = 0.0;
    opts.onAttemptStart = [&](const ExperimentConfig &,
                              const RunContext &context) {
        if (context.runIndex == 1 && context.attempt == 0) {
            ++fired;
            throw std::runtime_error("injected member fault");
        }
    };
    SweepReport report;
    std::vector<ExperimentResult> results =
        runSweep(configs, opts, &report);

    EXPECT_EQ(fired.load(), 1u);
    EXPECT_EQ(report.batchGroups, 1u);
    EXPECT_EQ(report.batchedRuns, 2u);
    EXPECT_EQ(report.batchFallouts, 1u);
    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_FALSE(results[i].failed) << i << ": " << results[i].error;
        EXPECT_EQ(results[i].retries, i == 1 ? 1u : 0u) << i;
        EXPECT_EQ(results[i].degraded, i == 1) << i;
        // No tracing/hist in these configs, so the degraded retry's
        // stats are the full stats: everything must be bit-exact.
        expectIdentical(results[i], runExperiment(configs[i]),
                        "batch fault run " + std::to_string(i));
    }
}

TEST(Stream, EvictionMidSweepKeepsEveryResultIdentical)
{
    // Size the budget so exactly one of the two workloads' streams
    // fits: an alternating single-threaded sweep then evicts on every
    // build, and none of that may show in the results.
    ExperimentConfig probe = smallConfig("go");
    std::uint64_t bound = captureBound(probe);
    auto sa = CapturedStream::capture(
        compileWorkload("go", InputSet::Ref).low.program, bound);
    auto sb = CapturedStream::capture(
        compileWorkload("mgrid", InputSet::Ref).low.program, bound);
    ASSERT_TRUE(sa);
    ASSERT_TRUE(sb);
    std::uint64_t budget =
        std::max(sa->encodedBytes(), sb->encodedBytes()) + 1'024;
    ASSERT_LT(budget, sa->encodedBytes() + sb->encodedBytes());

    std::vector<ExperimentConfig> configs;
    for (int i = 0; i < 6; ++i)
        configs.push_back(smallConfig(i % 2 ? "mgrid" : "go"));

    SweepOptions tight;
    tight.jobs = 1;
    tight.progress = false;
    tight.streamCacheBytes = budget;
    SweepOptions live_opts;
    live_opts.jobs = 1;
    live_opts.progress = false;
    live_opts.streamCapture = false;

    SweepReport tight_report;
    std::vector<ExperimentResult> evicted =
        runSweep(configs, tight, &tight_report);
    std::vector<ExperimentResult> live = runSweep(configs, live_opts);

    EXPECT_GT(tight_report.cache.streamEvicted, 0u);
    EXPECT_LE(tight_report.cache.streamBytesResident, budget);
    ASSERT_EQ(evicted.size(), live.size());
    for (std::size_t i = 0; i < live.size(); ++i)
        expectIdentical(evicted[i], live[i], describeConfig(configs[i]));
}

TEST(Stream, TruncatedStreamIsRebuiltAtTheLargerBound)
{
    CompiledWorkload c = compileWorkload("go", InputSet::Ref);
    WorkloadCache cache;
    StreamKey key;
    key.workload = "go";
    auto build_at = [&](std::uint64_t insts) {
        return [&, insts](std::uint64_t max_bytes) {
            return CapturedStream::capture(c.low.program, insts,
                                           max_bytes);
        };
    };

    auto small = cache.stream(key, 2'000, build_at(2'000));
    ASSERT_TRUE(small);
    EXPECT_FALSE(small->complete());
    EXPECT_TRUE(small->covers(2'000));

    // Same key, larger bound: the truncated capture is useless and
    // must be replaced, not returned.
    auto big = cache.stream(key, 10'000, build_at(10'000));
    ASSERT_TRUE(big);
    EXPECT_NE(small.get(), big.get());
    EXPECT_TRUE(big->covers(10'000));

    // And the larger capture now serves the smaller bound too.
    auto again = cache.stream(key, 2'000, build_at(2'000));
    EXPECT_EQ(big.get(), again.get());

    WorkloadCacheStats stats = cache.stats();
    EXPECT_EQ(stats.streamMisses, 2u);
    EXPECT_EQ(stats.streamHits, 1u);
    EXPECT_EQ(stats.streamEvicted, 0u);   // a rebuild is not an evict
    EXPECT_EQ(stats.streamBytesResident, big->encodedBytes());
}

TEST(Stream, OverBudgetStreamFallsBackToLiveEveryTime)
{
    CompiledWorkload c = compileWorkload("go", InputSet::Ref);
    WorkloadCache cache(512);   // far below any real stream
    StreamKey key;
    key.workload = "go";
    int builds = 0;
    auto build = [&](std::uint64_t max_bytes) {
        ++builds;
        return CapturedStream::capture(c.low.program, 5'000, max_bytes);
    };
    EXPECT_EQ(cache.stream(key, 5'000, build), nullptr);
    EXPECT_EQ(cache.stream(key, 5'000, build), nullptr);
    // The negative entry is remembered: one capture attempt, not two.
    EXPECT_EQ(builds, 1);
    WorkloadCacheStats stats = cache.stats();
    EXPECT_EQ(stats.streamMisses, 2u);
    EXPECT_EQ(stats.streamHits, 0u);
    EXPECT_EQ(stats.streamBytesResident, 0u);
}

TEST(Stream, DisabledCacheNeverBuilds)
{
    WorkloadCache cache(0);
    StreamKey key;
    key.workload = "go";
    bool built = false;
    auto result = cache.stream(key, 1'000, [&](std::uint64_t) {
        built = true;
        return WorkloadCache::StreamPtr();
    });
    EXPECT_EQ(result, nullptr);
    EXPECT_FALSE(built);
    EXPECT_EQ(cache.stats().streamMisses, 0u);
}

TEST(Stream, KeyFoldsTimingOnlyKnobsOntoOneBinary)
{
    // Recovery policy, table size, loadsOnly, core geometry: none of
    // them change the executed binary, so they share a stream key.
    ExperimentConfig a = smallConfig("go");
    ExperimentConfig b = a;
    b.core.recovery = RecoveryPolicy::Selective;
    b.tableEntries = 64;
    b.counterThreshold = 4;
    b.loadsOnly = false;
    b.scheme = VpScheme::DynamicRvp;
    EXPECT_EQ(streamKeyFor(a, false), streamKeyFor(b, false));

    // A static-RVP run rewrites the binary: distinct key.
    ExperimentConfig srvp = a;
    srvp.scheme = VpScheme::StaticRvp;
    EXPECT_FALSE(streamKeyFor(a, false) == streamKeyFor(srvp, false));

    // A failed re-allocation keeps the baseline binary: folds to Base.
    ExperimentConfig realloc_cfg = a;
    realloc_cfg.scheme = VpScheme::DynamicRvp;
    realloc_cfg.realisticRealloc = true;
    EXPECT_EQ(streamKeyFor(realloc_cfg, true), streamKeyFor(a, false));
    EXPECT_FALSE(streamKeyFor(realloc_cfg, false) ==
                 streamKeyFor(a, false));
}

TEST(CoreFetch, HonoursConfiguredICacheLineSize)
{
    // Regression: fetchPhase used a hardcoded pc >> 6 to coalesce
    // I-cache probes, so a non-64-byte L1I line was simulated as if it
    // were 64 bytes. With genuinely narrower lines the same footprint
    // spans more lines, so the miss count must go up.
    ExperimentConfig wide = smallConfig("go");
    ExperimentConfig narrow = wide;
    narrow.core.mem.l1i.lineBytes = 32;   // 256 sets x 4 ways x 32 B
    ExperimentResult r64 = runExperiment(wide);
    ExperimentResult r32 = runExperiment(narrow);
    EXPECT_GT(r64.stats.get("l1i.misses"), 0.0);
    EXPECT_GT(r32.stats.get("l1i.misses"),
              r64.stats.get("l1i.misses"));
}

} // namespace
} // namespace rvp
