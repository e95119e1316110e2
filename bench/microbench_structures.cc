/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot data
 * structures: the confidence table, the LVP table, the cache, the
 * functional emulator, and a full timed core step. These guard the
 * simulator's own performance (the harness runs ~200 full experiments
 * per figure sweep).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "compiler/lower.hh"
#include "compiler/regalloc.hh"
#include "emu/emulator.hh"
#include "mem/hierarchy.hh"
#include "stream/batch.hh"
#include "stream/stream.hh"
#include "uarch/core.hh"
#include "vp/oracle.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace rvp;

void
BM_ConfidenceTable(benchmark::State &state)
{
    ConfidenceConfig cfg;
    cfg.tagged = state.range(0) != 0;
    ConfidenceTable table(cfg);
    std::uint64_t pc = 0x1000;
    bool outcome = true;
    for (auto _ : state) {
        benchmark::DoNotOptimize(table.confident(pc));
        table.update(pc, outcome);
        pc += 4;
        outcome = !outcome;
    }
}
BENCHMARK(BM_ConfidenceTable)->Arg(0)->Arg(1);

void
BM_LvpTable(benchmark::State &state)
{
    LastValuePredictor lvp;
    DynInst di;
    di.op = Opcode::LDQ;
    di.dest = 3;
    for (auto _ : state) {
        di.pc += 4;
        di.newValue = di.pc & 0xff;
        benchmark::DoNotOptimize(lvp.onInst(di, {}));
    }
}
BENCHMARK(BM_LvpTable);

void
BM_CacheAccess(benchmark::State &state)
{
    MemoryHierarchy mem;
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mem.loadLatency(addr));
        addr = (addr + 64) % (1 << state.range(0));
    }
}
BENCHMARK(BM_CacheAccess)->Arg(14)->Arg(22);   // L1-resident vs thrash

void
BM_EmulatorStep(benchmark::State &state)
{
    BuiltWorkload wl = buildWorkload("go", InputSet::Ref);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;
    auto emu = std::make_unique<Emulator>(low.program);
    DynInst di;
    for (auto _ : state) {
        if (!emu->step(di)) {
            state.PauseTiming();
            emu = std::make_unique<Emulator>(low.program);
            state.ResumeTiming();
        }
        benchmark::DoNotOptimize(di);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EmulatorStep);

void
BM_CoreCycle(benchmark::State &state)
{
    BuiltWorkload wl = buildWorkload("ijpeg", InputSet::Ref);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;
    for (auto _ : state) {
        VpConfig vp;
        vp.scheme = VpScheme::DynamicRvp;
        vp.loadsOnly = false;
        auto predictor = makePredictor(vp, low.program);
        CoreParams params = CoreParams::table1();
        params.maxInsts = 20'000;
        Core core(params, low.program, *predictor);
        CoreResult r = core.run();
        benchmark::DoNotOptimize(r);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(r.committed));
    }
}
BENCHMARK(BM_CoreCycle)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Before/after pairs for the event-driven core hot path
// (docs/INTERNALS.md, "Simulator performance"). Each pair models the
// seed's O(window) per-cycle pattern against the O(1) replacement the
// core now uses, on deterministic synthetic state sized like a full
// Table-1 window (128 entries).
// ---------------------------------------------------------------------

/** A minimal stand-in for the window entry the scans touched. */
struct FakeInst
{
    std::uint64_t seq = 0;
    std::uint64_t completeCycle = 0;
    std::uint64_t effAddr = 0;
    bool issued = false;
    bool isStore = false;
};

std::vector<FakeInst>
makeWindow(std::size_t n)
{
    std::vector<FakeInst> window(n);
    for (std::size_t i = 0; i < n; ++i) {
        window[i].seq = i;
        window[i].completeCycle = 1 + (i * 7) % 64;
        window[i].effAddr = 0x1000 + 8 * ((i * 13) % 32);
        window[i].issued = i % 3 != 0;
        window[i].isStore = i % 5 == 0;
    }
    return window;
}

/** Seed pattern: every cycle scans the whole window for completions. */
void
BM_CompletionWindowScan(benchmark::State &state)
{
    std::vector<FakeInst> window = makeWindow(128);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        cycle = (cycle + 1) % 64;
        unsigned done = 0;
        for (const FakeInst &inst : window)
            done += inst.issued && inst.completeCycle == cycle;
        benchmark::DoNotOptimize(done);
    }
}
BENCHMARK(BM_CompletionWindowScan);

/** Core pattern: pop one event-wheel bucket per cycle. */
void
BM_CompletionEventWheel(benchmark::State &state)
{
    std::vector<FakeInst> window = makeWindow(128);
    constexpr std::uint64_t mask = 63;
    std::vector<std::vector<std::uint64_t>> wheel(mask + 1);
    for (const FakeInst &inst : window)
        if (inst.issued)
            wheel[inst.completeCycle & mask].push_back(inst.seq);
    std::uint64_t cycle = 0;
    for (auto _ : state) {
        cycle = (cycle + 1) % 64;
        std::vector<std::uint64_t> &bucket = wheel[cycle & mask];
        std::sort(bucket.begin(), bucket.end());
        unsigned done = 0;
        for (std::uint64_t seq : bucket)
            done += window[seq].issued &&
                    window[seq].completeCycle == cycle;
        benchmark::DoNotOptimize(done);
        // Re-arm instead of clearing so every iteration pops a
        // representative bucket (the core clears; steady-state work is
        // identical).
    }
}
BENCHMARK(BM_CompletionEventWheel);

/** Seed pattern: walk the window backwards looking for older stores. */
void
BM_StoreBackwardScan(benchmark::State &state)
{
    std::vector<FakeInst> window = makeWindow(128);
    std::uint64_t load_addr = 0x1000;
    for (auto _ : state) {
        bool hit = false;
        for (std::size_t i = window.size(); i-- > 0;) {
            if (window[i].isStore && window[i].effAddr == load_addr) {
                hit = true;
                break;
            }
        }
        benchmark::DoNotOptimize(hit);
        load_addr = 0x1000 + ((load_addr + 8) & 0xff);
    }
}
BENCHMARK(BM_StoreBackwardScan);

/** Core pattern: address-indexed in-flight store map. */
void
BM_StoreAddressIndex(benchmark::State &state)
{
    std::vector<FakeInst> window = makeWindow(128);
    std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> index;
    for (const FakeInst &inst : window)
        if (inst.isStore)
            index[inst.effAddr].push_back(inst.seq);
    std::uint64_t load_addr = 0x1000;
    std::uint64_t load_seq = 96;
    for (auto _ : state) {
        bool hit = false;
        auto it = index.find(load_addr);
        if (it != index.end()) {
            auto pos = std::lower_bound(it->second.begin(),
                                        it->second.end(), load_seq);
            hit = pos != it->second.begin();
        }
        benchmark::DoNotOptimize(hit);
        load_addr = 0x1000 + ((load_addr + 8) & 0xff);
    }
}
BENCHMARK(BM_StoreAddressIndex);

/** Seed pattern: per-event stat update via string-keyed map lookup. */
void
BM_StatAddByName(benchmark::State &state)
{
    StatSet stats;
    for (auto _ : state) {
        stats.add("core.issued");
        stats.add("core.fetched");
        stats.add("core.iq_occupancy_int", 37.0);
    }
    benchmark::DoNotOptimize(stats.get("core.issued"));
}
BENCHMARK(BM_StatAddByName);

/** Core pattern: interned Counter handles, registered once. */
void
BM_StatAddByHandle(benchmark::State &state)
{
    StatSet stats;
    StatSet::Counter &issued = stats.counter("core.issued");
    StatSet::Counter &fetched = stats.counter("core.fetched");
    StatSet::Counter &occ = stats.counter("core.iq_occupancy_int");
    for (auto _ : state) {
        issued.add();
        fetched.add();
        occ.add(37.0);
    }
    benchmark::DoNotOptimize(stats.get("core.issued"));
}
BENCHMARK(BM_StatAddByHandle);

/**
 * Committed-stream capture (stream/stream.hh): one full emulate +
 * verify + encode pass. Amortized over every replay of the stream, so
 * compare against (replays x BM_EmulatorStep).
 */
void
BM_StreamCapture(benchmark::State &state)
{
    BuiltWorkload wl = buildWorkload("go", InputSet::Ref);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;
    const std::uint64_t insts = 100'000;
    std::shared_ptr<const CapturedStream> stream;
    for (auto _ : state) {
        stream = CapturedStream::capture(low.program, insts);
        benchmark::DoNotOptimize(stream);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(insts));
    if (stream) {
        state.counters["bytes_per_inst"] =
            static_cast<double>(stream->encodedBytes()) /
            static_cast<double>(stream->instCount());
    }
}
BENCHMARK(BM_StreamCapture)->Unit(benchmark::kMillisecond);

/** Replay rate through the InstSource seam; the live-path comparison
 *  point is BM_EmulatorStep (plus its per-step ArchState copy). */
void
BM_StreamReplayStep(benchmark::State &state)
{
    BuiltWorkload wl = buildWorkload("go", InputSet::Ref);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;
    auto stream = CapturedStream::capture(low.program, 100'000);
    auto cursor = std::make_unique<StreamCursor>(stream);
    std::uint64_t left = stream->instCount();
    DynInst di;
    for (auto _ : state) {
        if (left == 0) {
            state.PauseTiming();
            cursor = std::make_unique<StreamCursor>(stream);
            left = stream->instCount();
            state.ResumeTiming();
        }
        cursor->step(di);
        --left;
        benchmark::DoNotOptimize(di);
        benchmark::DoNotOptimize(cursor->preState());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamReplayStep);

/** Per-consumer step rate of config-batched replay: one shared decode
 *  ring feeding Arg lockstep consumers (sim/batchrun.hh drives the
 *  same shape). Compare against BM_StreamReplayStep: the batched step
 *  is a ring copy plus one lazy register write, with the varint
 *  decode amortized across the consumers. With one consumer the ring
 *  only adds a copy to the cursor's decode, which is why the run
 *  driver gives a partition of one a StreamCursor and a ring only to
 *  two or more. */
void
BM_BatchedReplayStep(benchmark::State &state)
{
    const std::size_t consumers = static_cast<std::size_t>(state.range(0));
    BuiltWorkload wl = buildWorkload("go", InputSet::Ref);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;
    auto stream = CapturedStream::capture(low.program, 100'000);

    auto fresh = [&]() {
        auto batch = std::make_unique<BatchedStreamRun>(stream);
        std::vector<BatchedStreamRun::Consumer *> cons;
        for (std::size_t i = 0; i < consumers; ++i)
            cons.push_back(batch->addConsumer());
        return std::pair(std::move(batch), std::move(cons));
    };
    auto [batch, cons] = fresh();
    std::uint64_t left = stream->instCount() * consumers;
    std::size_t turn = 0;
    DynInst di;
    for (auto _ : state) {
        if (left == 0) {
            state.PauseTiming();
            std::tie(batch, cons) = fresh();
            left = stream->instCount() * consumers;
            turn = 0;
            state.ResumeTiming();
        }
        // Round-robin keeps the consumers in lockstep, so the shared
        // ring stays hot and the decode frontier advances smoothly.
        cons[turn]->step(di);
        turn = (turn + 1) % consumers;
        --left;
        benchmark::DoNotOptimize(di);
        benchmark::DoNotOptimize(cons[0]->preState());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatchedReplayStep)->Arg(1)->Arg(4);

} // namespace

BENCHMARK_MAIN();
