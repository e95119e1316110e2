/**
 * @file
 * Profile report: the tool a compiler writer would run first. Profiles
 * a workload and prints, for every interesting static instruction, its
 * register-value-reuse breakdown — the same data the paper's Section-5
 * lists are built from — plus the Figure-1 style dynamic summary.
 *
 *   $ ./examples/profile_report [workload] [min-coverage%]
 */

#include <iostream>

#include "common/parse.hh"
#include "compiler/arch_liveness.hh"
#include "compiler/lower.hh"
#include "compiler/regalloc.hh"
#include "emu/emulator.hh"
#include "isa/disasm.hh"
#include "profile/reuse_profiler.hh"
#include "sim/tables.hh"
#include "workloads/workloads.hh"

using namespace rvp;

int
main(int argc, char **argv)
try {
    std::string name = argc > 1 ? argv[1] : "m88ksim";
    double min_rate =
        argc > 2 ? parseNumber<double>(argv[2], "min-coverage%") / 100.0
                 : 0.5;

    BuiltWorkload wl = buildWorkload(name, InputSet::Train);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    if (!alloc.success) {
        std::cerr << "allocation failed\n";
        return 1;
    }
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;

    std::vector<std::uint64_t> live = archLiveBefore(wl.func, alloc, low);
    ReuseProfiler profiler(low.program, live);
    Emulator emu(low.program);
    DynInst di;
    std::uint64_t n = 0;
    while (n < 300'000) {
        ArchState pre = emu.state();
        if (!emu.step(di))
            break;
        profiler.observe(di, pre);
        ++n;
    }
    ReuseProfile profile = profiler.finish();

    std::cout << "register-value reuse profile: " << name << " (train, "
              << n << " insts)\n\n";

    TextTable table;
    table.setHeader({"static", "instruction", "execs", "same", "lv",
                     "stride", "best source (dead_lv_stride)"});
    for (std::uint32_t s = 0; s < low.program.size(); ++s) {
        const InstReuseCounts &c = profile.counts[s];
        if (c.execs < 100)
            continue;
        double best =
            profile.bestRate(s, AssistLevel::DeadLvStride);
        if (best < min_rate)
            continue;
        StaticPredSpec spec =
            profile.bestSpec(s, AssistLevel::DeadLvStride);
        std::string source;
        switch (spec.source) {
          case PredSource::SameReg:
            source = "same register";
            break;
          case PredSource::OtherReg: {
            bool dead = !((profile.liveBefore[s] >> spec.reg) & 1);
            source = regName(spec.reg) +
                     (dead ? " (dead)" : " (live)");
            break;
          }
          case PredSource::LastValue:
            source = "last value";
            break;
          case PredSource::Stride:
            source = "stride " + std::to_string(spec.stride);
            break;
        }
        double e = static_cast<double>(c.execs);
        table.addRow({std::to_string(s),
                      disassemble(low.program.at(s)),
                      std::to_string(c.execs),
                      TextTable::percent(c.sameRegHits / e, 0),
                      TextTable::percent(c.lastValueHits / e, 0),
                      TextTable::percent(c.strideHits / e, 0),
                      source + " @ " + TextTable::percent(best, 0)});
    }
    table.print(std::cout);

    if (profile.loadExecs) {
        double e = static_cast<double>(profile.loadExecs);
        std::cout << "\ndynamic load summary (Figure-1 columns): same "
                  << TextTable::percent(profile.loadSameReg / e)
                  << ", dead "
                  << TextTable::percent(profile.loadDeadReg / e)
                  << ", any "
                  << TextTable::percent(profile.loadAnyReg / e)
                  << ", reg-or-lvp "
                  << TextTable::percent(profile.loadRegOrLv / e) << "\n";
    }
    return 0;
} catch (const ConfigError &e) {
    std::cerr << "profile_report: " << e.what() << "\n";
    return 1;
}
