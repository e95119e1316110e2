/**
 * @file
 * Workload validation: every SPEC95-analogue program must compile
 * through the full register-allocation + lowering pipeline, execute
 * for a substantial instruction budget without faulting, exercise
 * loads/stores/branches, and expose the value-reuse class it was
 * designed around (checked coarsely here; the profiler tests refine).
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "compiler/lower.hh"
#include "compiler/regalloc.hh"
#include "emu/emulator.hh"
#include "workload_print.hh"
#include "workloads/workloads.hh"

namespace rvp
{
namespace
{

struct RunStats
{
    std::uint64_t insts = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t takenBranches = 0;
    std::uint64_t loadSameRegHits = 0;   // load value == old dest value
    std::set<std::uint32_t> staticTouched;
};

Program
compileWorkload(BuiltWorkload &wl)
{
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    EXPECT_TRUE(alloc.success) << wl.name;
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;
    return low.program;
}

RunStats
runFor(const Program &prog, std::uint64_t budget)
{
    Emulator emu(prog);
    RunStats stats;
    DynInst di;
    while (stats.insts < budget && emu.step(di)) {
        ++stats.insts;
        stats.staticTouched.insert(di.staticIndex);
        if (di.isLoad()) {
            ++stats.loads;
            stats.loadSameRegHits += di.newValue == di.oldDestValue;
        }
        stats.stores += di.isStore();
        if (di.info().isCondBranch) {
            ++stats.branches;
            stats.takenBranches += di.isTaken;
        }
    }
    return stats;
}

class WorkloadFixture : public ::testing::TestWithParam<WorkloadSpec>
{};

TEST_P(WorkloadFixture, CompilesAndRuns)
{
    BuiltWorkload wl = buildWorkload(GetParam().name, InputSet::Ref);
    EXPECT_EQ(wl.name, GetParam().name);
    EXPECT_EQ(wl.isFloatingPoint, GetParam().isFloatingPoint);
    Program prog = compileWorkload(wl);
    EXPECT_GT(prog.size(), 20u);

    RunStats stats = runFor(prog, 150'000);
    // Long-running: the budget, not HALT, must end the run.
    EXPECT_EQ(stats.insts, 150'000u) << "workload ended too early";
    // A real program mix.
    EXPECT_GT(stats.loads, stats.insts / 50) << "too few loads";
    EXPECT_GT(stats.stores, 0u);
    EXPECT_GT(stats.branches, stats.insts / 100);
    EXPECT_GT(stats.takenBranches, 0u);
    EXPECT_LT(stats.takenBranches, stats.branches + 1);
    // Steady state should touch most of the emitted static code.
    EXPECT_GT(stats.staticTouched.size(), prog.size() / 3);
}

TEST_P(WorkloadFixture, TrainAndRefDiffer)
{
    BuiltWorkload train = buildWorkload(GetParam().name, InputSet::Train);
    BuiltWorkload ref = buildWorkload(GetParam().name, InputSet::Ref);
    // Same code shape (structure transfers)...
    EXPECT_EQ(train.func.numInsts(), ref.func.numInsts());
    // ...different data image (inputs genuinely differ).
    std::map<std::uint64_t, std::uint64_t> a(train.data.begin(),
                                             train.data.end());
    std::map<std::uint64_t, std::uint64_t> b(ref.data.begin(),
                                             ref.data.end());
    EXPECT_NE(a, b) << "train and ref images identical";
}

TEST_P(WorkloadFixture, DeterministicBuild)
{
    BuiltWorkload a = buildWorkload(GetParam().name, InputSet::Ref);
    BuiltWorkload c = buildWorkload(GetParam().name, InputSet::Ref);
    EXPECT_EQ(a.data, c.data);
    EXPECT_EQ(a.func.numInsts(), c.func.numInsts());
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadFixture, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        return info.param.name;
    });

TEST(Workloads, RegistryComplete)
{
    EXPECT_EQ(allWorkloads().size(), 9u);
    unsigned fp = 0;
    for (const WorkloadSpec &spec : allWorkloads())
        fp += spec.isFloatingPoint;
    EXPECT_EQ(fp, 4u);   // hydro2d, mgrid, su2cor, turb3d
}

TEST(Workloads, M88ksimHasExtremeReuse)
{
    // The paper's standout: most m88ksim loads return the value the
    // destination register already holds once warmed up.
    BuiltWorkload wl = buildWorkload("m88ksim", InputSet::Ref);
    Program prog = compileWorkload(wl);
    // Warm up past guest-register convergence, then measure.
    Emulator emu(prog);
    DynInst di;
    std::uint64_t n = 0;
    while (n < 50'000 && emu.step(di))
        ++n;
    std::uint64_t loads = 0, lv_hits = 0;
    std::map<std::uint32_t, std::uint64_t> last;
    while (n < 150'000 && emu.step(di)) {
        ++n;
        if (di.isLoad()) {
            ++loads;
            auto it = last.find(di.staticIndex);
            if (it != last.end() && it->second == di.newValue)
                ++lv_hits;
            last[di.staticIndex] = di.newValue;
        }
    }
    ASSERT_GT(loads, 1000u);
    EXPECT_GT(static_cast<double>(lv_hits) / loads, 0.7);
}

TEST(Workloads, MgridLoadsMostlyZero)
{
    BuiltWorkload wl = buildWorkload("mgrid", InputSet::Ref);
    Program prog = compileWorkload(wl);
    RunStats stats;
    Emulator emu(prog);
    DynInst di;
    std::uint64_t n = 0, fp_loads = 0, zero_loads = 0;
    while (n < 150'000 && emu.step(di)) {
        ++n;
        if (di.op == Opcode::LDT) {
            ++fp_loads;
            zero_loads += di.newValue == 0;
        }
    }
    ASSERT_GT(fp_loads, 1000u);
    EXPECT_GT(static_cast<double>(zero_loads) / fp_loads, 0.5);
}

TEST(Workloads, UnknownNameFatals)
{
    EXPECT_DEATH(buildWorkload("nonesuch", InputSet::Ref), "unknown");
}

} // namespace
} // namespace rvp
