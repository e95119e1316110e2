/**
 * @file
 * Tests for the out-of-order core: IPC sanity on known kernels,
 * branch-misprediction penalties, cache effects, value-prediction
 * timing effects under all three recovery policies, and structural
 * limits. The core is execution-driven off the committed path, so the
 * key invariant — committed count and order match the functional
 * emulator — is checked on every workload.
 */

#include <gtest/gtest.h>

#include "compiler/lower.hh"
#include "compiler/regalloc.hh"
#include "uarch/core.hh"
#include "vp/oracle.hh"
#include "workloads/workloads.hh"

namespace rvp
{

/**
 * Print a workload parameter by name. gtest would otherwise print the
 * spec's raw bytes, which hold a heap pointer, so the parameterized
 * case names would change with every test discovery.
 */
void
PrintTo(const WorkloadSpec &spec, std::ostream *os)
{
    *os << spec.name;
}

namespace
{

StaticInst
opImm(Opcode op, RegIndex rc, RegIndex ra, std::int32_t imm)
{
    StaticInst si;
    si.op = op;
    si.rc = rc;
    si.ra = ra;
    si.useImm = true;
    si.imm = imm;
    return si;
}

StaticInst
lda(RegIndex rc, std::int32_t imm)
{
    return opImm(Opcode::LDA, rc, zeroReg, imm);
}

StaticInst
branch(Opcode op, RegIndex ra, std::int32_t disp)
{
    StaticInst si;
    si.op = op;
    si.ra = ra;
    si.imm = disp;
    return si;
}

StaticInst
haltInst()
{
    StaticInst si;
    si.op = Opcode::HALT;
    return si;
}

CoreResult
runProgram(const Program &prog, CoreParams params = CoreParams::table1(),
           VpConfig vp = {})
{
    auto predictor = makePredictor(vp, prog);
    Core core(params, prog, *predictor);
    return core.run();
}

/** counter loop: n iterations of `subq/bne` (dependent chain). */
Program
counterLoop(std::int32_t n)
{
    Program prog;
    prog.insts = {
        lda(1, n),
        opImm(Opcode::SUBQ, 1, 1, 1),
        branch(Opcode::BNE, 1, -2),
        haltInst(),
    };
    return prog;
}

/** Independent ALU ops in a loop: high-ILP kernel. */
Program
independentAlu(std::int32_t iters)
{
    Program prog;
    prog.insts.push_back(lda(1, iters));
    // 8 independent adds per iteration (distinct destinations).
    for (RegIndex r = 2; r < 10; ++r)
        prog.insts.push_back(opImm(Opcode::ADDQ, r, r, 1));
    prog.insts.push_back(opImm(Opcode::SUBQ, 1, 1, 1));
    prog.insts.push_back(branch(Opcode::BNE, 1, -10));
    prog.insts.push_back(haltInst());
    return prog;
}

TEST(Core, RunsToHalt)
{
    CoreResult r = runProgram(counterLoop(100));
    // lda + 100*(subq+bne) + halt
    EXPECT_EQ(r.committed, 202u);
    EXPECT_GT(r.cycles, 0u);
}

TEST(Core, RespectsInstructionBudget)
{
    CoreParams params = CoreParams::table1();
    params.maxInsts = 1000;
    CoreResult r = runProgram(counterLoop(100000), params);
    EXPECT_GE(r.committed, 1000u);
    EXPECT_LT(r.committed, 1100u);   // a little commit-width slack
}

TEST(Core, DependentChainBoundsIpc)
{
    // subq->bne->subq is a serial dependence: IPC can't exceed ~2
    // (two dependent ops per cycle is already generous with bypass).
    CoreResult r = runProgram(counterLoop(5000));
    EXPECT_LT(r.ipc, 2.5);
    EXPECT_GT(r.ipc, 0.8);   // and the loop branch is predictable
}

TEST(Core, IndependentOpsReachHighIpc)
{
    CoreResult r = runProgram(independentAlu(4000));
    // 10 insts per iteration, 8 independent: should sustain well over
    // 3 IPC on the 8-wide core.
    EXPECT_GT(r.ipc, 3.0);
}

TEST(Core, WiderCoreIsFaster)
{
    CoreResult narrow = runProgram(independentAlu(4000));
    CoreResult wide =
        runProgram(independentAlu(4000), CoreParams::aggressive16());
    EXPECT_GT(wide.ipc, narrow.ipc * 1.1);
}

TEST(Core, BranchMispredictsCostCycles)
{
    // A data-dependent unpredictable branch pattern (LCG parity) vs a
    // never-taken branch: same instruction count, different cycles.
    auto make = [](bool noisy) {
        Program prog;
        prog.insts = {
            lda(1, 4000),                        // counter
            lda(2, 12345),                       // lcg state
            opImm(Opcode::MULQ, 2, 2, 261),      // 3: lcg *=
            opImm(Opcode::ADDQ, 2, 2, 83),       // 4: lcg +=
            opImm(Opcode::SRL, 3, 2, 9),         // 5
            opImm(Opcode::AND, 3, 3, 1),         // 6: parity bit
            StaticInst{},                        // 7: the branch
            opImm(Opcode::ADDQ, 4, 4, 1),        // 8: taken-path work
            opImm(Opcode::SUBQ, 1, 1, 1),        // 9
            branch(Opcode::BNE, 1, -8),          // 10
            haltInst(),
        };
        prog.insts[6] =
            branch(Opcode::BEQ, noisy ? RegIndex{3} : zeroReg, 1);
        return prog;
    };
    CoreResult predictable = runProgram(make(false));
    CoreResult noisy = runProgram(make(true));
    // Noisy branch: ~50% mispredict x 7-cycle penalty.
    EXPECT_GT(static_cast<double>(noisy.cycles),
              static_cast<double>(predictable.cycles) * 1.5);
    EXPECT_GT(noisy.stats.get("core.branch_mispredicts"), 1000.0);
    EXPECT_LT(predictable.stats.get("core.branch_mispredicts"), 50.0);
}

TEST(Core, CacheMissesCostCycles)
{
    // Strided array walk: 8-byte stride (sequential, mostly L1 hits)
    // vs 512-byte stride over 2MB (every load a new line, missing L1
    // and much of L2).
    auto make = [](std::int32_t stride_shift) {
        Program prog;
        StaticInst add_base;
        add_base.op = Opcode::ADDQ;
        add_base.rc = 3;
        add_base.ra = 3;
        add_base.rb = 5;
        StaticInst load;
        load.op = Opcode::LDQ;
        load.rc = 6;
        load.ra = 3;
        prog.insts = {
            lda(1, 4000),                        // 0: iterations
            lda(2, 0),                           // 1: index
            lda(5, static_cast<std::int32_t>(Program::dataBase >> 13)),
            opImm(Opcode::SLL, 5, 5, 13),        // 3: base address
            // loop:
            opImm(Opcode::SLL, 3, 2, stride_shift),  // 4: offset
            add_base,                            // 5: addr = base+off
            load,                                // 6
            opImm(Opcode::ADDQ, 2, 2, 1),        // 7
            opImm(Opcode::SUBQ, 1, 1, 1),        // 8
            branch(Opcode::BNE, 1, -6),          // 9: back to 4
            haltInst(),
        };
        return prog;
    };
    CoreResult small = runProgram(make(3));
    CoreResult large = runProgram(make(9));
    // Independent loads overlap their misses (no MSHR limit in the
    // model), so the penalty shows but is largely hidden.
    EXPECT_GT(static_cast<double>(large.cycles),
              static_cast<double>(small.cycles) * 1.05);
    EXPECT_GT(large.stats.get("l1d.misses"), small.stats.get("l1d.misses"));
}

/**
 * Value-prediction timing: a *loop-carried* pointer chase whose loaded
 * value is constant (a self-pointer). Without prediction every
 * iteration serializes on the load; with RVP the dependence collapses.
 */
Program
predictableLoadChain(std::int32_t iters)
{
    Program prog;
    prog.insts = {
        lda(1, iters),
        lda(5, static_cast<std::int32_t>(Program::dataBase >> 13)),
        opImm(Opcode::SLL, 5, 5, 13),
        // loop: r5 <- mem[r5]; the cell points at itself.
        StaticInst{},                            // 3: load r5 <- [r5]
        opImm(Opcode::SUBQ, 1, 1, 1),
        branch(Opcode::BNE, 1, -3),              // back to the load
        haltInst(),
    };
    StaticInst load;
    load.op = Opcode::LDQ;
    load.rc = 5;
    load.ra = 5;
    load.imm = 0;
    prog.insts[3] = load;
    prog.dataImage.push_back({Program::dataBase, Program::dataBase});
    return prog;
}

TEST(Core, ValuePredictionSpeedsUpPredictableLoads)
{
    Program prog = predictableLoadChain(4000);
    CoreResult base = runProgram(prog);

    VpConfig vp;
    vp.scheme = VpScheme::DynamicRvp;
    vp.loadsOnly = true;
    CoreResult with_vp = runProgram(prog, CoreParams::table1(), vp);

    EXPECT_EQ(base.committed, with_vp.committed);
    EXPECT_LT(with_vp.cycles, base.cycles);
    EXPECT_GT(with_vp.stats.get("vp.predictions"), 3000.0);
    EXPECT_GT(with_vp.stats.get("core.predicted_value_uses"), 3000.0);
}

/**
 * Mispredictable value stream for recovery testing: a two-element
 * pointer cycle, so the loaded value alternates and same-register (and
 * last-value) prediction is wrong every time.
 */
Program
alternatingLoadChain(std::int32_t iters)
{
    Program prog = predictableLoadChain(iters);
    prog.dataImage.clear();
    std::uint64_t a = Program::dataBase;
    std::uint64_t c = Program::dataBase + 64;
    prog.dataImage.push_back({a, c});
    prog.dataImage.push_back({c, a});
    return prog;
}

class RecoveryPolicies
    : public ::testing::TestWithParam<RecoveryPolicy>
{};

TEST_P(RecoveryPolicies, CorrectCommitCountUnderMispredicts)
{
    Program prog = alternatingLoadChain(3000);
    CoreParams params = CoreParams::table1();
    params.recovery = GetParam();
    VpConfig vp;
    vp.scheme = VpScheme::DynamicRvp;
    vp.threshold = 3;   // predict aggressively: forces mispredicts
    CoreResult base = runProgram(prog, CoreParams::table1());
    CoreResult r = runProgram(prog, params, vp);
    EXPECT_EQ(r.committed, base.committed);
}

TEST_P(RecoveryPolicies, PerfectPredictionNeverHurtsMuch)
{
    Program prog = predictableLoadChain(3000);
    CoreParams params = CoreParams::table1();
    params.recovery = GetParam();
    VpConfig vp;
    vp.scheme = VpScheme::DynamicRvp;
    CoreResult base = runProgram(prog, params);
    CoreResult r = runProgram(prog, params, vp);
    EXPECT_EQ(r.committed, base.committed);
    // Near-perfect prediction must help (or at minimum not regress by
    // more than a few percent from queue pressure).
    EXPECT_LT(static_cast<double>(r.cycles),
              static_cast<double>(base.cycles) * 1.05);
}

INSTANTIATE_TEST_SUITE_P(All, RecoveryPolicies,
                         ::testing::Values(RecoveryPolicy::Refetch,
                                           RecoveryPolicy::Reissue,
                                           RecoveryPolicy::Selective),
                         [](const auto &info) {
                             switch (info.param) {
                               case RecoveryPolicy::Refetch:
                                 return "Refetch";
                               case RecoveryPolicy::Reissue:
                                 return "Reissue";
                               default:
                                 return "Selective";
                             }
                         });

/**
 * A register whose value is constant for 31 iterations and then
 * steps: long enough runs to saturate the confidence counter, so real
 * (wrong) predictions issue at every step.
 */
Program
steppedAccumulatorLoop()
{
    Program prog;
    prog.insts = {
        lda(1, 8000),                      // 0: counter
        lda(6, 0),                         // 1: stepped accumulator
        lda(7, 0),                         // 2: dependent chain
        opImm(Opcode::AND, 3, 1, 31),      // 3: loop head
        opImm(Opcode::CMPEQ, 3, 3, 0),     // 4: 1 every 32 iters
        StaticInst{},                      // 5: addq r6, r6, r3
        StaticInst{},                      // 6: addq r7, r7, r6
        opImm(Opcode::SUBQ, 1, 1, 1),      // 7
        branch(Opcode::BNE, 1, -6),        // 8: back to 3
        haltInst(),
    };
    StaticInst step;
    step.op = Opcode::ADDQ;
    step.rc = 6;
    step.ra = 6;
    step.rb = 3;
    prog.insts[5] = step;
    StaticInst chain;
    chain.op = Opcode::ADDQ;
    chain.rc = 7;
    chain.ra = 7;
    chain.rb = 6;
    prog.insts[6] = chain;

    return prog;
}

TEST(Core, TagRingStaysWindowSizedWithoutSquashes)
{
    // Rename tags live in a ring sized from robEntries, not in state
    // that grows with the run. Only squash-and-refetch can outrun it
    // (golden grid's tag-churn row); runs that never squash a renamed
    // instruction — no prediction, or reissue recoveries — keep it at
    // its initial size however many tags they allocate.
    for (CoreParams params :
         {CoreParams::table1(), CoreParams::aggressive16()}) {
        Program loop = counterLoop(50'000);
        auto none = makePredictor(VpConfig{}, loop);
        Core plain(params, loop, *none);
        std::size_t slots = plain.tagRingSlots();
        EXPECT_GE(slots, params.robEntries);
        EXPECT_LT(slots, 2 * params.robEntries);
        plain.run();
        EXPECT_EQ(plain.tagRingSlots(), slots);

        for (RecoveryPolicy policy :
             {RecoveryPolicy::Selective, RecoveryPolicy::Reissue}) {
            Program stepped = steppedAccumulatorLoop();
            params.recovery = policy;
            VpConfig vp;
            vp.scheme = VpScheme::DynamicRvp;
            vp.loadsOnly = false;
            auto predictor = makePredictor(vp, stepped);
            Core core(params, stepped, *predictor);
            CoreResult r = core.run();
            EXPECT_GT(r.stats.get("core.reissues"), 0.0);
            EXPECT_EQ(core.tagRingSlots(), slots);
        }
    }
}

TEST(Core, ValueMispredictsArePenalized)
{
    Program prog = steppedAccumulatorLoop();
    CoreResult base = runProgram(prog);
    CoreParams params = CoreParams::table1();
    params.recovery = RecoveryPolicy::Refetch;
    VpConfig vp;
    vp.scheme = VpScheme::DynamicRvp;
    vp.loadsOnly = false;
    CoreResult r = runProgram(prog, params, vp);
    EXPECT_GT(r.stats.get("core.value_mispredicts"), 100.0);
    EXPECT_GT(r.cycles, base.cycles);   // mispredicts must cost time
}

/**
 * The central execution-driven invariant: the committed instruction
 * count of the timing model equals the functional emulator's count,
 * for every workload, with and without value prediction.
 */
class WorkloadTiming : public ::testing::TestWithParam<WorkloadSpec>
{};

TEST_P(WorkloadTiming, TimingPreservesFunctionalBehaviour)
{
    BuiltWorkload wl = buildWorkload(GetParam().name, InputSet::Ref);
    AllocResult alloc = allocateRegisters(wl.func, AllocConfig{});
    ASSERT_TRUE(alloc.success);
    LowerResult low = lower(wl.func, alloc);
    low.program.dataImage = wl.data;

    CoreParams params = CoreParams::table1();
    params.maxInsts = 30'000;

    VpConfig vp;
    vp.scheme = VpScheme::DynamicRvp;
    vp.loadsOnly = false;
    CoreResult with_vp = runProgram(low.program, params, vp);
    CoreResult base = runProgram(low.program, params);

    EXPECT_GE(with_vp.committed, params.maxInsts);
    EXPECT_GE(base.committed, params.maxInsts);
    // Runs stop at the first commit bundle crossing the budget, so the
    // counts may differ by less than one commit group.
    EXPECT_LT(std::max(with_vp.committed, base.committed) -
                  std::min(with_vp.committed, base.committed),
              params.commitWidth);
    EXPECT_GT(with_vp.ipc, 0.1);
    EXPECT_LT(with_vp.ipc, 8.0);
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTiming, ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadSpec> &info) {
        return info.param.name;
    });

} // namespace
} // namespace rvp
