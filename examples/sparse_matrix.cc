/**
 * @file
 * Constant locality (paper Section 3): reading a sparse matrix where
 * most entries are zero. Last-value prediction mispredicts twice
 * around every nonzero (once entering, once leaving); predicting the
 * *constant* zero — which register value prediction implements by
 * simply keeping zero in the destination register between uses —
 * mispredicts only once per nonzero. This example builds a sparse
 * matrix-vector product and compares LVP with dynamic RVP.
 *
 *   $ ./examples/sparse_matrix [density%]
 */

#include <iostream>

#include "common/parse.hh"
#include "common/rng.hh"
#include "compiler/lower.hh"
#include "compiler/regalloc.hh"
#include "sim/tables.hh"
#include "uarch/core.hh"
#include "vp/oracle.hh"
#include "workloads/workloads.hh"

using namespace rvp;

namespace
{

/** y += A*x over a dense-stored but mostly-zero 64x64 matrix. */
Program
sparseMatVec(unsigned density_pct)
{
    IRFunction func;
    IRBuilder b(func);
    constexpr unsigned n = 64;
    constexpr std::uint64_t matBase = Program::dataBase;
    constexpr std::uint64_t vecBase = Program::dataBase + 0x10000;
    constexpr std::uint64_t outBase = Program::dataBase + 0x11000;

    VReg outer = func.newIntVReg();
    VReg i = func.newIntVReg();
    VReg j = func.newIntVReg();
    VReg mat = func.newIntVReg();
    VReg vec = func.newIntVReg();
    VReg out = func.newIntVReg();
    VReg row = func.newIntVReg();
    VReg addr = func.newIntVReg();
    VReg tmp = func.newIntVReg();
    VReg a = func.newFpVReg();
    VReg x = func.newFpVReg();
    VReg acc = func.newFpVReg();
    VReg prod = func.newFpVReg();

    b.startBlock();
    b.loadAddr(mat, matBase);
    b.loadAddr(vec, vecBase);
    b.loadAddr(out, outBase);
    b.loadAddr(outer, 1'000'000);
    BlockId outer_head = b.startBlock();
    b.loadImm(i, 0);
    BlockId row_head = b.startBlock();
    b.opImm(Opcode::SLL, row, i, 6);
    b.op3(Opcode::SUBT, acc, acc, acc);   // acc = 0
    b.loadImm(j, 0);
    BlockId col_head = b.startBlock();
    b.op3(Opcode::ADDQ, addr, row, j);
    b.opImm(Opcode::SLL, addr, addr, 3);
    b.op3(Opcode::ADDQ, addr, addr, mat);
    b.load(a, addr, 0);                    // mostly 0.0: constant locality
    b.opImm(Opcode::SLL, tmp, j, 3);
    b.op3(Opcode::ADDQ, tmp, tmp, vec);
    b.load(x, tmp, 0);
    b.op3(Opcode::MULT, prod, a, x);
    b.op3(Opcode::ADDT, acc, acc, prod);
    b.opImm(Opcode::ADDQ, j, j, 1);
    b.opImm(Opcode::CMPLT, tmp, j, static_cast<std::int32_t>(n));
    b.branch(Opcode::BNE, tmp, col_head);
    b.startBlock();
    b.opImm(Opcode::SLL, tmp, i, 3);
    b.op3(Opcode::ADDQ, tmp, tmp, out);
    b.store(acc, tmp, 0);
    b.opImm(Opcode::ADDQ, i, i, 1);
    b.opImm(Opcode::CMPLT, tmp, i, static_cast<std::int32_t>(n));
    b.branch(Opcode::BNE, tmp, row_head);
    b.startBlock();
    b.opImm(Opcode::SUBQ, outer, outer, 1);
    b.branch(Opcode::BNE, outer, outer_head);
    b.startBlock();
    b.halt();
    func.numberInsts();

    AllocResult alloc = allocateRegisters(func, AllocConfig{});
    LowerResult low = lower(func, alloc);

    Rng rng(0xabc);
    for (unsigned r = 0; r < n; ++r)
        for (unsigned c = 0; c < n; ++c)
            if (rng.chance(density_pct, 100))
                low.program.dataImage.push_back(
                    {matBase + 8ull * (r * n + c),
                     doubleBits(1.0 + rng.nextDouble())});
    for (unsigned c = 0; c < n; ++c)
        low.program.dataImage.push_back(
            {vecBase + 8ull * c, doubleBits(rng.nextDouble())});
    return low.program;
}

} // namespace

int
main(int argc, char **argv)
try {
    unsigned density =
        argc > 1 ? parseNumber<unsigned>(argv[1], "density") : 8;
    Program prog = sparseMatVec(density);

    TextTable table;
    table.setHeader({"predictor", "IPC", "speedup", "coverage",
                     "accuracy"});
    CoreParams params = CoreParams::table1();
    params.maxInsts = 300'000;

    double base_ipc = 0;
    for (VpScheme scheme :
         {VpScheme::None, VpScheme::Lvp, VpScheme::DynamicRvp}) {
        VpConfig vp;
        vp.scheme = scheme;
        vp.loadsOnly = true;
        auto predictor = makePredictor(vp, prog);
        Core core(params, prog, *predictor);
        CoreResult r = core.run();
        if (scheme == VpScheme::None) {
            base_ipc = r.ipc;
            table.addRow({"none", TextTable::num(r.ipc), "1.000", "-",
                          "-"});
        } else {
            table.addRow(
                {scheme == VpScheme::Lvp ? "last-value (8KB buffer)"
                                         : "register VP (no storage)",
                 TextTable::num(r.ipc), TextTable::num(r.ipc / base_ipc),
                 TextTable::percent(r.stats.get("vp.predictions") /
                                    static_cast<double>(r.committed)),
                 TextTable::percent(r.stats.ratio("vp.correct",
                                                  "vp.predictions"))});
        }
    }

    std::cout << "sparse matrix-vector product, " << density
              << "% nonzero entries\n\n";
    table.print(std::cout);
    std::cout << "\nMost coefficient loads return 0.0. RVP keeps the "
                 "constant in the\ndestination register and needs no "
                 "value storage to exploit it.\n";
    return 0;
} catch (const ConfigError &e) {
    std::cerr << "sparse_matrix: " << e.what() << "\n";
    return 1;
}
