/**
 * @file
 * Figure 1: the degree of register-value reuse for loads. For each
 * workload, the fraction of dynamic loads whose loaded value is
 * already (a) in the destination register itself, (b) in a dead
 * register, (c) anywhere in the register file, or (d) in a register
 * or equal to the load's last value. The paper reports that at least
 * ~75% of loaded values are in (or were recently in) the register
 * file, with the columns strictly cumulative.
 */

#include "common.hh"

using namespace rvp;
using namespace rvp::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);

    auto insts = envNumber<std::uint64_t>("RVP_BENCH_INSTS", 400'000);

    TextTable table;
    table.setHeader({"program", "same reg", "dead reg", "any reg",
                     "reg or lvp"});

    double c_sum[4] = {}, f_sum[4] = {};
    unsigned c_count = 0, f_count = 0;

    // Profile every workload in parallel; rows print in input order.
    std::vector<std::string> names = benchWorkloads();
    std::vector<ReuseProfile> profiles(names.size());
    WorkloadCache cache;
    parallelFor(names.size(), benchOptions().jobs, [&](std::size_t i) {
        profiles[i] =
            cache.profiled(names[i], InputSet::Ref, insts)->profile;
    });

    for (std::size_t w = 0; w < names.size(); ++w) {
        const std::string &name = names[w];
        const ReuseProfile &p = profiles[w];
        double execs = static_cast<double>(p.loadExecs);
        if (execs == 0)
            continue;
        double cols[4] = {
            static_cast<double>(p.loadSameReg) / execs,
            static_cast<double>(p.loadDeadReg) / execs,
            static_cast<double>(p.loadAnyReg) / execs,
            static_cast<double>(p.loadRegOrLv) / execs,
        };
        bool is_fp = findWorkload(name)->isFloatingPoint;
        for (int i = 0; i < 4; ++i)
            (is_fp ? f_sum[i] : c_sum[i]) += cols[i];
        (is_fp ? f_count : c_count) += 1;

        table.addRow({name, TextTable::percent(cols[0]),
                      TextTable::percent(cols[1]),
                      TextTable::percent(cols[2]),
                      TextTable::percent(cols[3])});
    }
    if (c_count) {
        table.addRow({"C SPEC avg", TextTable::percent(c_sum[0] / c_count),
                      TextTable::percent(c_sum[1] / c_count),
                      TextTable::percent(c_sum[2] / c_count),
                      TextTable::percent(c_sum[3] / c_count)});
    }
    if (f_count) {
        table.addRow({"F SPEC avg", TextTable::percent(f_sum[0] / f_count),
                      TextTable::percent(f_sum[1] / f_count),
                      TextTable::percent(f_sum[2] / f_count),
                      TextTable::percent(f_sum[3] / f_count)});
    }

    std::cout << "Figure 1: degree of register-value reuse for loads\n\n";
    table.print(std::cout);
    std::cout << "\npaper shape: columns cumulative; 'reg or lvp' >= ~75%"
                 " on average.\n";
    return 0;
}
