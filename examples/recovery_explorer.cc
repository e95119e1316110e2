/**
 * @file
 * Recovery-mechanism explorer (paper Section 4.3 / Figure 4). Runs a
 * chosen workload under each value-misprediction recovery scheme —
 * refetch, reissue, selective reissue — at a chosen confidence
 * threshold, and prints IPC, misprediction counts, and the queue
 * pressure each scheme induces.
 *
 *   $ ./examples/recovery_explorer [workload] [threshold]
 */

#include <iostream>

#include "common/parse.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/tables.hh"

using namespace rvp;

int
main(int argc, char **argv)
try {
    std::string workload = argc > 1 ? argv[1] : "hydro2d";
    unsigned threshold =
        argc > 2 ? parseNumber<unsigned>(argv[2], "threshold") : 7;

    std::cout << "workload " << workload << ", dynamic RVP (all insts, "
              << "dead+lv assist), confidence threshold " << threshold
              << "\n\n";

    ExperimentConfig base;
    base.workload = workload;
    base.core.maxInsts = 200'000;
    base.profileInsts = 200'000;
    ExperimentResult no_pred = runExperiment(base);

    TextTable table;
    table.setHeader({"recovery", "IPC", "speedup", "mispredicts",
                     "reissues", "refetch squashes", "IQ-full stalls"});
    table.addRow({"(no prediction)", TextTable::num(no_pred.ipc), "1.000",
                  "-", "-", "-",
                  TextTable::num(no_pred.stats.get("core.iq_full_stalls"),
                                 0)});

    for (RecoveryPolicy policy :
         {RecoveryPolicy::Refetch, RecoveryPolicy::Reissue,
          RecoveryPolicy::Selective}) {
        ExperimentConfig config = base;
        config.scheme = VpScheme::DynamicRvp;
        config.assist = AssistLevel::DeadLv;
        config.loadsOnly = false;
        config.counterThreshold = threshold;
        config.core.recovery = policy;
        ExperimentResult r = runExperiment(config);
        table.addRow(
            {recoveryName(policy), TextTable::num(r.ipc),
             TextTable::num(r.ipc / no_pred.ipc),
             TextTable::num(r.stats.get("core.value_mispredicts"), 0),
             TextTable::num(r.stats.get("core.reissues"), 0),
             TextTable::num(r.stats.get("core.value_refetches"), 0),
             TextTable::num(r.stats.get("core.iq_full_stalls"), 0)});
    }
    table.print(std::cout);

    std::cout << "\nLower thresholds predict more aggressively: watch "
                 "refetch's squashes\nand reissue's queue pressure grow. "
                 "The paper's threshold of 7 is a\nconservative filter "
                 "that keeps all three schemes viable.\n";
    return 0;
} catch (const ConfigError &e) {
    std::cerr << "recovery_explorer: " << e.what() << "\n";
    return 1;
}
