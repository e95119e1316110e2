/**
 * @file
 * rvpsim — command-line driver for the simulator. Runs any workload
 * under any value-prediction scheme and prints the headline numbers
 * (optionally the full statistics dump or the compiled disassembly).
 *
 *   rvpsim --workload m88ksim --scheme drvp --assist dead_lv --all
 *   rvpsim --workload hydro2d --scheme lvp --insts 1000000 --stats
 *   rvpsim --list
 *
 * Run `rvpsim --help` for the full option set.
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "common/parse.hh"
#include "isa/disasm.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/tables.hh"
#include "vp/registry.hh"

using namespace rvp;

namespace
{

void
usage()
{
    std::cout <<
        "rvpsim — storageless value prediction simulator (ISCA '99)\n"
        "\n"
        "  --workload NAME     go|ijpeg|li|m88ksim|perl|hydro2d|mgrid|\n"
        "                      su2cor|turb3d           (default: go)\n"
        "  --scheme NAME       none|lvp|srvp|drvp|grp, or any --list-vp\n"
        "                      name                    (default: none)\n"
        "  --vp NAME[:K=V,..]  pick any registered predictor by name,\n"
        "                      with scheme params (see --list-vp), e.g.\n"
        "                      --vp stride:entries=256,predict_threshold=4\n"
        "  --list-vp           list registered predictor schemes + params\n"
        "  --assist NAME       same|dead|live|dead_lv|live_lv|\n"
        "                      dead_lv_stride          (default: same)\n"
        "  --all               predict all register-writing instructions\n"
        "  --loads             predict loads only (default)\n"
        "  --recovery NAME     refetch|reissue|selective\n"
        "                                              (default: selective)\n"
        "  --realloc           recompile with the Section-7.3 register\n"
        "                      re-allocation instead of profile assists\n"
        "  --wide              use the aggressive 16-wide core\n"
        "  --insts N           committed-instruction budget (400000)\n"
        "  --profile-insts N   profiling budget on train input (300000)\n"
        "  --threshold X       profile selection threshold (0.8)\n"
        "  --confidence N      confidence-counter threshold (7)\n"
        "  --table N           predictor table entries (1024)\n"
        "  --tagged-rvp        tag the RVP confidence counters\n"
        "  --trace-out FILE    write a sampled pipeline-lifecycle trace;\n"
        "                      .jsonl = line-delimited, anything else =\n"
        "                      Chrome trace JSON (chrome://tracing)\n"
        "  --trace-sample N    trace every Nth instruction (default: 64)\n"
        "  --hist              collect latency/occupancy histograms into\n"
        "                      the stat dump (implies extra stat keys)\n"
        "  --stats             dump the full statistics set\n"
        "  --disasm            print the compiled workload and exit\n"
        "  --list              list available workloads and exit\n";
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "rvpsim: " << message << " (try --help)\n";
    std::exit(1);
}

} // namespace

int
main(int argc, char **argv)
try {
    ExperimentConfig config;
    config.workload = "go";
    bool dump_stats = false;
    bool disasm_only = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        auto scheme = [&](const std::string &name) {
            std::optional<VpScheme> s = schemeForName(name);
            if (!s)
                die("unknown scheme '" + name + "' (see --list-vp)");
            return *s;
        };
        if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else if (arg == "--list") {
            for (const WorkloadSpec &spec : allWorkloads()) {
                std::cout << spec.name
                          << (spec.isFloatingPoint ? " (fp)\n"
                                                   : " (int)\n");
            }
            return 0;
        } else if (arg == "--list-vp") {
            listSchemes(std::cout);
            return 0;
        } else if (arg == "--vp") {
            // NAME or NAME:key=value,key=value — the registry grammar.
            std::string s = next();
            std::size_t colon = s.find(':');
            if (colon != std::string::npos)
                config.vpParams = s.substr(colon + 1);
            config.scheme = scheme(s.substr(0, colon));
        } else if (arg == "--workload") {
            config.workload = next();
        } else if (arg == "--scheme") {
            config.scheme = scheme(next());
        } else if (arg == "--assist") {
            config.assist = assistForName(next());
        } else if (arg == "--all") {
            config.loadsOnly = false;
        } else if (arg == "--loads") {
            config.loadsOnly = true;
        } else if (arg == "--recovery") {
            config.core.recovery = recoveryForName(next());
        } else if (arg == "--realloc") {
            config.realisticRealloc = true;
        } else if (arg == "--wide") {
            RecoveryPolicy recovery = config.core.recovery;
            std::uint64_t insts = config.core.maxInsts;
            bool hist = config.core.collectHist;
            config.core = CoreParams::aggressive16();
            config.core.recovery = recovery;
            config.core.maxInsts = insts;
            config.core.collectHist = hist;
        } else if (arg == "--insts") {
            config.core.maxInsts = parseNumber<std::uint64_t>(next(), arg);
        } else if (arg == "--profile-insts") {
            config.profileInsts = parseNumber<std::uint64_t>(next(), arg);
        } else if (arg == "--threshold") {
            config.profileThreshold = parseNumber<double>(next(), arg);
        } else if (arg == "--confidence") {
            config.counterThreshold = parseNumber<unsigned>(next(), arg);
        } else if (arg == "--table") {
            config.tableEntries = parseNumber<unsigned>(next(), arg);
        } else if (arg == "--tagged-rvp") {
            config.taggedRvp = true;
        } else if (arg == "--trace-out") {
            config.traceOut = next();
        } else if (arg == "--trace-sample") {
            config.traceSample = parseNumber<std::uint64_t>(next(), arg);
        } else if (arg == "--hist") {
            config.core.collectHist = true;
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--disasm") {
            disasm_only = true;
        } else {
            die("unknown option '" + arg + "'");
        }
    }
    validateExperimentConfig(config);

    if (disasm_only) {
        std::cout << disassemble(
            compileWorkload(config.workload, InputSet::Ref).low.program);
        return 0;
    }

    // The predictor factory checks param values (vp/registry.hh), so
    // this can still throw a ConfigError before simulating.
    ExperimentResult result = runExperiment(config);

    TextTable table;
    table.setHeader({"metric", "value"});
    table.addRow({"workload", config.workload});
    table.addRow({"committed", std::to_string(result.committed)});
    table.addRow({"cycles", std::to_string(result.cycles)});
    table.addRow({"IPC", TextTable::num(result.ipc)});
    table.addRow({"predicted", TextTable::percent(result.predictedFrac)});
    table.addRow({"accuracy", TextTable::percent(result.accuracy)});
    table.addRow({"branch mispredicts",
                  TextTable::num(
                      result.stats.get("core.branch_mispredicts"), 0)});
    table.addRow({"value mispredicts",
                  TextTable::num(
                      result.stats.get("core.value_mispredicts"), 0)});
    table.print(std::cout);

    if (dump_stats) {
        std::cout << "\n";
        result.stats.dump(std::cout);
    }
    return 0;
} catch (const ConfigError &e) {
    die(e.what());
}
