/**
 * @file
 * rvp_bench — the benchmark program. Runs one workload for a fixed time
 * with the given seed and prints, as the last stdout line, one JSON
 * object: correct/attempted/failed plus the end-to-end metrics
 * (--trace 0) or the per-layer ledger (--trace 1). The line before it
 * carries the run's provenance, host noise, sample counts and the
 * first round's exact counts. See perfbench/README.md.
 *
 *   rvp_bench --workload grid --seed 1 --seconds 20 --trace 0 \
 *             --daemon .bench_build/rvpsweepd --run-dir .bench_run
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hh"
#include "sim/journal.hh"

#ifndef RVP_BENCH_BUILD_TYPE
#define RVP_BENCH_BUILD_TYPE "unknown"
#endif

using namespace bench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "rvp_bench: " << why
              << "\nusage: rvp_bench --workload grid|service "
                 "--seed N --seconds S --trace 0|1 [--size full|tiny] "
                 "--daemon PATH --run-dir DIR\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        try {
            if (arg == "--workload")
                o.workload = value;
            else if (arg == "--seed")
                o.seed = std::stoull(value);
            else if (arg == "--seconds")
                o.seconds = std::stod(value);
            else if (arg == "--trace")
                o.trace = std::stoi(value) != 0;
            else if (arg == "--size" && (value == "full" || value == "tiny"))
                o.tiny = value == "tiny";
            else if (arg == "--daemon")
                o.daemonPath = value;
            else if (arg == "--run-dir")
                o.runDir = value;
            else
                usage("unknown option " + arg);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + arg);
        }
    }
    if (o.workload != "grid" && o.workload != "service")
        usage("--workload must be grid or service");
    if (o.runDir.empty() || o.daemonPath.empty())
        usage("--run-dir and --daemon are required");
    return o;
}

std::string
gitDescribe()
{
    std::FILE *pipe =
        popen("git describe --always --dirty --tags 2>/dev/null", "r");
    if (!pipe)
        return "unknown";
    char buf[128];
    std::string out;
    while (std::fgets(buf, sizeof(buf), pipe))
        out += buf;
    int rc = pclose(pipe);
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return rc == 0 && !out.empty() ? out : "unknown";
}

/** Aggregate steal time of the host's CPUs, seconds (/proc/stat). */
double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    unsigned long long v[8] = {};
    if (!(in >> cpu) || cpu != "cpu")
        return 0.0;
    for (unsigned long long &x : v)
        in >> x;
    return static_cast<double>(v[7]) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

double
cpuSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
}

/** The per-layer busy times that, with sim.unattributed_s, add up to
 *  the traced wall time (trace.wall_s). */
const char *const kLedgerTerms[] = {
    "compile.busy_s",         "profile.busy_s",
    "sim.prepare_busy_s",     "stream.capture_busy_s",
    "emu.busy_s",             "stream.decode_busy_s",
    "vp.busy_s",              "uarch.busy_s",
    "sim.journal_busy_s",     "service.start_busy_s",
    "service.store_get_busy_s", "service.store_put_busy_s",
    "sim.unattributed_s",
};

/**
 * The most of the traced wall time a workload's ledger may leave
 * unattributed; above it the spans and estimates no longer explain the
 * run, and the traced run fails. grid leaves about 2% (the sweep
 * harness between runs). service leaves 10 to 35%: socket round trips,
 * the daemon's thread hand-offs and its fsync waits, which happen
 * inside the daemon where no public call of rvp_bench can time them.
 */
double
maxUnattributedShare(const Options &opts)
{
    return opts.workload == "grid" ? 0.10 : 0.50;
}

/** Per-layer value: a count, a measured time, or a ratio of those. */
double
layerValue(const std::string &name, const Outcome &o,
           const SpanRecorder &spans)
{
    auto get = [&](const std::string &key) {
        auto c = o.counts.find(key);
        if (c != o.counts.end())
            return c->second;
        auto t = o.layerTimes.find(key);
        return t != o.layerTimes.end() ? t->second : 0.0;
    };
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    if (name == "uarch.useful_ratio")
        return ratio(get("uarch.committed"), get("uarch.issued"));
    if (name == "uarch.ns_per_cycle")
        return ratio(get("uarch.busy_s") * 1e9, get("uarch.cycles"));
    if (name == "vp.accuracy")
        return ratio(get("vp.correct"), get("vp.predictions"));
    if (name == "trace.spans")
        return static_cast<double>(spans.spans().size());
    return get(name);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);
    const double steal0 = stealSeconds();
    SpanRecorder spans;

    Outcome out;
    try {
        if (opts.workload == "grid")
            out = runGrid(opts, spans);
        else
            out = runService(opts, spans);
    } catch (const std::exception &e) {
        std::cerr << "rvp_bench: " << opts.workload << ": " << e.what()
                  << "\n";
        return 1;
    }
    if (opts.trace) {
        // The ledger's terms are partly residuals (uarch.busy_s,
        // stream.capture_busy_s, sim.unattributed_s): each must be
        // non-negative, and the unattributed rest must stay small.
        for (const char *term : kLedgerTerms)
            out.check(layerValue(term, out, spans) >= 0.0,
                      std::string("ledger term ") + term + " is negative");
        double wall = layerValue("trace.wall_s", out, spans);
        out.check(wall > 0.0 &&
                      layerValue("sim.unattributed_s", out, spans) <=
                          maxUnattributedShare(opts) * wall,
                  "sim.unattributed_s exceeds its share of trace.wall_s");
    }
    for (const std::string &f : out.failures)
        std::cerr << "rvp_bench: FAILED: " << f << "\n";

    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);

    // End-to-end metrics, from the workload's medians and summaries.
    std::map<std::string, double> e2e = out.endToEnd;
    for (const char *cls : {"", "hit_", "miss_"}) {
        const LatencySummary &s =
            out.latencies[std::string(cls) + "p50_ms"];
        e2e[std::string(cls) + "p50_ms"] = s.p50;
        e2e[std::string(cls) + "tail_ms"] = s.tail;
    }

    // Human-readable summary.
    std::printf("rvp_bench %s seed %llu: %zu round(s), %zu set-up "
                "sample(s), %llu/%llu operations failed\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), out.rounds,
                out.setupSamples,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    if (!opts.trace) {
        for (const auto &[name, unit] : endToEndTable())
            std::printf("  %-14s %14.6g %s\n", name.c_str(), e2e[name],
                        unit.c_str());
        for (const auto &[name, s] : out.latencies) {
            std::printf("  %-14s %zu samples, tail = p%.2f", name.c_str(),
                        s.samples, s.tailPercentile);
            if (s.blocks > 0)
                std::printf(" (per block; median of %zu blocks)", s.blocks);
            std::printf("\n");
        }
    } else {
        for (const auto &[name, unit] : perLayerTable())
            std::printf("  %-28s %16.6g %s\n", name.c_str(),
                        layerValue(name, out, spans), unit.c_str());
        double sum = 0.0;
        for (const char *term : kLedgerTerms)
            sum += layerValue(term, out, spans);
        double wall = layerValue("trace.wall_s", out, spans);
        std::printf("  ledger: busy seconds + sim.unattributed_s = %.6f s, "
                    "traced wall %.6f s (%.1f%% unattributed, at most "
                    "%.0f%%), tracing overhead %.6f s\n",
                    sum, wall,
                    wall > 0 ? 100.0 * layerValue("sim.unattributed_s", out,
                                                  spans) / wall
                             : 0.0,
                    100.0 * maxUnattributedShare(opts),
                    layerValue("trace.overhead_s", out, spans));
    }

    // Provenance, host noise and exact counts: next to the metrics.
    std::ostringstream d;
    d << "{\"detail\": {\"workload\": \"" << opts.workload
      << "\", \"seed\": " << opts.seed
      << ", \"seconds\": " << rvp::jsonNum(opts.seconds)
      << ", \"trace\": " << (opts.trace ? 1 : 0) << ", \"size\": \""
      << (opts.tiny ? "tiny" : "full") << "\", \"git_describe\": \""
      << rvp::jsonEscape(gitDescribe()) << "\", \"build_type\": \""
      << RVP_BENCH_BUILD_TYPE << "\", \"rounds\": " << out.rounds
      << ", \"setup_samples\": " << out.setupSamples
      << ", \"cpu_user_s\": " << rvp::jsonNum(cpuSeconds(self.ru_utime))
      << ", \"cpu_sys_s\": " << rvp::jsonNum(cpuSeconds(self.ru_stime))
      << ", \"child_cpu_s\": "
      << rvp::jsonNum(cpuSeconds(children.ru_utime) +
                      cpuSeconds(children.ru_stime))
      << ", \"steal_s\": " << rvp::jsonNum(stealSeconds() - steal0)
      << ", \"latency_samples\": {";
    bool firstItem = true;
    for (const auto &[name, s] : out.latencies) {
        d << (firstItem ? "" : ", ") << "\"" << name
          << "\": {\"samples\": " << s.samples
          << ", \"tail_percentile\": " << rvp::jsonNum(s.tailPercentile)
          << ", \"blocks\": " << s.blocks << "}";
        firstItem = false;
    }
    d << "}, \"counts\": {";
    firstItem = true;
    for (const auto &[name, value] : out.counts) {
        d << (firstItem ? "" : ", ") << "\"" << name
          << "\": " << rvp::jsonNum(value);
        firstItem = false;
    }
    d << "}}}";
    std::printf("%s\n", d.str().c_str());

    if (opts.trace)
        spans.writeJsonl(runPath(opts, "spans.jsonl"));

    std::ostringstream r;
    r << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << out.attempted
      << ", \"failed\": " << out.failed << ", \"metrics\": {";
    const auto &table = opts.trace ? perLayerTable() : endToEndTable();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const auto &[name, unit] = table[i];
        double value = opts.trace ? layerValue(name, out, spans) : e2e[name];
        if (!std::isfinite(value))
            value = 0.0;   // keeps the line valid JSON; the run failed
        r << (i ? ", " : "") << "\"" << name
          << "\": {\"value\": " << rvp::jsonNum(value) << ", \"unit\": \""
          << unit << "\"}";
    }
    r << "}}";
    std::printf("%s\n", r.str().c_str());
    return 0;
}
