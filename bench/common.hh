/**
 * @file
 * Shared scaffolding for the figure/table benchmark binaries: run
 * configuration from the command line and the environment,
 * per-workload sweeps through the parallel sweep scheduler
 * (sim/sweep.hh), speedup computation, and uniform output.
 *
 * Command-line flags (every figure/table binary):
 *   --jobs N, -j N           worker threads (default: all cores)
 *   --serial                 shorthand for --jobs 1
 *   --quiet                  suppress per-run progress lines
 *
 * Environment knobs:
 *   RVP_BENCH_INSTS          committed instructions per run (400000)
 *   RVP_BENCH_PROFILE_INSTS  profiling instructions (300000)
 *   RVP_BENCH_WORKLOADS      comma-separated workload filter (all)
 *   RVP_BENCH_JOBS           worker threads (flags take precedence)
 */

#ifndef RVP_BENCH_COMMON_HH
#define RVP_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "sim/tables.hh"
#include "workloads/workloads.hh"

namespace rvp::bench
{

/** Environment knob `name`, parsed by parseNumber<T>. */
template <typename T>
T
envNumber(const char *name, T fallback)
{
    const char *value = std::getenv(name);
    return value ? parseNumber<T>(value, name) : fallback;
}

/** Options shared by every bench binary (set by init()). */
struct BenchOptions
{
    unsigned jobs = 0;       ///< 0 = defaultJobs()
    bool progress = true;
};

inline BenchOptions &
benchOptions()
{
    static BenchOptions options{envNumber<unsigned>("RVP_BENCH_JOBS", 0),
                                true};
    return options;
}

inline SweepOptions
benchSweepOptions()
{
    SweepOptions options;
    options.jobs = benchOptions().jobs;
    options.progress = benchOptions().progress;
    return options;
}

inline std::vector<std::string>
benchWorkloads()
{
    std::vector<std::string> names;
    const char *filter = std::getenv("RVP_BENCH_WORKLOADS");
    if (!filter) {
        for (const WorkloadSpec &spec : allWorkloads())
            names.push_back(spec.name);
        return names;
    }
    return splitCsv(filter);
}

/** Base experiment config with the bench-wide budgets applied. */
inline ExperimentConfig
baseConfig(const std::string &workload)
{
    ExperimentConfig config;
    config.workload = workload;
    config.core.maxInsts =
        envNumber<std::uint64_t>("RVP_BENCH_INSTS", 400'000);
    config.profileInsts =
        envNumber<std::uint64_t>("RVP_BENCH_PROFILE_INSTS", 300'000);
    return config;
}

/**
 * Parse the common bench flags (--jobs/-j N, --serial, --quiet,
 * --help) and check the environment knobs with
 * validateExperimentConfig. Unknown arguments and bad input exit 1 so
 * typos don't silently run the full default sweep.
 */
inline void
init(int argc, char **argv)
try {
    benchOptions();   // reads RVP_BENCH_JOBS
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            if (i + 1 >= argc) {
                std::cerr << argv[0] << ": missing value for " << arg
                          << "\n";
                std::exit(1);
            }
            benchOptions().jobs = parseNumber<unsigned>(argv[++i], arg);
        } else if (arg == "--serial") {
            benchOptions().jobs = 1;
        } else if (arg == "--quiet") {
            benchOptions().progress = false;
        } else if (arg == "--help" || arg == "-h") {
            std::cout << argv[0]
                      << " [--jobs N|-j N] [--serial] [--quiet]\n"
                         "env: RVP_BENCH_INSTS, RVP_BENCH_PROFILE_INSTS,\n"
                         "     RVP_BENCH_WORKLOADS, RVP_BENCH_JOBS\n";
            std::exit(0);
        } else {
            std::cerr << argv[0] << ": unknown argument '" << arg
                      << "' (try --help)\n";
            std::exit(1);
        }
    }
    for (const std::string &workload : benchWorkloads())
        validateExperimentConfig(baseConfig(workload));
} catch (const ConfigError &e) {
    std::cerr << argv[0] << ": " << e.what() << "\n";
    std::exit(1);
}

/** A named experiment variant applied on top of the base config. */
struct Variant
{
    std::string name;
    void (*apply)(ExperimentConfig &);
};

/** Print the sweep's wall-clock and cache-effectiveness summary. */
inline void
reportSweep(const SweepReport &report)
{
    std::cerr << "  sweep: " << report.runSeconds.size() << " runs in "
              << TextTable::num(report.wallSeconds, 2) << "s at jobs="
              << report.jobs << " (compile cache "
              << report.cache.compileHits << " hits / "
              << report.cache.compileMisses << " misses, profile cache "
              << report.cache.profileHits << " hits / "
              << report.cache.profileMisses << " misses)\n";
}

/**
 * Run all variants over all workloads on the parallel sweep
 * scheduler; returns result[workload][variant]. Results are
 * bit-identical for any --jobs value.
 */
inline std::map<std::string, std::map<std::string, ExperimentResult>>
sweep(const std::vector<Variant> &variants,
      void (*common)(ExperimentConfig &) = nullptr)
{
    std::vector<std::string> workloads = benchWorkloads();
    std::vector<ExperimentConfig> configs;
    configs.reserve(workloads.size() * variants.size());
    for (const std::string &workload : workloads) {
        for (const Variant &variant : variants) {
            ExperimentConfig config = baseConfig(workload);
            if (common)
                common(config);
            variant.apply(config);
            configs.push_back(std::move(config));
        }
    }

    SweepReport report;
    std::vector<ExperimentResult> results =
        runSweep(configs, benchSweepOptions(), &report);
    reportSweep(report);

    std::map<std::string, std::map<std::string, ExperimentResult>> out;
    std::size_t idx = 0;
    for (const std::string &workload : workloads)
        for (const Variant &variant : variants)
            out[workload][variant.name] = std::move(results[idx++]);
    return out;
}

/** Geometric-mean-free average used by the paper's "average" bars. */
inline double
mean(const std::vector<double> &values)
{
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

} // namespace rvp::bench

#endif // RVP_BENCH_COMMON_HH
