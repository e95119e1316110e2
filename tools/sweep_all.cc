/**
 * @file
 * sweep_all — run the full paper evaluation (Figures 3-8, Table 2,
 * and the stride-extension ablation) as one parallel sweep, emit a
 * single JSON results file, and print every figure's tables. The grid
 * comes from the figure table in sim/figures.hh. Every grid entry is
 * an independent ExperimentConfig; compilation and train-profiling
 * are memoized across the whole sweep, and results are bit-identical
 * for any --jobs value (see sim/sweep.hh).
 *
 *   sweep_all --jobs 8 --out results.json
 *   sweep_all --insts 50000 --profile-insts 50000 --figures fig05,table2
 *
 * Every grid entry is keyed by its config (configKey, sim/journal.hh),
 * and each distinct key runs once: entries that share a config share
 * its result. Every run whose first attempt succeeded is put in the
 * run store <out>.journal, so a killed sweep picks up where it left
 * off with `--resume` (runStored, sim/journal.hh, does all three).
 *
 * Run `sweep_all --help` for the full option set.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/deadline.hh"
#include "sim/build_stamp.hh"
#include "sim/figures.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sweep.hh"
#include "vp/registry.hh"
#include "workloads/workloads.hh"

using namespace rvp;

namespace
{

struct Options
{
    unsigned jobs = 0;
    std::string out = "sweep_results.json";
    /** Bench-trail path; empty = write no row. */
    std::string benchOut;
    std::uint64_t insts = 400'000;
    std::uint64_t profileInsts = 300'000;
    std::vector<std::string> workloads;   // empty = all nine
    std::vector<std::string> figures;     // empty = all
    bool fullStats = false;
    bool quiet = false;
    /** Per-run trace path prefix; empty = tracing off. */
    std::string tracePrefix;
    std::uint64_t traceSample = 64;
    bool hist = false;
    /** Committed-stream cache budget; 0 = always live emulation. */
    std::uint64_t streamCacheBytes =
        WorkloadCache::defaultStreamCacheBytes;
    /** Fill every entry whose key <out>.journal holds. */
    bool resume = false;
    /** Per-attempt wall-clock watchdog, seconds; 0 = off. */
    double runDeadline = 0.0;
    /** Exit 0 even when runs failed after their retry. */
    bool keepGoing = false;
    /** Disable the crash-safety journal entirely. */
    bool noJournal = false;
    /** Zero host-timing fields and omit the cache block in the output
     *  so a resumed sweep's JSON is byte-identical to an
     *  uninterrupted one (used by the kill-and-resume test). */
    bool stableOutput = false;
    /** Run-group chunk bound (SweepOptions); 0 = unchunked. */
    unsigned maxBatchGroup = 16;
};

void
usage()
{
    std::cout <<
        "sweep_all — full paper evaluation on the parallel sweep "
        "scheduler\n"
        "\n"
        "  --jobs N, -j N      worker threads (default: all cores)\n"
        "  --out FILE          JSON output path (sweep_results.json)\n"
        "  --bench-out FILE    append a simulator-throughput row to\n"
        "                      FILE (e.g. BENCH_perf.json; default: none)\n"
        "  --insts N           committed instructions per run (400000)\n"
        "  --profile-insts N   profiling budget per workload (300000)\n"
        "  --workloads CSV     workload filter (default: all nine)\n"
        "  --figures CSV       figures to run and print (default: all\n"
        "                      but the opt-in ones, marked *):\n";
    for (const Figure &figure : paperFigures()) {
        std::string id = figure.id + (figure.optIn ? "*" : "");
        id.resize(std::max<std::size_t>(id.size(), 13), ' ');
        std::cout << "      " << id << figure.title << "\n";
    }
    std::cout <<
        "  --list-vp           list registered predictor schemes + params\n"
        "  --full-stats        embed the complete per-run stat dumps\n"
        "  --trace-out PREFIX  write one Chrome trace JSON per run to\n"
        "                      PREFIX<figure>-<variant>-<workload>"
        ".trace.json\n"
        "  --trace-sample N    trace every Nth instruction (default: 64)\n"
        "  --hist              collect latency/occupancy histograms\n"
        "                      (visible with --full-stats)\n"
        "  --stream-cache-bytes N\n"
        "                      committed-stream replay cache budget\n"
        "                      (default 256 MiB; 0 disables replay)\n"
        "  --resume            reuse every run whose config key holds\n"
        "                      a success of this build in\n"
        "                      <out>.journal (a killed sweep picks up\n"
        "                      where it left off)\n"
        "  --run-deadline S    per-run wall-clock watchdog in seconds\n"
        "                      (fractions OK; 0 = off); an overrunning\n"
        "                      run fails and is retried degraded\n"
        "  --keep-going        exit 0 even when runs failed (failures\n"
        "                      are still reported; --resume re-runs\n"
        "                      them)\n"
        "  --no-journal        do not write the crash-safety journal\n"
        "  --stable-output     zero host-timing fields and omit cache\n"
        "                      stats so resumed and uninterrupted\n"
        "                      sweeps emit byte-identical JSON\n"
        "  --max-batch-group N runs sharing a captured stream replay\n"
        "                      one decode, up to N at a time (default\n"
        "                      16; 0 = unchunked; 1 = one decode per\n"
        "                      run; bit-identical)\n"
        "  --quiet             suppress per-run progress lines\n";
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "sweep_all: " << message << " (try --help)\n";
    std::exit(1);
}

/** Peak resident set size of this process in MiB (getrusage
 *  ru_maxrss, KiB on Linux). */
double
peakRssMb()
{
    rusage self{};
    getrusage(RUSAGE_SELF, &self);
    return static_cast<double>(self.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--jobs" || arg == "-j")
            opts.jobs = parseNumber<unsigned>(next(), arg);
        else if (arg == "--out")
            opts.out = next();
        else if (arg == "--bench-out")
            opts.benchOut = next();
        else if (arg == "--insts")
            opts.insts = parseNumber<std::uint64_t>(next(), arg);
        else if (arg == "--profile-insts")
            opts.profileInsts = parseNumber<std::uint64_t>(next(), arg);
        else if (arg == "--workloads")
            opts.workloads = splitCsv(next());
        else if (arg == "--figures")
            opts.figures = splitCsv(next());
        else if (arg == "--full-stats")
            opts.fullStats = true;
        else if (arg == "--trace-out")
            opts.tracePrefix = next();
        else if (arg == "--trace-sample")
            opts.traceSample = parseNumber<std::uint64_t>(next(), arg);
        else if (arg == "--hist")
            opts.hist = true;
        else if (arg == "--stream-cache-bytes")
            opts.streamCacheBytes = parseNumber<std::uint64_t>(next(), arg);
        else if (arg == "--resume")
            opts.resume = true;
        else if (arg == "--run-deadline")
            opts.runDeadline = parseSeconds(next(), "--run-deadline");
        else if (arg == "--keep-going")
            opts.keepGoing = true;
        else if (arg == "--no-journal")
            opts.noJournal = true;
        else if (arg == "--stable-output")
            opts.stableOutput = true;
        else if (arg == "--max-batch-group")
            opts.maxBatchGroup = parseNumber<unsigned>(next(), arg);
        else if (arg == "--list-vp") {
            listSchemes(std::cout);
            return 0;
        } else if (arg == "--quiet")
            opts.quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            die("unknown argument '" + arg + "'");
        }
    }

    if (opts.resume && opts.noJournal)
        die("--resume reads the journal that --no-journal turns off; "
            "drop one of them");

    if (opts.workloads.empty()) {
        for (const WorkloadSpec &spec : allWorkloads())
            opts.workloads.push_back(spec.name);
    }
    for (const std::string &w : opts.workloads)
        if (!findWorkload(w))
            die("unknown workload '" + w + "'");

    // Build the flat grid from the figure table (sim/figures.hh).
    ExperimentConfig base;
    base.core.maxInsts = opts.insts;
    base.profileInsts = opts.profileInsts;
    std::vector<FigureRun> entries =
        expandFigures(opts.figures, opts.workloads, base);
    for (FigureRun &entry : entries) {
        // Tracing/histogram knobs go on after the variant's edit so a
        // variant that rebuilds core params (e.g. fig08's aggressive16)
        // cannot drop them.
        entry.config.core.collectHist = opts.hist;
        if (!opts.tracePrefix.empty()) {
            entry.config.traceSample = opts.traceSample;
            entry.config.traceOut = opts.tracePrefix + entry.figure + "-" +
                                    entry.variant + "-" +
                                    entry.config.workload + ".trace.json";
        }
    }
    if (entries.empty())
        die("the grid is empty (check --figures / --workloads)");
    // Refuse a bad grid, or an output that would replace something
    // other than a file, before the journal or any run is touched.
    for (const FigureRun &entry : entries)
        validateExperimentConfig(entry.config);
    checkArtifactPath(opts.out, "--out");
    if (!opts.benchOut.empty())
        checkArtifactPath(opts.benchOut, "--bench-out");

    const std::string journal_path = opts.out + ".journal";
    checkArtifactPath(journal_path, "journal");
    // A fresh sweep starts a fresh store; --resume reads the old one.
    if (!opts.resume)
        unlink(journal_path.c_str());
    std::unique_ptr<RunStore> journal;
    if (!opts.noJournal) {
        journal = std::make_unique<RunStore>(journal_path);
        if (!journal->ok())
            die("cannot open run journal " + journal_path);
        if (journal->skippedLines() > 0 || journal->staleLines() > 0)
            std::cerr << "sweep_all: journal: skipped "
                      << journal->skippedLines()
                      << " torn, corrupt or old-format line(s) and "
                      << journal->staleLines()
                      << " stale line(s) of another model\n";
    }

    std::vector<ExperimentConfig> configs;
    configs.reserve(entries.size());
    for (const FigureRun &entry : entries)
        configs.push_back(entry.config);

    SweepOptions sweep_opts;
    sweep_opts.jobs = opts.jobs;
    sweep_opts.progress = !opts.quiet;
    sweep_opts.streamCacheBytes = opts.streamCacheBytes;
    sweep_opts.runDeadline = opts.runDeadline;
    sweep_opts.maxBatchGroupRuns = opts.maxBatchGroup;
    SweepReport report;
    std::vector<StoredRun> runs = runStored(
        configs, journal.get(), sweep_opts, &report, {},
        [&](std::size_t distinct, std::size_t toRun) {
            std::cerr << "sweep_all: " << entries.size() << " runs ("
                      << distinct << " distinct, " << toRun
                      << " to execute, " << distinct - toRun
                      << " resumed), jobs="
                      << (opts.jobs ? opts.jobs : defaultJobs()) << "\n";
        });
    std::vector<ExperimentResult> results;
    results.reserve(runs.size());
    for (StoredRun &run : runs)
        results.push_back(std::move(run.record.result));

    // Throughput comes in two honest flavours: aggregate_kips divides
    // by summed per-core simulation seconds (comparable across cache
    // hit rates and job counts — the per-core simulator speed), while
    // wall_kips divides by this invocation's wall clock (what a user
    // actually waited; the one parallelism is allowed to improve).
    // Reporting only the former made a --jobs 4 sweep look ~2x SLOWER
    // than --jobs 1 in the bench trail. Both count each distinct run
    // once, as it was simulated.
    double total_committed = 0.0;
    double total_core_seconds = 0.0;
    std::vector<std::string> distinct_keys;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].first != i)
            continue;
        total_committed += static_cast<double>(results[i].committed);
        total_core_seconds += results[i].hostSeconds;
        distinct_keys.push_back(runs[i].key);
    }
    double agg_kips =
        total_core_seconds > 0.0
            ? total_committed / total_core_seconds / 1000.0
            : 0.0;
    double wall_kips =
        report.wallSeconds > 0.0
            ? total_committed / report.wallSeconds / 1000.0
            : 0.0;

    // Emit the JSON report: composed in memory, then written through
    // writeFileAtomic so readers (and a crash mid-write) never observe
    // a partial file. --stable-output zeroes host-timing fields and
    // omits the cache block, which are the only parts that differ
    // between a resumed and an uninterrupted sweep.
    std::ostringstream os;
    os << "{\n"
       << "  \"tool\": \"sweep_all\",\n"
       << "  \"jobs\": " << report.jobs << ",\n"
       << "  \"insts\": " << opts.insts << ",\n"
       << "  \"profile_insts\": " << opts.profileInsts << ",\n"
       << "  \"wall_seconds\": "
       << jsonNum(opts.stableOutput ? 0.0 : report.wallSeconds) << ",\n";
    if (!opts.stableOutput) {
        os << "  \"model\": \"" << modelFingerprint() << "\",\n";
        os << "  \"cache\": {\"compile_hits\": "
           << report.cache.compileHits
           << ", \"compile_misses\": " << report.cache.compileMisses
           << ", \"profile_hits\": " << report.cache.profileHits
           << ", \"profile_misses\": " << report.cache.profileMisses
           << ", \"stream_hits\": " << report.cache.streamHits
           << ", \"stream_misses\": " << report.cache.streamMisses
           << ", \"stream_waits\": " << report.cache.streamWaits
           << ", \"stream_evicted\": " << report.cache.streamEvicted
           << ", \"stream_integrity_failures\": "
           << report.cache.streamIntegrityFailures
           << ", \"stream_capture_ooms\": "
           << report.cache.streamCaptureOoms
           << ", \"stream_bytes_built\": "
           << report.cache.streamBytesBuilt
           << ", \"stream_insts_built\": "
           << report.cache.streamInstsBuilt
           << ", \"stream_bytes_resident\": "
           << report.cache.streamBytesResident << "},\n";
        // Batch counters depend on execution circumstances (a resumed
        // sweep batches only what was left), so they ride with the
        // cache block that --stable-output omits.
        os << "  \"batch\": {\"groups\": " << report.batchGroups
           << ", \"batched_runs\": " << report.batchedRuns
           << ", \"fallouts\": " << report.batchFallouts << "},\n";
        os << "  \"throughput\": {\"aggregate_kips\": "
           << jsonNum(agg_kips) << ", \"wall_kips\": "
           << jsonNum(wall_kips) << "},\n";
    }
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const FigureRun &entry = entries[i];
        const ExperimentResult &r = results[i];
        os << "    {\"figure\": \"" << jsonEscape(entry.figure)
           << "\", \"variant\": \"" << jsonEscape(entry.variant)
           << "\", \"workload\": \"" << jsonEscape(entry.config.workload)
           << "\", \"scheme\": \"" << schemeName(entry.config.scheme)
           << "\", \"assist\": \"" << assistName(entry.config.assist)
           << "\", \"loads_only\": "
           << (entry.config.loadsOnly ? "true" : "false")
           << ", \"realloc\": "
           << (entry.config.realisticRealloc ? "true" : "false")
           << ", \"ipc\": " << jsonNum(r.ipc)
           << ", \"cycles\": " << r.cycles
           << ", \"committed\": " << r.committed
           << ", \"predicted_frac\": " << jsonNum(r.predictedFrac)
           << ", \"accuracy\": " << jsonNum(r.accuracy)
           << ", \"realloc_failed\": "
           << (r.reallocFailed ? "true" : "false")
           << ", \"failed\": " << (r.failed ? "true" : "false")
           << ", \"retries\": " << r.retries
           << ", \"degraded\": " << (r.degraded ? "true" : "false")
           << ", \"run_seconds\": "
           << jsonNum(opts.stableOutput ? 0.0 : runs[i].record.runSeconds)
           << ", \"kips\": "
           << jsonNum(opts.stableOutput ? 0.0 : r.kips);
        if (r.failed || r.retries > 0)
            os << ", \"error\": \"" << jsonEscape(r.error) << "\"";
        if (opts.fullStats) {
            os << ", \"stats\": {";
            bool first = true;
            for (const auto &[name, value] : r.stats.values()) {
                if (!first)
                    os << ", ";
                first = false;
                os << "\"" << jsonEscape(name)
                   << "\": " << jsonNum(value);
            }
            os << "}";
        }
        os << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    if (!writeFileAtomic(opts.out, os.str()))
        die("cannot write output file " + opts.out);

    // The figures' tables, from the results in memory.
    for (const Figure &figure : paperFigures())
        printFigure(std::cout, figure, entries, results);

    // Simulator-throughput trail: with --bench-out, one labelled JSON
    // row is APPENDED per invocation (docs/INTERNALS.md, "Simulator
    // performance"), so the file accumulates a history instead of
    // losing it; without it, no row is written anywhere. Aggregates
    // are computed over core-simulation time only, so the number is
    // comparable across cache-hit-rate differences.
    if (!opts.benchOut.empty()) {
        double peak_rss_mb = peakRssMb();
        // Min/max over completed runs only, with an explicit "nothing
        // completed" flag: a legitimate zero-KIPS run (e.g. a zero-
        // instruction budget) is a valid minimum, not "unset".
        KipsSummary kips = summarizeKips(results);
        auto rate = [](std::uint64_t hits, std::uint64_t misses) {
            return hits + misses
                       ? static_cast<double>(hits) / (hits + misses)
                       : 0.0;
        };
        double stream_bpi =
            report.cache.streamInstsBuilt
                ? static_cast<double>(report.cache.streamBytesBuilt) /
                      static_cast<double>(report.cache.streamInstsBuilt)
                : 0.0;
        // Which predictor schemes the measured grid exercised, by
        // canonical registry name (sorted, deduplicated) — so a bench
        // row is attributable to its predictor mix at a glance.
        std::vector<std::string> schemes;
        for (const FigureRun &entry : entries)
            schemes.push_back(registryNameOf(entry.config.scheme));
        std::sort(schemes.begin(), schemes.end());
        schemes.erase(std::unique(schemes.begin(), schemes.end()),
                      schemes.end());
        // The grid's identity: its sorted distinct run keys, so two
        // rows compare exactly when they simulated the same configs.
        std::sort(distinct_keys.begin(), distinct_keys.end());
        std::string grid_keys;
        for (const std::string &key : distinct_keys)
            grid_keys += key;
        // Provenance is the build's (sim/build_stamp.hh), not the
        // directory the row is written from.
        std::ostringstream bos;
        bos << "{\"tool\": \"sweep_all\""
            << ", \"git\": \"" << jsonEscape(stamp::gitDescribe) << "\""
            << ", \"build_type\": \"" << jsonEscape(stamp::buildType)
            << "\", \"sanitizer\": \"" << jsonEscape(stamp::sanitizer)
            << "\", \"model\": \"" << modelFingerprint() << "\""
            << ", \"config_hash\": \"" << hashHex(fnv1a(grid_keys))
            << "\""
            << ", \"runs\": " << entries.size()
            << ", \"distinct_runs\": " << distinct_keys.size()
            << ", \"schemes\": [";
        for (std::size_t si = 0; si < schemes.size(); ++si) {
            bos << (si ? ", " : "") << "\"" << jsonEscape(schemes[si])
                << "\"";
        }
        bos << "]"
            << ", \"jobs\": " << report.jobs
            << ", \"insts\": " << opts.insts
            << ", \"profile_insts\": " << opts.profileInsts
            << ", \"wall_seconds\": " << jsonNum(report.wallSeconds)
            << ", \"peak_rss_mb\": " << jsonNum(peak_rss_mb)
            << ", \"core_seconds\": " << jsonNum(total_core_seconds)
            << ", \"committed_insts\": " << jsonNum(total_committed)
            << ", \"aggregate_kips\": " << jsonNum(agg_kips)
            << ", \"wall_kips\": " << jsonNum(wall_kips)
            << ", \"min_run_kips\": " << jsonNum(kips.minKips)
            << ", \"max_run_kips\": " << jsonNum(kips.maxKips)
            << ", \"any_run_completed\": "
            << (kips.any ? "true" : "false")
            << ", \"batch_groups\": " << report.batchGroups
            << ", \"batched_runs\": " << report.batchedRuns
            << ", \"batch_fallouts\": " << report.batchFallouts
            << ", \"cache_hit_rates\": {\"compile\": "
            << jsonNum(rate(report.cache.compileHits,
                            report.cache.compileMisses))
            << ", \"profile\": "
            << jsonNum(rate(report.cache.profileHits,
                            report.cache.profileMisses))
            << ", \"stream\": "
            << jsonNum(rate(report.cache.streamHits,
                            report.cache.streamMisses))
            << "}, \"stream\": {\"evicted\": "
            << report.cache.streamEvicted
            << ", \"bytes_built\": " << report.cache.streamBytesBuilt
            << ", \"insts_built\": " << report.cache.streamInstsBuilt
            << ", \"bytes_per_inst\": " << jsonNum(stream_bpi)
            << ", \"resident_bytes\": "
            << report.cache.streamBytesResident << "}}";
        // The trail is append-only history: each row goes through the
        // write-temp-then-rename path, so a crash mid-append can never
        // tear a row or truncate the rows already there.
        if (!appendLineAtomic(opts.benchOut, bos.str()))
            die("cannot append to bench output file " + opts.benchOut);
        std::cerr << "sweep_all: throughput " << jsonNum(agg_kips)
                  << " KIPS per-core aggregate, " << jsonNum(wall_kips)
                  << " KIPS wall-clock -> appended to " << opts.benchOut
                  << "\n";
    }

    std::cerr << "sweep_all: wrote " << entries.size() << " results to "
              << opts.out << " in " << report.wallSeconds
              << "s (compile cache " << report.cache.compileHits
              << "/" << report.cache.compileHits + report.cache.compileMisses
              << " hits, profile cache " << report.cache.profileHits
              << "/" << report.cache.profileHits + report.cache.profileMisses
              << " hits, stream cache " << report.cache.streamHits
              << "/" << report.cache.streamHits + report.cache.streamMisses
              << " hits, " << report.cache.streamEvicted << " evicted, "
              << report.cache.streamIntegrityFailures
              << " integrity failures, " << report.cache.streamCaptureOoms
              << " capture OOMs, " << report.cache.streamBytesResident
              << " bytes resident)\n";

    // Run summary, printed even under --quiet: every run that still
    // failed after its retry, and every run that succeeded only on a
    // degraded retry (without its trace or histograms), each with its
    // first attempt's error. The exit code tells CI about failures;
    // --keep-going keeps exit 0 for best-effort sweeps (the journal
    // survives for a later --resume).
    std::vector<std::size_t> failures, degraded;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (results[i].failed)
            failures.push_back(i);
        else if (results[i].retries > 0)
            degraded.push_back(i);
    }
    auto listRuns = [&](const std::vector<std::size_t> &runs,
                        const char *what) {
        if (runs.empty())
            return;
        std::cerr << "sweep_all: " << runs.size() << " of "
                  << entries.size() << " runs " << what << ":\n";
        std::cerr << "  config                                   "
                     "retries  error\n";
        for (std::size_t i : runs) {
            char line[128];
            std::snprintf(line, sizeof(line), "  %-40s %7u  ",
                          (entries[i].figure + "/" + entries[i].variant +
                           "/" + entries[i].config.workload)
                              .c_str(),
                          results[i].retries);
            std::cerr << line << results[i].error << "\n";
        }
    };
    listRuns(failures, "FAILED after retry");
    listRuns(degraded, "succeeded only on a degraded retry");
    if (!opts.noJournal) {
        if (failures.empty()) {
            // Nothing left to resume: the results file is complete
            // and durable, so the journal has served its purpose.
            unlink(journal_path.c_str());
        } else {
            std::cerr << "sweep_all: journal kept at " << journal_path
                      << " (rerun with --resume to retry failures)\n";
        }
    }
    if (!failures.empty() && !opts.keepGoing)
        return 2;
    return 0;
} catch (const ConfigError &e) {
    die(e.what());
}
