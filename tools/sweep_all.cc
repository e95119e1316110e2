/**
 * @file
 * sweep_all — run the full paper evaluation (Figures 3-8, Table 2,
 * and the stride-extension ablation) as one parallel sweep and emit a
 * single JSON results file. Every grid entry is an independent
 * ExperimentConfig; compilation and train-profiling are memoized
 * across the whole sweep, and results are bit-identical for any
 * --jobs value (see sim/sweep.hh).
 *
 *   sweep_all --jobs 8 --out results.json
 *   sweep_all --insts 50000 --profile-insts 50000 --figures fig05,table2
 *
 * Every finished run is journaled to <out>.journal, so a killed sweep
 * picks up where it left off with `--resume` (sim/journal.hh).
 *
 * Run `sweep_all --help` for the full option set.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/deadline.hh"
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
    /** Group runs by stream key and replay each decode once
     *  (sim/batchrun.hh); results are bit-identical either way. */
    bool batchReplay = true;
    /** Load <out>.journal and skip runs journaled as successful. */
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
    /** Batched-replay group chunk bound (SweepOptions); 0 = unchunked. */
    unsigned maxBatchGroup = 16;
};

/** One grid entry: a figure's variant applied to one workload. */
struct GridEntry
{
    std::string figure;
    std::string variant;
    ExperimentConfig config;
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
        "  --figures CSV       figure filter: fig03,fig04,fig05,fig06,\n"
        "                      fig07,fig08,table2,stride (default: all);\n"
        "                      opt-in extras (never in the default set):\n"
        "                      headtohead — predictor-zoo grid (LVP vs\n"
        "                      RVP vs stride/balcvp/fcm/oracle)\n"
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
        "  --batch-replay      group runs sharing a captured stream and\n"
        "                      decode it once for the whole group\n"
        "                      (default; bit-identical to solo replay)\n"
        "  --no-batch-replay   one decode pass per run instead\n"
        "  --resume            skip runs already journaled as\n"
        "                      successful in <out>.journal (a killed\n"
        "                      sweep picks up where it left off)\n"
        "  --run-deadline S    per-run wall-clock watchdog in seconds\n"
        "                      (fractions OK; 0 = off); an overrunning\n"
        "                      run fails and is retried degraded\n"
        "  --keep-going        exit 0 even when runs failed (failures\n"
        "                      are still reported and journaled)\n"
        "  --no-journal        do not write the crash-safety journal\n"
        "  --stable-output     zero host-timing fields and omit cache\n"
        "                      stats so resumed and uninterrupted\n"
        "                      sweeps emit byte-identical JSON\n"
        "  --max-batch-group N bound batched-replay groups to N runs\n"
        "                      (default 16; 0 = unchunked;\n"
        "                      bit-identical)\n"
        "  --quiet             suppress per-run progress lines\n";
}

[[noreturn]] void
die(const std::string &message)
{
    std::cerr << "sweep_all: " << message << " (try --help)\n";
    std::exit(1);
}

/** `git describe` label for bench rows; "unknown" outside a repo. */
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
    if (rc != 0 || out.empty())
        return "unknown";
    return out;
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

/**
 * FNV-1a hash of every option that shapes the measured grid, so two
 * bench rows are throughput-comparable exactly when their hashes
 * match. --jobs, --stream-cache-bytes, and --batch-replay are
 * deliberately excluded: they change how fast the work is done, not
 * what work the sweep does, and comparing rows across them is the
 * point of the trail.
 */
std::string
configHash(const Options &opts)
{
    std::uint64_t h = fnv1a("insts=" + std::to_string(opts.insts));
    h = fnv1a("profile_insts=" + std::to_string(opts.profileInsts), h);
    h = fnv1a("hist=" + std::to_string(opts.hist), h);
    for (const std::string &w : opts.workloads)
        h = fnv1a("workload=" + w, h);
    for (const std::string &f : opts.figures)
        h = fnv1a("figure=" + f, h);
    return hashHex(h);
}

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** The per-figure variant lists, mirroring the bench/ binaries. */
struct FigureSpec
{
    const char *figure;
    /** Workload filter for the figure (empty = the sweep's set). */
    std::vector<std::string> workloads;
    std::vector<std::pair<std::string,
                          std::function<void(ExperimentConfig &)>>>
        variants;
    /**
     * Opt-in figures run only when named in --figures, never as part
     * of the default "all" set — the default 308-run paper grid (and
     * its journal/report identity) must not change when extras are
     * added.
     */
    bool optIn = false;
};

std::vector<FigureSpec>
paperGrid()
{
    using C = ExperimentConfig;
    auto selective = [](C &c) {
        c.core.recovery = RecoveryPolicy::Selective;
    };
    auto lvp = [](C &c) { c.scheme = VpScheme::Lvp; };
    auto grp = [](C &c) { c.scheme = VpScheme::GabbayRp; };
    auto srvp = [](AssistLevel a) {
        return [a](C &c) {
            c.scheme = VpScheme::StaticRvp;
            c.assist = a;
        };
    };
    auto drvp = [](AssistLevel a) {
        return [a](C &c) {
            c.scheme = VpScheme::DynamicRvp;
            c.assist = a;
        };
    };
    auto all_insts = [](C &c) { c.loadsOnly = false; };
    auto compose = [](std::vector<std::function<void(C &)>> fns) {
        return [fns](C &c) {
            for (const auto &fn : fns)
                fn(c);
        };
    };

    std::vector<FigureSpec> grid;

    // Figure 3: static RVP, selective reissue, 80% threshold.
    auto thresh80 = [](C &c) { c.profileThreshold = 0.8; };
    auto fig03_base = compose({selective, thresh80});
    grid.push_back(
        {"fig03",
         {},
         {{"no_predict", fig03_base},
          {"lvp", compose({fig03_base, lvp})},
          {"srvp_same", compose({fig03_base, srvp(AssistLevel::Same)})},
          {"srvp_dead", compose({fig03_base, srvp(AssistLevel::Dead)})},
          {"srvp_live", compose({fig03_base, srvp(AssistLevel::Live)})},
          {"srvp_live_lv",
           compose({fig03_base, srvp(AssistLevel::LiveLv)})}}});

    // Figure 4: recovery mechanisms, srvp_dead, 90% threshold.
    auto thresh90 = [](C &c) { c.profileThreshold = 0.9; };
    auto recovery = [](RecoveryPolicy p) {
        return [p](C &c) { c.core.recovery = p; };
    };
    grid.push_back(
        {"fig04",
         {},
         {{"no_predict", thresh90},
          {"srvp_refetch",
           compose({thresh90, srvp(AssistLevel::Dead),
                    recovery(RecoveryPolicy::Refetch)})},
          {"srvp_reissue",
           compose({thresh90, srvp(AssistLevel::Dead),
                    recovery(RecoveryPolicy::Reissue)})},
          {"srvp_selective",
           compose({thresh90, srvp(AssistLevel::Dead), selective})}}});

    // Figure 5: dynamic RVP, loads only.
    grid.push_back(
        {"fig05",
         {},
         {{"no_predict", selective},
          {"lvp", compose({selective, lvp})},
          {"drvp", compose({selective, drvp(AssistLevel::Same)})},
          {"drvp_dead", compose({selective, drvp(AssistLevel::Dead)})},
          {"drvp_dead_lv",
           compose({selective, drvp(AssistLevel::DeadLv)})}}});

    // Figure 6: dynamic RVP, all register-writing instructions.
    grid.push_back(
        {"fig06",
         {},
         {{"no_predict", compose({selective, all_insts})},
          {"lvp_all", compose({selective, all_insts, lvp})},
          {"grp_all", compose({selective, all_insts, grp})},
          {"drvp_all",
           compose({selective, all_insts, drvp(AssistLevel::Same)})},
          {"drvp_all_dead",
           compose({selective, all_insts, drvp(AssistLevel::Dead)})},
          {"drvp_all_dead_lv",
           compose({selective, all_insts, drvp(AssistLevel::DeadLv)})}}});

    // Table 2: coverage/accuracy, all instructions.
    grid.push_back(
        {"table2",
         {},
         {{"drvp_dead",
           compose({selective, all_insts, drvp(AssistLevel::Dead)})},
          {"drvp_dead_lv",
           compose({selective, all_insts, drvp(AssistLevel::DeadLv)})},
          {"lvp", compose({selective, all_insts, lvp})},
          {"grp", compose({selective, all_insts, grp})}}});

    // Figure 7: realistic re-allocation (paper's four workloads).
    auto realloc_cfg = [](C &c) {
        c.scheme = VpScheme::DynamicRvp;
        c.realisticRealloc = true;
    };
    grid.push_back(
        {"fig07",
         {"hydro2d", "li", "mgrid", "su2cor"},
         {{"no_predict", compose({selective, all_insts})},
          {"lvp", compose({selective, all_insts, lvp})},
          {"drvp_all_noreallocate",
           compose({selective, all_insts, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv_realloc",
           compose({selective, all_insts, realloc_cfg})},
          {"drvp_all_dead_lv_ideal",
           compose({selective, all_insts, drvp(AssistLevel::DeadLv)})}}});

    // Figure 8: the aggressive 16-wide core.
    auto wide = [](C &c) {
        std::uint64_t budget = c.core.maxInsts;
        c.core = CoreParams::aggressive16();
        c.core.maxInsts = budget;
        c.core.recovery = RecoveryPolicy::Selective;
        c.loadsOnly = false;
    };
    grid.push_back(
        {"fig08",
         {},
         {{"no_predict", wide},
          {"lvp_all", compose({wide, lvp})},
          {"drvp_all", compose({wide, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv",
           compose({wide, drvp(AssistLevel::DeadLv)})}}});

    // Stride extension ablation.
    grid.push_back(
        {"stride",
         {},
         {{"no_predict", compose({selective, all_insts})},
          {"drvp_dead_lv",
           compose({selective, all_insts, drvp(AssistLevel::DeadLv)})},
          {"drvp_dead_lv_stride",
           compose(
               {selective, all_insts,
                drvp(AssistLevel::DeadLvStride)})}}});

    // Predictor-zoo head-to-head (opt-in: --figures headtohead). The
    // paper's storageless RVP against the storage-backed competition
    // from the registry — LVP, the 721sim-style stride predictor,
    // BALCVP, order-2 FCM — bracketed by the no-prediction baseline
    // and the oracle upper bound. All register-writing instructions,
    // selective reissue, default table geometries.
    auto zoo = [](VpScheme s) {
        return [s](C &c) { c.scheme = s; };
    };
    grid.push_back(
        {"headtohead",
         {},
         {{"no_predict", compose({selective, all_insts})},
          {"lvp_all", compose({selective, all_insts, lvp})},
          {"drvp_all",
           compose({selective, all_insts, drvp(AssistLevel::Same)})},
          {"drvp_all_dead_lv",
           compose({selective, all_insts, drvp(AssistLevel::DeadLv)})},
          {"stride_all",
           compose({selective, all_insts, zoo(VpScheme::Stride)})},
          {"balcvp_all",
           compose({selective, all_insts, zoo(VpScheme::Balcvp)})},
          {"fcm_all",
           compose({selective, all_insts, zoo(VpScheme::Fcm)})},
          {"oracle_all",
           compose({selective, all_insts, zoo(VpScheme::Oracle)})}},
         /*optIn=*/true});

    return grid;
}

// JSON escaping/number formatting come from sim/journal.hh
// (rvp::jsonEscape / rvp::jsonNum — %.17g round-trips exactly, which
// the resume path depends on).

/** Identity key of one grid entry within a sweep (the sweep-level
 *  options are pinned separately by configHash). */
std::string
runKey(const GridEntry &entry)
{
    std::uint64_t h = fnv1a(entry.figure);
    h = fnv1a(entry.variant, h);
    h = fnv1a(entry.config.workload, h);
    return hashHex(h);
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
        else if (arg == "--batch-replay")
            opts.batchReplay = true;
        else if (arg == "--no-batch-replay")
            opts.batchReplay = false;
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

    // Build the flat grid.
    std::vector<GridEntry> entries;
    for (const FigureSpec &fig : paperGrid()) {
        // Opt-in figures need an explicit --figures mention; they are
        // never part of the default "all" set.
        bool selected = opts.figures.empty()
                            ? !fig.optIn
                            : contains(opts.figures, fig.figure);
        if (!selected)
            continue;
        const std::vector<std::string> &fig_workloads =
            fig.workloads.empty() ? opts.workloads : fig.workloads;
        for (const std::string &workload : fig_workloads) {
            if (!contains(opts.workloads, workload))
                continue;
            for (const auto &[name, apply] : fig.variants) {
                GridEntry entry;
                entry.figure = fig.figure;
                entry.variant = name;
                entry.config.workload = workload;
                entry.config.core.maxInsts = opts.insts;
                entry.config.profileInsts = opts.profileInsts;
                apply(entry.config);
                // Tracing/histogram knobs go on after apply() so a
                // variant that rebuilds core params (e.g. fig08's
                // aggressive16) cannot drop them.
                entry.config.core.collectHist = opts.hist;
                if (!opts.tracePrefix.empty()) {
                    entry.config.traceSample = opts.traceSample;
                    entry.config.traceOut = opts.tracePrefix +
                                            entry.figure + "-" +
                                            entry.variant + "-" +
                                            workload + ".trace.json";
                }
                entries.push_back(std::move(entry));
            }
        }
    }
    if (entries.empty())
        die("the grid is empty (check --figures / --workloads)");
    // Refuse a bad grid before the journal or any run is touched.
    for (const GridEntry &entry : entries)
        validateExperimentConfig(entry.config);

    const std::string sweep_hash = configHash(opts);
    const std::string journal_path = opts.out + ".journal";
    std::vector<std::string> keys;
    keys.reserve(entries.size());
    for (const GridEntry &entry : entries)
        keys.push_back(runKey(entry));

    // Resume: load the journal once and pre-fill every run it records
    // as successful; only the rest is executed. Failed records are
    // re-run (they may succeed this time, and the retry's journal line
    // supersedes theirs — later records win).
    std::vector<ExperimentResult> results(entries.size());
    std::vector<double> run_seconds(entries.size(), 0.0);
    std::vector<bool> resumed(entries.size(), false);
    bool journal_has_header = false;
    if (opts.resume) {
        RunJournal::Loaded loaded;
        try {
            loaded = loadJournalForResume(journal_path, sweep_hash);
        } catch (const std::runtime_error &e) {
            die(e.what());
        }
        if (loaded.skippedLines > 0)
            std::cerr << "sweep_all: journal: skipped "
                      << loaded.skippedLines
                      << " torn/corrupt line(s)\n";
        journal_has_header = !loaded.sweepHash.empty();
        for (std::size_t i = 0; i < entries.size(); ++i) {
            auto it = loaded.runs.find(keys[i]);
            if (it == loaded.runs.end() || it->second.result.failed)
                continue;
            results[i] = it->second.result;
            run_seconds[i] = it->second.runSeconds;
            resumed[i] = true;
        }
    } else {
        // A fresh sweep must not inherit a stale journal: a key
        // collision with an old run would silently skip work on a
        // later --resume.
        unlink(journal_path.c_str());
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (!resumed[i])
            pending.push_back(i);

    std::cerr << "sweep_all: " << entries.size() << " runs ("
              << pending.size() << " to execute, "
              << entries.size() - pending.size() << " resumed), jobs="
              << (opts.jobs ? opts.jobs : defaultJobs()) << "\n";

    std::unique_ptr<RunJournal> journal;
    if (!opts.noJournal && !pending.empty()) {
        journal = std::make_unique<RunJournal>(journal_path);
        if (!journal->ok())
            die("cannot open run journal " + journal_path);
        // Header once per journal file (a resumed one has one).
        if (!journal_has_header)
            journal->appendSweepHeader(sweep_hash);
    }

    std::vector<ExperimentConfig> configs;
    configs.reserve(pending.size());
    for (std::size_t i : pending)
        configs.push_back(entries[i].config);

    SweepOptions sweep_opts;
    sweep_opts.jobs = opts.jobs;
    sweep_opts.progress = !opts.quiet;
    sweep_opts.streamCapture = opts.streamCacheBytes > 0;
    sweep_opts.streamCacheBytes = opts.streamCacheBytes;
    sweep_opts.runDeadline = opts.runDeadline;
    sweep_opts.batchReplay = opts.batchReplay;
    sweep_opts.maxBatchGroupRuns = opts.maxBatchGroup;
    if (journal) {
        sweep_opts.onRunComplete = [&](std::size_t pi,
                                       const ExperimentResult &result,
                                       double seconds) {
            std::size_t i = pending[pi];
            JournalRecord rec;
            rec.key = keys[i];
            rec.figure = entries[i].figure;
            rec.variant = entries[i].variant;
            rec.workload = entries[i].config.workload;
            rec.runSeconds = seconds;
            rec.result = result;
            journal->append(rec);
        };
    }
    SweepReport report;
    std::vector<ExperimentResult> executed =
        runSweep(configs, sweep_opts, &report);
    for (std::size_t pi = 0; pi < pending.size(); ++pi) {
        results[pending[pi]] = std::move(executed[pi]);
        run_seconds[pending[pi]] = report.runSeconds[pi];
    }

    // Throughput comes in two honest flavours: aggregate_kips divides
    // by summed per-core simulation seconds (comparable across cache
    // hit rates and job counts — the per-core simulator speed), while
    // wall_kips divides by this invocation's wall clock (what a user
    // actually waited; the one parallelism is allowed to improve).
    // Reporting only the former made a --jobs 4 sweep look ~2x SLOWER
    // than --jobs 1 in the bench trail.
    double total_committed = 0.0;
    double total_core_seconds = 0.0;
    for (const ExperimentResult &r : results) {
        total_committed += static_cast<double>(r.committed);
        total_core_seconds += r.hostSeconds;
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
        os << "  \"batch\": {\"enabled\": "
           << (opts.batchReplay ? "true" : "false")
           << ", \"groups\": " << report.batchGroups
           << ", \"batched_runs\": " << report.batchedRuns
           << ", \"fallouts\": " << report.batchFallouts << "},\n";
        os << "  \"throughput\": {\"aggregate_kips\": "
           << jsonNum(agg_kips) << ", \"wall_kips\": "
           << jsonNum(wall_kips) << "},\n";
    }
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const GridEntry &entry = entries[i];
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
           << jsonNum(opts.stableOutput ? 0.0 : run_seconds[i])
           << ", \"kips\": "
           << jsonNum(opts.stableOutput ? 0.0 : r.kips);
        if (r.failed)
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

    // Simulator-throughput trail: with --bench-out, one labelled JSON
    // row is APPENDED per invocation (docs/INTERNALS.md, "Simulator
    // performance"), so the file accumulates a history instead of
    // losing it; without it, no row is written anywhere. Aggregates
    // are computed over core-simulation time only, so the number is
    // comparable across cache-hit-rate differences.
    if (!opts.benchOut.empty()) {
        // Read before gitDescribe() adds a child process of its own.
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
        for (const GridEntry &entry : entries)
            schemes.push_back(registryNameOf(entry.config.scheme));
        std::sort(schemes.begin(), schemes.end());
        schemes.erase(std::unique(schemes.begin(), schemes.end()),
                      schemes.end());
        std::ostringstream bos;
        bos << "{\"tool\": \"sweep_all\""
            << ", \"git\": \"" << jsonEscape(gitDescribe()) << "\""
            << ", \"config_hash\": \"" << configHash(opts) << "\""
            << ", \"runs\": " << entries.size()
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
            << ", \"batch_replay\": "
            << (opts.batchReplay ? "true" : "false")
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

    // Failure summary (S1): every run still failed after its retry is
    // listed; the exit code tells CI. --keep-going keeps exit 0 for
    // best-effort sweeps (the journal survives for a later --resume).
    std::vector<std::size_t> failures;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (results[i].failed)
            failures.push_back(i);
    if (!failures.empty()) {
        std::cerr << "sweep_all: " << failures.size() << " of "
                  << entries.size() << " runs FAILED after retry:\n";
        std::cerr << "  config                                   "
                     "retries  error\n";
        for (std::size_t i : failures) {
            char line[256];
            std::snprintf(line, sizeof(line), "  %-40s %7u  %s\n",
                          (entries[i].figure + "/" + entries[i].variant +
                           "/" + entries[i].config.workload)
                              .c_str(),
                          results[i].retries, results[i].error.c_str());
            std::cerr << line;
        }
    }
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
