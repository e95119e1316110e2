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
 *   sweep_all --workers 4 --out results.json     # multi-process shards
 *
 * `--workers N` runs the grid across N forked worker processes driven
 * by the work-stealing coordinator in sim/shard.hh (each worker is
 * this same binary in hidden `--worker` mode); results come back
 * through per-worker journals and merge into the identical report a
 * single-process run would write.
 *
 * Run `sweep_all --help` for the full option set.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/subprocess.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/shard.hh"
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
    std::string benchOut = "BENCH_perf.json";
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
    /** Worker processes for a sharded sweep; 0 = single process. */
    unsigned workers = 0;
    /** Batched-replay group chunk bound (SweepOptions) and sharded
     *  work-unit size bound; 0 = unchunked. */
    unsigned maxBatchGroup = 16;
    /** Print the partitioned work units and exit (shard debugging). */
    bool dryRun = false;
    /** Hidden: act as a sharded-sweep worker on stdin/stdout. */
    bool workerMode = false;
    /** Hidden: the journal this worker appends its runs to. */
    std::string workerJournal;
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
        "  --bench-out FILE    simulator-throughput report path\n"
        "                      (BENCH_perf.json)\n"
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
        "  --workers N         shard the grid across N forked worker\n"
        "                      processes with work stealing (0 =\n"
        "                      single process; results are identical)\n"
        "  --max-batch-group N bound batched-replay groups and sharded\n"
        "                      work units to N runs (default 16;\n"
        "                      0 = unchunked; bit-identical)\n"
        "  --dry-run           print the partitioned work units (run\n"
        "                      keys per unit) and exit\n"
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

/**
 * Peak resident set size in MiB (getrusage ru_maxrss, KiB on Linux):
 * this process, or the largest child it has waited for (a --workers
 * shard worker) when that is larger.
 */
double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(
               std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
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
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
        h ^= 0xff;   // field separator
        h *= 1099511628211ull;
    };
    mix("insts=" + std::to_string(opts.insts));
    mix("profile_insts=" + std::to_string(opts.profileInsts));
    mix("hist=" + std::to_string(opts.hist));
    for (const std::string &w : opts.workloads)
        mix("workload=" + w);
    for (const std::string &f : opts.figures)
        mix("figure=" + f);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

bool
wants(const Options &opts, const std::string &figure)
{
    if (opts.figures.empty())
        return true;
    for (const std::string &f : opts.figures)
        if (f == figure)
            return true;
    return false;
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

// ---------------------------------------------------------------------
// Sharded-sweep support (sim/shard.hh): the same binary is both the
// coordinator (--workers N) and each worker (--worker, spawned by the
// coordinator with the full grid-shaping option set forwarded so both
// sides build the identical grid and sweep hash).
// ---------------------------------------------------------------------

std::string
joinCsv(const std::vector<std::string> &items)
{
    std::string out;
    for (const std::string &item : items) {
        if (!out.empty())
            out += ',';
        out += item;
    }
    return out;
}

/** This executable's path, for execv (no PATH search) in workers. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

/**
 * argv for one worker process. Everything that shapes the grid or the
 * per-run behaviour is forwarded explicitly (workloads post-default,
 * so the worker's configHash matches even though the parent's CLI
 * left them implicit); execution-shape options (--workers, --resume,
 * --out) deliberately are not — the worker neither shards further nor
 * writes a report.
 */
std::vector<std::string>
workerArgs(const Options &opts, const std::string &bin,
           const std::string &journalPath)
{
    std::vector<std::string> args{bin,
                                  "--worker",
                                  "--worker-journal",
                                  journalPath,
                                  "--jobs",
                                  "1"};
    args.push_back("--insts");
    args.push_back(std::to_string(opts.insts));
    args.push_back("--profile-insts");
    args.push_back(std::to_string(opts.profileInsts));
    args.push_back("--workloads");
    args.push_back(joinCsv(opts.workloads));
    if (!opts.figures.empty()) {
        args.push_back("--figures");
        args.push_back(joinCsv(opts.figures));
    }
    if (opts.hist)
        args.push_back("--hist");
    if (!opts.tracePrefix.empty()) {
        args.push_back("--trace-out");
        args.push_back(opts.tracePrefix);
        args.push_back("--trace-sample");
        args.push_back(std::to_string(opts.traceSample));
    }
    args.push_back("--stream-cache-bytes");
    args.push_back(std::to_string(opts.streamCacheBytes));
    args.push_back(opts.batchReplay ? "--batch-replay"
                                    : "--no-batch-replay");
    if (opts.runDeadline > 0.0) {
        args.push_back("--run-deadline");
        args.push_back(jsonNum(opts.runDeadline));
    }
    args.push_back("--max-batch-group");
    args.push_back(std::to_string(opts.maxBatchGroup));
    if (opts.quiet)
        args.push_back("--quiet");
    return args;
}

/**
 * Worker main loop: hello on stdout, then serve `unit` requests until
 * `shutdown` or coordinator EOF. Every finished run is journaled
 * (fsync'd) BEFORE the unit's `done` frame goes out — the pipe is
 * control plane only, so a torn pipe never loses results. One
 * WorkloadCache persists across all units this worker is handed, so
 * compile/profile/stream sharing matches a single-process sweep's.
 */
int
runWorker(const Options &opts, const std::vector<GridEntry> &entries,
          const std::vector<std::string> &keys,
          const std::string &sweep_hash)
{
    ScopedSigpipeIgnore sigpipe;

    RunJournal journal(opts.workerJournal);
    if (!journal.ok())
        die("cannot open worker journal " + opts.workerJournal);
    // A respawned worker reuses its predecessor's journal; only write
    // the sweep header when no prior header survives.
    if (RunJournal::load(opts.workerJournal).sweepHash.empty())
        journal.appendSweepHeader(sweep_hash);

    WorkloadCache cache(opts.streamCacheBytes);

    if (!writeFrame(STDOUT_FILENO, encodeHello(sweep_hash,
                                               entries.size())))
        return 1;

    FrameReader reader(STDIN_FILENO);
    for (;;) {
        std::optional<std::string> payload;
        try {
            while (!(payload = reader.next())) {
                if (!reader.fill())
                    return 0;   // coordinator went away; journal holds
                                // everything already completed
            }
        } catch (const std::exception &e) {
            std::cerr << "sweep_all worker: bad frame: " << e.what()
                      << "\n";
            return 1;
        }
        ShardMsg msg;
        try {
            msg = decodeShardMsg(*payload);
        } catch (const std::exception &e) {
            std::cerr << "sweep_all worker: bad message: " << e.what()
                      << "\n";
            return 1;
        }
        if (msg.type == "shutdown") {
            writeFrame(STDOUT_FILENO, encodeBye(cache.stats()));
            return 0;
        }
        if (msg.type != "unit") {
            std::cerr << "sweep_all worker: unexpected message '"
                      << msg.type << "'\n";
            return 1;
        }
        std::vector<ExperimentConfig> configs;
        configs.reserve(msg.indices.size());
        for (std::size_t idx : msg.indices) {
            if (idx >= entries.size()) {
                std::cerr << "sweep_all worker: unit index " << idx
                          << " out of grid range\n";
                return 1;
            }
            configs.push_back(entries[idx].config);
        }
        SweepOptions sweep_opts;
        sweep_opts.jobs = 1;
        sweep_opts.progress = !opts.quiet;
        sweep_opts.streamCapture = opts.streamCacheBytes > 0;
        sweep_opts.streamCacheBytes = opts.streamCacheBytes;
        sweep_opts.runDeadline = opts.runDeadline;
        sweep_opts.batchReplay = opts.batchReplay;
        sweep_opts.maxBatchGroupRuns = opts.maxBatchGroup;
        sweep_opts.sharedCache = &cache;
        sweep_opts.onRunComplete = [&](std::size_t pi,
                                       const ExperimentResult &result,
                                       double seconds) {
            std::size_t i = msg.indices[pi];
            JournalRecord rec;
            rec.key = keys[i];
            rec.figure = entries[i].figure;
            rec.variant = entries[i].variant;
            rec.workload = entries[i].config.workload;
            rec.runSeconds = seconds;
            rec.result = result;
            journal.append(rec);
        };
        SweepReport unit_report;
        std::vector<ExperimentResult> unit_results =
            runSweep(configs, sweep_opts, &unit_report);
        std::uint64_t ok_runs = 0, failed_runs = 0;
        for (const ExperimentResult &r : unit_results)
            (r.failed ? failed_runs : ok_runs)++;
        if (!writeFrame(STDOUT_FILENO,
                        encodeDone(msg.id, ok_runs, failed_runs,
                                   unit_report.batchGroups,
                                   unit_report.batchedRuns,
                                   unit_report.batchFallouts)))
            return 1;
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                die("missing value for " + arg);
            return argv[++i];
        };
        auto nextU64 = [&]() -> std::uint64_t {
            std::string value = next();
            try {
                std::size_t used = 0;
                std::uint64_t n = std::stoull(value, &used);
                if (used != value.size())
                    throw std::invalid_argument(value);
                return n;
            } catch (const std::exception &) {
                die("'" + value + "' is not a number (for " + arg + ")");
            }
        };
        if (arg == "--jobs" || arg == "-j")
            opts.jobs = static_cast<unsigned>(nextU64());
        else if (arg == "--out")
            opts.out = next();
        else if (arg == "--bench-out")
            opts.benchOut = next();
        else if (arg == "--insts")
            opts.insts = nextU64();
        else if (arg == "--profile-insts")
            opts.profileInsts = nextU64();
        else if (arg == "--workloads")
            opts.workloads = splitCsv(next());
        else if (arg == "--figures")
            opts.figures = splitCsv(next());
        else if (arg == "--full-stats")
            opts.fullStats = true;
        else if (arg == "--trace-out")
            opts.tracePrefix = next();
        else if (arg == "--trace-sample")
            opts.traceSample = nextU64();
        else if (arg == "--hist")
            opts.hist = true;
        else if (arg == "--stream-cache-bytes")
            opts.streamCacheBytes = nextU64();
        else if (arg == "--batch-replay")
            opts.batchReplay = true;
        else if (arg == "--no-batch-replay")
            opts.batchReplay = false;
        else if (arg == "--resume")
            opts.resume = true;
        else if (arg == "--run-deadline") {
            std::string value = next();
            char *end = nullptr;
            opts.runDeadline = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                opts.runDeadline < 0.0)
                die("'" + value + "' is not a valid deadline");
        } else if (arg == "--keep-going")
            opts.keepGoing = true;
        else if (arg == "--no-journal")
            opts.noJournal = true;
        else if (arg == "--stable-output")
            opts.stableOutput = true;
        else if (arg == "--workers")
            opts.workers = static_cast<unsigned>(nextU64());
        else if (arg == "--max-batch-group")
            opts.maxBatchGroup = static_cast<unsigned>(nextU64());
        else if (arg == "--dry-run")
            opts.dryRun = true;
        else if (arg == "--list-vp") {
            listSchemes(std::cout);
            return 0;
        } else if (arg == "--worker")
            opts.workerMode = true;
        else if (arg == "--worker-journal")
            opts.workerJournal = next();
        else if (arg == "--quiet")
            opts.quiet = true;
        else if (arg == "--help" || arg == "-h") {
            usage();
            return 0;
        } else {
            die("unknown argument '" + arg + "'");
        }
    }

    if (!opts.tracePrefix.empty() && opts.traceSample == 0)
        die("--trace-sample must be at least 1");
    if (opts.workers > 0 && opts.noJournal)
        die("--workers needs the journal (sharded results travel via "
            "worker journals); drop --no-journal");
    if (opts.workerMode && opts.workerJournal.empty())
        die("--worker requires --worker-journal");

    std::vector<std::string> all_names;
    for (const WorkloadSpec &spec : allWorkloads())
        all_names.push_back(spec.name);
    if (opts.workloads.empty()) {
        opts.workloads = all_names;
    } else {
        for (const std::string &w : opts.workloads) {
            bool known = false;
            for (const std::string &name : all_names)
                known |= name == w;
            if (!known)
                die("unknown workload '" + w + "'");
        }
    }

    // Build the flat grid.
    std::vector<GridEntry> entries;
    for (const FigureSpec &fig : paperGrid()) {
        // Opt-in figures need an explicit --figures mention; wants()
        // alone would sweep them into the default "all" set.
        bool selected = opts.figures.empty()
                            ? !fig.optIn
                            : wants(opts, fig.figure);
        if (!selected)
            continue;
        const std::vector<std::string> &fig_workloads =
            fig.workloads.empty() ? opts.workloads : fig.workloads;
        for (const std::string &workload : fig_workloads) {
            bool selected = false;
            for (const std::string &w : opts.workloads)
                selected |= w == workload;
            if (!selected)
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

    const std::string sweep_hash = configHash(opts);
    const std::string journal_path = opts.out + ".journal";
    std::vector<std::string> keys;
    keys.reserve(entries.size());
    for (const GridEntry &entry : entries)
        keys.push_back(runKey(entry));

    // Hidden worker mode: the grid and keys above are rebuilt from
    // the forwarded options, so indices over the pipe and run keys in
    // the journal mean the same thing on both sides (the hello/hash
    // handshake verifies it).
    if (opts.workerMode)
        return runWorker(opts, entries, keys, sweep_hash);

    // Resume: merge the main journal and every shard journal a killed
    // sharded sweep may have left (`<out>.journal.w<k>`), and pre-fill
    // every run recorded as successful; only the rest is executed.
    // Failed records are re-run (they may succeed this time, and the
    // retry's journal line supersedes theirs — later records win, but
    // a success never loses to a failure).
    std::vector<ExperimentResult> results(entries.size());
    std::vector<double> run_seconds(entries.size(), 0.0);
    std::vector<bool> resumed(entries.size(), false);
    if (opts.resume && !opts.noJournal) {
        MergedJournal merged;
        try {
            merged = mergeShardJournals(findShardJournals(journal_path),
                                        sweep_hash);
        } catch (const std::exception &e) {
            die(std::string(e.what()) + "; rerun without --resume");
        }
        if (merged.skippedLines > 0)
            std::cerr << "sweep_all: journal: skipped "
                      << merged.skippedLines
                      << " torn/corrupt line(s)\n";
        for (std::size_t i = 0; i < entries.size(); ++i) {
            auto it = merged.runs.find(keys[i]);
            if (it == merged.runs.end() || it->second.result.failed)
                continue;
            results[i] = it->second.result;
            run_seconds[i] = it->second.runSeconds;
            resumed[i] = true;
        }
    } else if (!opts.resume && !opts.dryRun) {
        // A fresh sweep must not inherit stale journals (main or
        // shard): a key collision with an old run would silently skip
        // work on a later --resume.
        for (const std::string &path : findShardJournals(journal_path))
            unlink(path.c_str());
    }

    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < entries.size(); ++i)
        if (!resumed[i])
            pending.push_back(i);

    // Shard debugging: show how the pending grid would partition into
    // work units (the same partition both --workers and the in-process
    // batcher use), then exit without running anything.
    if (opts.dryRun) {
        std::vector<ExperimentConfig> grid_configs;
        grid_configs.reserve(entries.size());
        for (const GridEntry &entry : entries)
            grid_configs.push_back(entry.config);
        std::vector<WorkUnit> units =
            partitionWork(grid_configs, pending, opts.maxBatchGroup);
        std::cout << "sweep_all: dry run: " << pending.size()
                  << " pending of " << entries.size() << " runs in "
                  << units.size() << " unit(s) (max "
                  << opts.maxBatchGroup << " runs/unit)\n";
        for (const WorkUnit &unit : units) {
            std::cout << "unit " << unit.id << ": "
                      << unit.indices.size() << " run(s)\n";
            for (std::size_t i : unit.indices)
                std::cout << "  " << keys[i] << " " << entries[i].figure
                          << "/" << entries[i].variant << "/"
                          << entries[i].config.workload << "\n";
        }
        return 0;
    }

    SweepReport report;
    ShardReport shard;
    const bool sharded = opts.workers > 0;
    std::cerr << "sweep_all: " << entries.size() << " runs ("
              << pending.size() << " to execute, "
              << entries.size() - pending.size() << " resumed), ";
    if (sharded)
        std::cerr << "workers=" << opts.workers << "\n";
    else
        std::cerr << "jobs=" << (opts.jobs ? opts.jobs : defaultJobs())
                  << "\n";

    std::unique_ptr<RunJournal> journal;
    if (sharded) {
        // Workers run --jobs 1 each, so the sharded report matches a
        // single-process --jobs 1 run byte-for-byte (--stable-output
        // omits everything else that could differ).
        report.jobs = 1;
        if (!pending.empty()) {
            std::vector<ExperimentConfig> grid_configs;
            grid_configs.reserve(entries.size());
            for (const GridEntry &entry : entries)
                grid_configs.push_back(entry.config);
            std::vector<WorkUnit> units = partitionWork(
                grid_configs, pending, opts.maxBatchGroup);

            ShardOptions shard_opts;
            shard_opts.workers = opts.workers;
            shard_opts.journalPrefix = journal_path + ".w";
            shard_opts.sweepHash = sweep_hash;
            shard_opts.progress = !opts.quiet;
            if (opts.runDeadline > 0.0) {
                // A unit is at most max_unit back-to-back runs; give
                // the worker that much budget (x2 for retries) plus
                // startup slack before declaring it hung.
                std::size_t max_unit = 0;
                for (const WorkUnit &unit : units)
                    max_unit = std::max(max_unit, unit.indices.size());
                shard_opts.unitDeadline =
                    opts.runDeadline * 2.0 *
                        static_cast<double>(max_unit) +
                    10.0;
            }
            const std::string bin = selfExePath(argv[0]);
            shard_opts.workerCommand =
                [&](unsigned, const std::string &jpath) {
                    return workerArgs(opts, bin, jpath);
                };

            auto shard_start = std::chrono::steady_clock::now();
            if (!runShardedSweep(units, shard_opts, shard))
                die("sharded sweep failed: " + shard.error);
            report.wallSeconds =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - shard_start)
                    .count();
            report.cache = shard.cache;
            report.batchGroups = shard.batchGroups;
            report.batchedRuns = shard.batchedRuns;
            report.batchFallouts = shard.batchFallouts;

            // Results come back through the journals, not the pipe.
            MergedJournal merged;
            try {
                merged = mergeShardJournals(
                    findShardJournals(journal_path), sweep_hash);
            } catch (const std::exception &e) {
                die(e.what());
            }
            for (std::size_t i : pending) {
                auto it = merged.runs.find(keys[i]);
                if (it == merged.runs.end()) {
                    results[i] = ExperimentResult{};
                    results[i].failed = true;
                    results[i].error =
                        "no journal record after sharded sweep";
                    continue;
                }
                results[i] = it->second.result;
                run_seconds[i] = it->second.runSeconds;
            }
        }
    } else {
        if (!opts.noJournal && !pending.empty()) {
            journal = std::make_unique<RunJournal>(journal_path);
            if (!journal->ok())
                die("cannot open run journal " + journal_path);
            // Header once per journal file (a resumed one has one).
            if (!opts.resume ||
                RunJournal::load(journal_path).sweepHash.empty())
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
            sweep_opts.onRunComplete =
                [&](std::size_t pi, const ExperimentResult &result,
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
        std::vector<ExperimentResult> executed =
            runSweep(configs, sweep_opts, &report);
        for (std::size_t pi = 0; pi < pending.size(); ++pi) {
            results[pending[pi]] = std::move(executed[pi]);
            run_seconds[pending[pi]] = report.runSeconds[pi];
        }
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
        if (sharded) {
            os << "  \"shard\": {\"workers\": " << opts.workers
               << ", \"spawned\": " << shard.workersSpawned
               << ", \"deaths\": " << shard.workerDeaths
               << ", \"units_reassigned\": " << shard.unitsReassigned
               << "},\n";
        }
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

    // Simulator-throughput trail: one labelled JSON row is APPENDED
    // per invocation (docs/INTERNALS.md, "Simulator performance"), so
    // the file accumulates a history instead of losing it. Aggregates
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
            << ", \"workers\": " << opts.workers
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
            // and durable, so the journals (main and any per-worker
            // shards) have served their purpose.
            for (const std::string &path :
                 findShardJournals(journal_path))
                unlink(path.c_str());
        } else {
            std::cerr << "sweep_all: journal kept at " << journal_path
                      << (sharded ? " (+ shard journals)" : "")
                      << " (rerun with --resume to retry failures)\n";
        }
    }
    if (!failures.empty() && !opts.keepGoing)
        return 2;
    return 0;
}
