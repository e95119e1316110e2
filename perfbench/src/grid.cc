/**
 * @file
 * The `grid` workload: a seeded paper-grid sweep, run the way
 * sweep_all runs it — runSweep at one job with batched replay, every
 * result appended to a RunJournal — after the fixed cost every sweep
 * pays once (config validation plus the shared cache's compile and
 * train-profile entries). Round k sweeps the seed's draw k on a fresh
 * cache; every draw has the same mix of figure families and programs.
 */

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <set>

#include "bench.hh"
#include "common/rng.hh"
#include "draw.hh"
#include "estimate.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace bench
{

using rvp::ExperimentConfig;
using rvp::ExperimentResult;
using rvp::StreamKey;
using rvp::WorkloadCache;

namespace
{

/** Set-ups timed after each round, besides the round's own. */
constexpr int kSetupsBetweenRounds = 2;

/** Passes behind each emulation estimate (fastestOf). */
constexpr int kEstimatePasses = 3;

/** Draws planned before timing; a run cycles through them. */
constexpr std::size_t kDraws = 16;

/** What prepareExperiment decides for one run, before any round. */
struct Planned
{
    StreamKey key;               ///< the stream the run replays
    std::uint64_t minInsts = 0;  ///< PreparedRun::minInsts
};

/** Prepare every run once on a scratch cache (untimed). */
std::vector<Planned>
planRuns(const std::vector<ExperimentConfig> &configs, WorkloadCache &cache)
{
    rvp::RunContext context;
    context.cache = &cache;
    std::vector<Planned> plans;
    for (const ExperimentConfig &c : configs) {
        rvp::PreparedRun prep = rvp::prepareExperiment(c, context);
        plans.push_back({prep.key, prep.minInsts});
    }
    return plans;
}

/**
 * The draw's runs sharing one presumed stream key, in first-use order,
 * as runSweep groups them. A run whose prepared key differs (a failed
 * re-allocation folds onto the Base binary) falls out of the batch.
 */
struct KeyGroup
{
    StreamKey key;
    std::vector<std::size_t> runs;
    /** The largest minInsts of the runs that replay this key: the
     *  bound the batch captures its stream at. */
    std::uint64_t bound = 0;
    /** The first run that replays this key; -1 if none does. */
    int first = -1;
};

std::vector<KeyGroup>
groupByKey(const std::vector<ExperimentConfig> &configs,
           const std::vector<Planned> &plans)
{
    std::vector<KeyGroup> groups;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        StreamKey key = rvp::streamKeyFor(configs[i], false);
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const KeyGroup &g) { return g.key == key; });
        if (it == groups.end()) {
            groups.push_back({key, {}, 0, -1});
            it = groups.end() - 1;
        }
        it->runs.push_back(i);
        if (plans[i].key == key) {
            it->bound = std::max(it->bound, plans[i].minInsts);
            if (it->first < 0)
                it->first = static_cast<int>(i);
        }
    }
    return groups;
}

/** Fill a fresh cache with the sweep's compile and profile entries. */
std::unique_ptr<WorkloadCache>
setUp(const std::vector<ExperimentConfig> &configs, SpanRecorder &spans)
{
    for (const ExperimentConfig &c : configs)
        rvp::validateExperimentConfig(c);
    auto cache = std::make_unique<WorkloadCache>();
    std::set<std::string> done;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::string &w = configs[i].workload;
        if (!done.insert(w).second)
            continue;
        {
            auto s = spans.scope("compile", i);
            cache->compiled(w, rvp::InputSet::Ref);
        }
        for (const ExperimentConfig &c : configs) {
            if (c.workload != w || !needsProfile(c))
                continue;
            {
                auto s = spans.scope("compile", i);
                cache->compiled(w, rvp::InputSet::Train);
            }
            auto s = spans.scope("profile", i);
            cache->profiled(w, rvp::InputSet::Train, c.profileInsts);
            break;
        }
    }
    return cache;
}

/**
 * Capture every key's stream once, at the bound its batch asks for.
 * Returns each group's capture seconds (0 when no run replays it).
 */
std::vector<double>
captureStreams(const std::vector<ExperimentConfig> &configs,
               const std::vector<KeyGroup> &groups, WorkloadCache &cache,
               SpanRecorder &spans)
{
    rvp::RunContext context;
    context.cache = &cache;
    std::vector<double> seconds;
    for (const KeyGroup &g : groups) {
        seconds.push_back(0.0);
        if (g.first < 0)
            continue;
        rvp::PreparedRun prep;
        {
            auto s = spans.scope("prepare", g.first);
            prep = rvp::prepareExperiment(configs[g.first], context);
        }
        auto t0 = Clock::now();
        auto s = spans.scope("capture", g.first);
        cache.stream(prep.key, g.bound, [&](std::uint64_t maxBytes) {
            return rvp::CapturedStream::capture(prep.timedProgram(),
                                                g.bound, maxBytes);
        });
        seconds.back() = secondsSince(t0);
    }
    return seconds;
}

struct Round
{
    std::vector<ExperimentResult> results;
    rvp::SweepReport report;
    rvp::WorkloadCacheStats cache;
    std::vector<double> captureSeconds;   ///< per key group
    double setup = 0.0;
    double window = 0.0;
    std::uint64_t journalAppends = 0;
    bool journalOk = false;
};

/** One draw of the grid, with everything known before it runs. */
struct PlannedDraw
{
    std::vector<DrawnRun> runs;
    std::vector<ExperimentConfig> configs;
    std::vector<Planned> plans;
    std::vector<KeyGroup> groups;
    /** Per run: the key group whose stream it captures, or -1. A run
     *  misses the stream cache when it is the first to replay its key:
     *  its latency then includes the capture the group's other runs
     *  (the hits) replay. */
    std::vector<int> missOf;
};

/** Plan draws 0..n-1 of the seed on one scratch cache (untimed). */
std::vector<PlannedDraw>
planDraws(const Options &opts, std::size_t n)
{
    WorkloadCache cache;
    std::vector<PlannedDraw> draws(n);
    for (std::size_t k = 0; k < n; ++k) {
        PlannedDraw &d = draws[k];
        d.runs = gridDraw(opts.seed, opts.tiny, k);
        for (const DrawnRun &run : d.runs)
            d.configs.push_back(run.config);
        d.plans = planRuns(d.configs, cache);
        d.groups = groupByKey(d.configs, d.plans);
        d.missOf.assign(d.configs.size(), -1);
        for (std::size_t g = 0; g < d.groups.size(); ++g)
            if (d.groups[g].first >= 0)
                d.missOf[d.groups[g].first] = static_cast<int>(g);
    }
    return draws;
}

Round
runRound(const Options &opts, const PlannedDraw &d, rvp::SweepOptions so,
         SpanRecorder &spans)
{
    const std::vector<DrawnRun> &draw = d.runs;
    const std::vector<ExperimentConfig> &configs = d.configs;
    const std::vector<KeyGroup> &groups = d.groups;
    Round r;
    auto t0 = Clock::now();
    std::unique_ptr<WorkloadCache> cache = setUp(configs, spans);
    r.setup = secondsSince(t0);

    auto w0 = Clock::now();
    r.captureSeconds = captureStreams(configs, groups, *cache, spans);
    const std::string path = runPath(opts, "grid.journal");
    {
        rvp::RunJournal journal(path);
        r.journalOk = journal.ok();
        journal.appendSweepHeader("perfbench-grid");
        so.sharedCache = cache.get();
        so.onRunComplete = [&](std::size_t i, const ExperimentResult &result,
                               double seconds) {
            auto s = spans.scope("journal", i);
            rvp::JournalRecord rec;
            rec.key = rvp::hashHex(rvp::fnv1a(
                draw[i].figure + "/" + draw[i].variant + "/" +
                draw[i].config.workload));
            rec.figure = draw[i].figure;
            rec.variant = draw[i].variant;
            rec.workload = draw[i].config.workload;
            rec.runSeconds = seconds;
            rec.result = result;
            journal.append(rec);
            ++r.journalAppends;
        };
        auto s = spans.scope("core");
        r.results = rvp::runSweep(configs, so, &r.report);
    }
    r.window = secondsSince(w0);
    r.cache = cache->stats();
    unlink(path.c_str());
    return r;
}

/** One decode pass of the sweep: a batch chunk or a solo replay. */
struct DecodePass
{
    StreamKey key;
    std::uint64_t insts = 0;     ///< the most any consumer fetched
    std::uint64_t consumed = 0;  ///< what all its consumers fetched
    bool batched = false;
    std::vector<std::size_t> runs;
};

/**
 * runSweep's decode passes: each key group in chunks of
 * so.maxBatchGroupRuns (the options the sweep ran with), and a solo
 * replay for each run whose prepared key left its group. A pass
 * decodes as far as its furthest consumer fetched.
 */
std::vector<DecodePass>
decodePasses(const std::vector<KeyGroup> &groups,
             const std::vector<Planned> &plans,
             const std::vector<ExperimentResult> &results,
             const rvp::SweepOptions &so)
{
    std::vector<DecodePass> passes;
    for (const KeyGroup &g : groups) {
        std::size_t chunk = so.maxBatchGroupRuns == 0
                                ? g.runs.size()
                                : so.maxBatchGroupRuns;
        for (std::size_t at = 0; at < g.runs.size(); at += chunk) {
            std::size_t n = std::min(chunk, g.runs.size() - at);
            DecodePass batch;
            batch.key = g.key;
            batch.batched = n > 1;
            for (std::size_t j = at; j < at + n; ++j) {
                std::size_t i = g.runs[j];
                std::uint64_t fetched =
                    sourceSteps(results[i], plans[i].minInsts);
                if (!(plans[i].key == g.key)) {
                    DecodePass solo;
                    solo.key = plans[i].key;
                    solo.insts = solo.consumed = fetched;
                    solo.runs = {i};
                    passes.push_back(solo);
                    continue;
                }
                batch.insts = std::max(batch.insts, fetched);
                batch.consumed += fetched;
                batch.runs.push_back(i);
            }
            if (!batch.runs.empty())
                passes.push_back(batch);
        }
    }
    return passes;
}

/** Round-0 counts every run reports, traced or not. */
void
countRound(const std::vector<DrawnRun> &draw, const Round &r,
           const std::vector<DecodePass> &passes,
           std::map<std::string, double> &counts)
{
    std::vector<RunRef> runs;
    double retries = 0;
    for (std::size_t i = 0; i < r.results.size(); ++i) {
        runs.push_back({&draw[i].config.workload, &r.results[i]});
        retries += r.results[i].retries;
    }
    addSimCounts(runs, counts);
    const rvp::WorkloadCacheStats &c = r.cache;
    auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    double decoded = 0, consumed = 0;
    for (const DecodePass &p : passes) {
        decoded += static_cast<double>(p.insts);
        consumed += static_cast<double>(p.consumed);
    }
    double profileInsts = 0;
    for (const DrawnRun &d : draw)
        if (needsProfile(d.config))
            profileInsts = static_cast<double>(d.config.profileInsts);
    counts["stream.decoded_insts"] = decoded;
    counts["stream.consumed_per_decoded"] = ratio(consumed, decoded);
    counts["stream.captures"] = static_cast<double>(c.streamMisses);
    counts["stream.hit_ratio"] =
        ratio(c.streamHits, c.streamHits + c.streamMisses);
    counts["stream.bytes_per_inst"] =
        ratio(c.streamBytesBuilt, c.streamInstsBuilt);
    counts["stream.resident_mb"] =
        static_cast<double>(c.streamBytesResident) / (1024.0 * 1024.0);
    counts["emu.insts"] = static_cast<double>(c.streamInstsBuilt);
    counts["compile.calls"] =
        static_cast<double>(c.compileHits + c.compileMisses);
    counts["compile.hit_ratio"] =
        ratio(c.compileHits, c.compileHits + c.compileMisses);
    counts["profile.calls"] =
        static_cast<double>(c.profileHits + c.profileMisses);
    counts["profile.insts"] =
        static_cast<double>(c.profileMisses) * profileInsts;
    counts["profile.hit_ratio"] =
        ratio(c.profileHits, c.profileHits + c.profileMisses);
    counts["sim.runs"] = static_cast<double>(r.results.size());
    counts["sim.useful_ratio"] = ratio(counts["sim.distinct_outcomes"],
                                       counts["sim.runs_simulated"]);
    counts["sim.batch_groups"] = static_cast<double>(r.report.batchGroups);
    counts["sim.batched_runs"] = static_cast<double>(r.report.batchedRuns);
    counts["sim.fallouts"] = static_cast<double>(r.report.batchFallouts);
    counts["sim.retries"] = retries;
    counts["sim.journal_appends"] = static_cast<double>(r.journalAppends);
}

/**
 * The traced round's ledger: span self times where rvp_bench calls
 * the layer, standalone estimates where the layer runs inside
 * runSweep or capture, and sim.unattributed_s as what neither covers.
 */
void
traceRound(const std::vector<ExperimentConfig> &configs,
           const std::vector<Planned> &plans, const Round &r,
           const std::vector<DecodePass> &passes, const SpanRecorder &spans,
           Outcome &out)
{
    // Rebuild the round's streams and predictors on an untimed cache.
    std::map<StreamKey, std::uint64_t> bound;
    for (const Planned &p : plans)
        bound[p.key] = std::max(bound[p.key], p.minInsts);
    WorkloadCache cache;
    rvp::RunContext context;
    context.cache = &cache;
    std::map<StreamKey, StreamPtr> streams;
    double emu = 0.0, vp = 0.0, decode = 0.0, host = 0.0;
    for (std::size_t i = 0; i < configs.size(); ++i) {
        rvp::PreparedRun prep = rvp::prepareExperiment(configs[i], context);
        StreamPtr &stream = streams[prep.key];
        if (!stream) {
            const std::uint64_t n = bound.at(prep.key);
            const rvp::Program &program = prep.timedProgram();
            stream = cache.stream(prep.key, n, [&](std::uint64_t maxBytes) {
                return rvp::CapturedStream::capture(program, n, maxBytes);
            });
            emu += fastestOf(kEstimatePasses, [&] {
                return timeEmulate(program, stream->instCount());
            });
        }
        std::uint64_t fetched = sourceSteps(r.results[i], prep.minInsts);
        vp += timeDecodeAndPredict(stream, *prep.predictor, fetched) -
              timeDecode(stream, fetched);
        host += r.results[i].hostSeconds;
    }
    for (const DecodePass &p : passes)
        decode += timeDecode(streams.at(p.key), p.insts);

    std::map<std::string, double> &t = out.layerTimes;
    double captured = spans.selfSeconds("capture");
    t["compile.busy_s"] = spans.selfSeconds("compile");
    t["profile.busy_s"] = spans.selfSeconds("profile");
    t["sim.prepare_busy_s"] = spans.selfSeconds("prepare");
    t["sim.journal_busy_s"] = spans.selfSeconds("journal");
    t["emu.busy_s"] = emu;
    t["stream.capture_busy_s"] = captured - emu;
    t["stream.decode_busy_s"] = decode;
    t["vp.busy_s"] = vp;
    t["uarch.busy_s"] = host - decode - vp;
    double wall = r.setup + r.window;
    t["trace.wall_s"] = wall;
    t["sim.unattributed_s"] = wall - t["compile.busy_s"] -
                              t["profile.busy_s"] - t["sim.prepare_busy_s"] -
                              t["sim.journal_busy_s"] - captured - host;
}

} // namespace

Outcome
runGrid(const Options &opts, SpanRecorder &spans)
{
    Outcome out;
    out.check(defaultGrid().size() == 308,
              "figure families no longer expand to sweep_all's 308-run grid");
    const std::vector<PlannedDraw> draws = planDraws(opts, kDraws);
    rvp::SweepOptions so;
    so.jobs = 1;
    so.progress = false;

    // Round k sweeps draw k, so that a run's figures average over
    // several draws of the seed. Round 0 gives the counts. Traced,
    // round 1 is the traced one and round 2 repeats its draw untraced
    // to price the tracing.
    auto drawOf = [&](std::size_t round) {
        return opts.trace && round == 2 ? std::size_t{1} : round % kDraws;
    };
    std::map<std::size_t, std::vector<ExperimentResult>> resultsOf;
    Round first, traced;
    std::vector<double> setups, windows, walls, loops, rss, all, hits,
        misses;
    double committed = 0.0;
    const std::size_t minRounds = opts.trace ? 3 : 1;
    auto start = Clock::now();
    for (std::size_t round = 0;
         round < minRounds ||
         secondsSince(start) + median(loops) <= opts.seconds;
         ++round) {
        auto l0 = Clock::now();
        const PlannedDraw &d = draws[drawOf(round)];
        spans.setEnabled(opts.trace && round == 1);
        resetPeakRss();
        Round r = runRound(opts, d, so, spans);
        rss.push_back(selfPeakRssMb());
        spans.setEnabled(false);
        if (!r.journalOk)
            out.fail("cannot open the run journal under " + opts.runDir);
        auto seen = resultsOf.find(drawOf(round));
        for (std::size_t i = 0; i < r.results.size(); ++i) {
            const ExperimentResult &res = r.results[i];
            std::string why;
            ++out.attempted;
            if (!resultSane(res, &why))
                out.fail(describeConfig(d.configs[i]) + ": " + why);
            else if (seen != resultsOf.end() &&
                     res.stats.values() != seen->second[i].stats.values())
                out.fail(describeConfig(d.configs[i]) +
                         ": stats differ from an earlier sweep of its draw");
            committed += static_cast<double>(res.committed);
            double ms = res.hostSeconds * 1e3;
            all.push_back(ms);
            if (d.missOf[i] < 0)
                hits.push_back(ms);
            else
                misses.push_back(ms + r.captureSeconds[d.missOf[i]] * 1e3);
        }
        if (seen == resultsOf.end())
            resultsOf[drawOf(round)] = r.results;
        setups.push_back(r.setup);
        windows.push_back(r.window);
        walls.push_back(r.setup + r.window);
        // More set-up samples between rounds, so that they spread over
        // the whole run rather than one phase of the host.
        for (int k = 0; k < kSetupsBetweenRounds; ++k) {
            auto t0 = Clock::now();
            std::unique_ptr<WorkloadCache> cache = setUp(d.configs, spans);
            setups.push_back(secondsSince(t0));
        }
        if (round == 0)
            first = std::move(r);
        else if (round == 1)
            traced = std::move(r);
        loops.push_back(secondsSince(l0));
    }
    out.rounds = windows.size();
    out.setupSamples = setups.size();

    double windowTotal = 0.0;
    for (double w : windows)
        windowTotal += w;
    out.endToEnd["wall_s"] = median(windows);
    out.endToEnd["sim_kips"] = committed / windowTotal / 1e3;
    out.endToEnd["setup_s"] = median(setups);
    out.endToEnd["peak_rss_mb"] = median(rss);
    out.latencies["p50_ms"] = summarize(all);
    out.latencies["hit_p50_ms"] = summarize(hits);
    out.latencies["miss_p50_ms"] = summarize(misses);

    const PlannedDraw &d0 = draws[0];
    const std::vector<DecodePass> passes =
        decodePasses(d0.groups, d0.plans, first.results, so);
    countRound(d0.runs, first, passes, out.counts);

    // Output check: one seeded batched run per program against a solo
    // live runExperiment of the same config.
    rvp::Rng pick = seededRng(opts.seed, RngStream::CheckPick);
    for (const std::string &program : programs(opts.tiny)) {
        std::vector<std::size_t> candidates;
        for (const DecodePass &p : passes)
            for (std::size_t i : p.runs)
                if (p.batched && d0.configs[i].workload == program)
                    candidates.push_back(i);
        if (candidates.empty())
            continue;
        std::size_t i = candidates[pick.nextBelow(candidates.size())];
        ExperimentResult solo = rvp::runExperiment(d0.configs[i]);
        out.check(solo.stats.values() == first.results[i].stats.values(),
                  describeConfig(d0.configs[i]) +
                      ": batched replay differs from solo live run");
    }

    if (opts.trace) {
        const PlannedDraw &d1 = draws[1];
        traceRound(d1.configs, d1.plans, traced,
                   decodePasses(d1.groups, d1.plans, traced.results, so),
                   spans, out);
        out.layerTimes["trace.overhead_s"] = walls[1] - walls[2];
    }
    return out;
}

} // namespace bench
