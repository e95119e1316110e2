/**
 * @file
 * The `service` workload: a real rvpsweepd child process driven by one
 * in-process ServiceClient connection in a closed loop of single-run
 * submits at a small commit budget. An untimed warm-up daemon fills
 * the store first; the timed daemon is then started on it and primed
 * untimed so its compile, profile and stream caches hold every binary
 * the loop uses. The seed interleaves reads of stored keys (hits) with
 * new keys (misses: a solo stream replay plus an fsync'd put). Before
 * every block of requests, a spare daemon is started on a copy of the
 * filled store and timed from spawn to hello (set-up, which includes
 * the store replay).
 */

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "draw.hh"
#include "estimate.hh"
#include "service/client.hh"
#include "service/store.hh"
#include "sim/journal.hh"
#include "sim/sweep.hh"

namespace bench
{

using rvp::ServerMsg;
using rvp::ServiceClient;

namespace
{

/**
 * Requests that repeat a stored key, out of kGridRuns: the share of
 * sweep_all's default grid that re-simulates a config already in the
 * grid (roughly 100 of its 308 runs; ROADMAP item 2), the runs a store
 * keyed by config answers. The grid's 151 distinct outcomes would give
 * 157 repeats, but outcomes that coincide by chance still simulate.
 */
constexpr std::uint64_t kGridRuns = 308;
constexpr std::uint64_t kRepeatRuns = 100;

/**
 * Records the warm-up daemon stores: the order of a few default-grid
 * sweeps (308 runs each). At this size the replay, not the process
 * start, is most of a restart (2.3 ms on 90 records, 6 to 13 ms here).
 */
constexpr std::size_t kFilledRecords = 1000;

/** Passes behind each store, prepare and encode estimate (fastestOf). */
constexpr int kEstimatePasses = 3;

/** A spawned rvpsweepd; killed and reaped if still running at scope exit. */
class Daemon
{
  public:
    Daemon(const Options &opts, const std::string &socket,
           const std::string &store, const std::string &log)
    {
        pid_ = fork();
        if (pid_ == 0) {
            // Never outlive rvp_bench, whatever ends it.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            int fd = open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                dup2(fd, STDOUT_FILENO);
                dup2(fd, STDERR_FILENO);
            }
            execl(opts.daemonPath.c_str(), opts.daemonPath.c_str(),
                  "--socket", socket.c_str(), "--store", store.c_str(),
                  "--jobs", "1", static_cast<char *>(nullptr));
            _exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool spawned() const { return pid_ > 0; }
    pid_t pid() const { return pid_; }

    /** Ask for a drain, then reap; false if it did not exit cleanly. */
    bool
    stop(ServiceClient &client, rusage *usage)
    {
        bool acked = client.send(rvp::encodeShutdownRequest());
        if (acked) {
            std::optional<ServerMsg> bye = client.recv();
            acked = bye && bye->kind == ServerMsg::Kind::Bye;
        }
        client.close();
        if (!acked)
            kill(pid_, SIGKILL);
        int status = 0;
        rusage ru{};
        pid_t got = wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        if (usage)
            *usage = ru;
        return acked && got > 0 && WIFEXITED(status) &&
               WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
};

/** Poll until the daemon accepts and says hello (its store replayed). */
bool
connectWhenUp(ServiceClient &client, const std::string &socket)
{
    auto t0 = Clock::now();
    while (!client.connect(socket)) {
        if (secondsSince(t0) > 20.0)
            return false;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    return true;
}

std::size_t
frameSize(const std::string &payload)
{
    return std::to_string(payload.size()).size() + payload.size() + 2;
}

/** One answered request. */
struct Reply
{
    bool ok = false;
    bool cached = false;
    std::string key;
    std::string record;
    std::string error;   ///< error-frame code or transport failure
    std::size_t bytes = 0;
};

Reply
submit(ServiceClient &client, SpanRecorder &spans, std::uint64_t n,
       const rvp::RunSpec &spec)
{
    Reply r;
    std::string id = "r" + std::to_string(n);
    std::string request = rvp::encodeSubmitRequest(id, {spec});
    r.bytes += frameSize(request);
    bool sent;
    {
        auto s = spans.scope("send", n);
        sent = client.send(request);
    }
    if (!sent) {
        r.error = "transport";
        return r;
    }
    std::optional<ServerMsg> msg;
    try {
        auto s = spans.scope("recv", n);
        msg = client.recv();
    } catch (const std::exception &) {
        msg.reset();
    }
    if (!msg) {
        r.error = "transport";
        return r;
    }
    if (msg->kind == ServerMsg::Kind::Error) {
        r.error = rvp::serviceCodeName(msg->code);
        r.bytes += frameSize(
            rvp::encodeErrorReply(msg->code, msg->message, msg->id));
        return r;
    }
    if (msg->kind != ServerMsg::Kind::Result) {
        r.error = "protocol";
        return r;
    }
    r.ok = true;
    r.cached = msg->cached;
    r.key = msg->key;
    r.record = msg->record;
    r.bytes += frameSize(rvp::encodeResultReply(msg->id, msg->index, msg->key,
                                                msg->cached, msg->record));
    return r;
}

/** A key the store holds, with the bytes its miss returned. */
struct Stored
{
    std::string key;
    rvp::RunSpec spec;
    std::string record;
};

/** One timed request of the loop. */
struct Request
{
    std::size_t block = 0;
    bool hit = false;
    rvp::RunSpec spec;
    double ms = 0.0;
    Reply reply;
};

} // namespace

Outcome
runService(const Options &opts, SpanRecorder &spans)
{
    Outcome out;
    const std::string socket = opts.runDir + "/svc-" +
                               std::to_string(getpid()) + ".sock";
    const std::string store = runPath(opts, "store.jsonl");
    const std::string log = runPath(opts, "daemon.log");
    unlink(store.c_str());

    SpecSpace space(opts.seed, opts.tiny);
    std::vector<Stored> stored;
    std::map<std::string, std::size_t> storedAt;
    auto remember = [&](const rvp::RunSpec &spec, const Reply &r) {
        storedAt[r.key] = stored.size();
        stored.push_back({r.key, spec, r.record});
    };
    auto expectMiss = [&](const rvp::RunSpec &spec, const Reply &r,
                          const char *phase) {
        if (!r.ok || r.cached || r.key != rvp::runSpecKey(spec)) {
            out.fail(std::string(phase) + ": " + spec.workload + "/" +
                     spec.scheme + " not simulated (" + r.error + ")");
            return false;
        }
        return true;
    };

    // Warm-up daemon: fill the store the timed daemon replays.
    const std::size_t fill = opts.tiny ? 12 : kFilledRecords;
    {
        Daemon warm(opts, socket, store, log);
        ServiceClient client;
        if (!warm.spawned() || !connectWhenUp(client, socket)) {
            out.fail("warm-up daemon did not come up");
            return out;
        }
        for (std::size_t i = 0; i < fill; ++i) {
            const rvp::RunSpec &spec = *space.next();
            Reply r = submit(client, spans, i, spec);
            if (expectMiss(spec, r, "warm-up"))
                remember(spec, r);
        }
        if (!warm.stop(client, nullptr))
            out.fail("warm-up daemon did not drain cleanly");
    }
    const std::size_t filled = stored.size();

    // The spare daemon restarts on a copy of the filled store, which
    // no request changes; SIGKILLed idle, it leaves the copy as it was.
    const std::string spareStore = runPath(opts, "spare-store.jsonl");
    const std::string spareSocket = opts.runDir + "/spare-" +
                                    std::to_string(getpid()) + ".sock";
    {
        std::ifstream from(store, std::ios::binary);
        std::ofstream to(spareStore, std::ios::binary | std::ios::trunc);
        to << from.rdbuf();
        if (!to)
            out.fail("cannot copy the filled store");
    }
    std::vector<double> setups;
    auto timeStart = [&]() {
        auto t0 = Clock::now();
        Daemon spare(opts, spareSocket, spareStore, log);
        ServiceClient c;
        if (!spare.spawned() || !connectWhenUp(c, spareSocket)) {
            out.fail("spare daemon did not come up on the filled store");
            return 0.0;
        }
        setups.push_back(secondsSince(t0));
        out.check(c.storeEntries() == filled,
                  "spare daemon replayed " +
                      std::to_string(c.storeEntries()) + " of " +
                      std::to_string(filled) + " stored records");
        return setups.back();
    };

    Daemon daemon(opts, socket, store, log);
    ServiceClient client;
    if (!daemon.spawned() || !connectWhenUp(client, socket)) {
        out.fail("daemon did not come up on the filled store");
        return out;
    }
    out.check(client.storeEntries() == filled,
              "daemon replayed " + std::to_string(client.storeEntries()) +
                  " of " + std::to_string(filled) + " stored records");

    // Prime the timed daemon's caches (untimed): one larger-budget run
    // per program and scheme, whose streams cover every budget drawn.
    for (std::size_t i = 0; i < space.priming().size(); ++i) {
        const rvp::RunSpec &spec = space.priming()[i];
        Reply r = submit(client, spans, i, spec);
        if (expectMiss(spec, r, "priming"))
            remember(spec, r);
    }

    // The timed closed loop, in blocks of one fixed shape. The daemon
    // holds its store in memory, so its peak RSS grows with every miss;
    // it is read after a fixed number of requests, not at exit, to stay
    // independent of how many requests a run fits in. Block 0 gives the
    // counts; traced, block 1 is the traced one and later blocks price
    // its overhead.
    const std::size_t block = opts.tiny ? 100 : 250;
    const std::size_t rssAfter = 40 * block;
    const std::size_t minBlocks = opts.trace ? 3 : 1;
    rvp::Rng rng = seededRng(opts.seed, RngStream::ServiceMix);
    std::vector<Request> requests;
    std::vector<double> blockWalls, loops;
    double daemonRss = 0.0, tracedStart = 0.0;
    std::uint64_t storeEntriesAfterFirst = 0;
    bool exhausted = false;
    auto start = Clock::now();
    for (std::size_t b = 0;
         !exhausted && (b < minBlocks ||
                        secondsSince(start) + median(loops) <= opts.seconds);
         ++b) {
        auto l0 = Clock::now();
        double started = timeStart();
        if (b == 1)
            tracedStart = started;
        spans.setEnabled(opts.trace && b == 1);
        auto t0 = Clock::now();
        for (std::size_t j = 0; j < block; ++j) {
            Request q;
            q.block = b;
            q.hit = rng.chance(kRepeatRuns, kGridRuns);
            if (q.hit) {
                q.spec = stored[rng.nextBelow(stored.size())].spec;
            } else if (const rvp::RunSpec *spec = space.next()) {
                q.spec = *spec;
            } else {
                out.fail("service key space exhausted");
                exhausted = true;
                break;
            }
            auto r0 = Clock::now();
            q.reply = submit(client, spans, requests.size(), q.spec);
            q.ms = secondsSince(r0) * 1e3;
            if (!q.hit && q.reply.ok && !q.reply.cached)
                remember(q.spec, q.reply);
            requests.push_back(std::move(q));
        }
        blockWalls.push_back(secondsSince(t0));
        spans.setEnabled(false);
        if (requests.size() == rssAfter)
            daemonRss = peakRssMbOf(daemon.pid());
        if (b == 0) {
            client.send(rvp::encodeStatusRequest());
            std::optional<ServerMsg> st = client.recv();
            if (st && st->kind == ServerMsg::Kind::Status)
                storeEntriesAfterFirst = st->status.storeEntries;
            else
                out.fail("no status reply");
        }
        loops.push_back(secondsSince(l0));
    }
    out.setupSamples = setups.size();
    rusage usage{};
    if (!daemon.stop(client, &usage))
        out.fail("timed daemon did not drain cleanly");
    out.rounds = blockWalls.size();
    out.endToEnd["peak_rss_mb"] =
        daemonRss > 0 ? daemonRss
                      : static_cast<double>(usage.ru_maxrss) / 1024.0;

    // Latencies, failures and the hit-bytes check over every request.
    std::vector<std::vector<double>> all(blockWalls.size()),
        hitMs(blockWalls.size()), missMs(blockWalls.size());
    std::vector<rvp::JournalRecord> missRecords(requests.size());
    double missCommitted = 0.0, missSeconds = 0.0;
    for (std::size_t n = 0; n < requests.size(); ++n) {
        const Request &q = requests[n];
        ++out.attempted;
        if (!q.reply.ok) {
            out.fail("request " + std::to_string(n) + ": error " +
                     q.reply.error);
            continue;
        }
        if (q.reply.cached != q.hit) {
            out.fail("request " + std::to_string(n) + ": expected a " +
                     (q.hit ? "hit" : "miss"));
            continue;
        }
        all[q.block].push_back(q.ms);
        if (q.hit) {
            hitMs[q.block].push_back(q.ms);
            auto it = storedAt.find(q.reply.key);
            if (it == storedAt.end() ||
                stored[it->second].record != q.reply.record)
                out.fail("request " + std::to_string(n) +
                         ": hit bytes differ from the key's miss");
            continue;
        }
        missMs[q.block].push_back(q.ms);
        std::optional<rvp::JournalRecord> rec =
            rvp::parseJournalRunLine(q.reply.record);
        std::string why;
        if (!rec) {
            out.fail("request " + std::to_string(n) + ": bad record");
            continue;
        }
        if (!resultSane(rec->result, &why))
            out.fail("request " + std::to_string(n) + ": " + why);
        missCommitted += static_cast<double>(rec->result.committed);
        missSeconds += q.ms / 1e3;
        missRecords[n] = std::move(*rec);
    }
    double wall = median(blockWalls);
    out.endToEnd["wall_s"] = wall;
    out.endToEnd["sim_kips"] = missCommitted / missSeconds / 1e3;
    out.endToEnd["setup_s"] = median(setups);
    // Per block, then the median over blocks: a pooled tail of tens of
    // thousands of requests would sit at p99.97, in the host's hiccups.
    out.latencies["p50_ms"] = summarizeBlocks(all);
    out.latencies["hit_p50_ms"] = summarizeBlocks(hitMs);
    out.latencies["miss_p50_ms"] = summarizeBlocks(missMs);

    // Output check: a seeded sample of misses against in-process runs.
    rvp::Rng pick = seededRng(opts.seed, RngStream::CheckPick);
    std::vector<std::size_t> misses;
    for (std::size_t n = 0; n < requests.size(); ++n)
        if (!requests[n].hit && requests[n].reply.ok)
            misses.push_back(n);
    for (int s = 0; s < (opts.tiny ? 3 : 8) && !misses.empty(); ++s) {
        std::size_t n = misses[pick.nextBelow(misses.size())];
        rvp::ExperimentResult local =
            rvp::runExperiment(rvp::configForSpec(requests[n].spec));
        out.check(local.stats.values() == missRecords[n].result.stats.values(),
                  "request " + std::to_string(n) +
                      ": stored record differs from an in-process run");
    }

    // Counts of the first block. A miss replays its stream solo, as far
    // as it fetched (sourceSteps, bounded by its prepared minInsts).
    const std::size_t first = std::min(block, requests.size());
    rvp::WorkloadCache planCache;
    rvp::RunContext planContext;
    planContext.cache = &planCache;
    std::map<std::string, double> &k = out.counts;
    std::vector<RunRef> runs;
    double hits = 0, missesFirst = 0, bytes = 0, fetched = 0;
    std::map<std::string, double> errors;
    for (std::size_t n = 0; n < first; ++n) {
        const Request &q = requests[n];
        bytes += static_cast<double>(q.reply.bytes);
        if (!q.reply.ok) {
            errors[q.reply.error] += 1;
            continue;
        }
        if (q.reply.cached) {
            ++hits;
            continue;
        }
        ++missesFirst;
        runs.push_back({&q.spec.workload, &missRecords[n].result});
        rvp::PreparedRun prep =
            rvp::prepareExperiment(rvp::configForSpec(q.spec), planContext);
        fetched += static_cast<double>(
            sourceSteps(missRecords[n].result, prep.minInsts));
    }
    addSimCounts(runs, k);
    k["sim.runs"] = hits + missesFirst;
    k["sim.useful_ratio"] = missesFirst > 0
                                ? k["sim.distinct_outcomes"] / missesFirst
                                : 0.0;
    k["stream.decoded_insts"] = fetched;
    k["stream.consumed_per_decoded"] = fetched > 0 ? 1.0 : 0.0;
    k["service.requests"] = static_cast<double>(first);
    k["service.hits"] = hits;
    k["service.misses"] = missesFirst;
    for (const char *code : {"protocol", "oversized", "validation",
                             "backpressure", "deadline", "draining"})
        k[std::string("service.errors.") + code] = errors[code];
    k["service.store_entries"] = static_cast<double>(storeEntriesAfterFirst);
    out.layerTimes["service.frame_bytes"] = bytes;

    if (opts.trace) {
        // Estimates over the traced block: each miss's one-run sweep
        // around the core, its record encoding, and decode and
        // prediction over its solo replay; the store's puts and gets on
        // a scratch store holding what the daemon's store held then.
        const std::size_t from = block;
        const std::size_t to = std::min(2 * block, requests.size());
        rvp::WorkloadCache cache;
        rvp::RunContext context;
        context.cache = &cache;
        const std::string scratch = runPath(opts, "est-store.jsonl");
        unlink(scratch.c_str());
        double decode = 0, vp = 0, host = 0, put = 0, get = 0, prepare = 0,
               encode = 0;
        {
            std::set<std::string> later;
            for (std::size_t n = from; n < requests.size(); ++n)
                if (requests[n].reply.ok && !requests[n].reply.cached)
                    later.insert(requests[n].reply.key);
            rvp::ResultStore est(scratch);
            for (const Stored &s : stored)
                if (!later.count(s.key))
                    est.put(s.key, s.record);
            for (std::size_t n = from; n < to; ++n) {
                const Request &q = requests[n];
                if (!q.reply.ok)
                    continue;
                if (q.reply.cached) {
                    bool found = true;
                    get += fastestOf(kEstimatePasses, [&] {
                        auto t0 = Clock::now();
                        found = found && est.get(q.reply.key).has_value();
                        return secondsSince(t0);
                    });
                    out.check(found, "scratch store lost a stored key");
                    continue;
                }
                const rvp::ExperimentConfig config =
                    rvp::configForSpec(q.spec);
                // The daemon runs each miss as a one-run sweep; all of
                // it but the core's own time is preparation around it.
                prepare += fastestOf(kEstimatePasses, [&] {
                    rvp::SweepOptions so;
                    so.jobs = 1;
                    so.progress = false;
                    so.sharedCache = &cache;
                    auto t0 = Clock::now();
                    std::vector<rvp::ExperimentResult> one =
                        rvp::runSweep({config}, so);
                    return secondsSince(t0) - one.front().hostSeconds;
                });
                rvp::PreparedRun prep = rvp::prepareExperiment(config, context);
                std::string record;
                encode += fastestOf(kEstimatePasses, [&] {
                    auto t0 = Clock::now();
                    record = rvp::encodeJournalRecord(missRecords[n]);
                    return secondsSince(t0);
                });
                out.check(record == q.reply.record,
                          "a miss record does not re-encode to its bytes");
                std::uint64_t steps =
                    sourceSteps(missRecords[n].result, prep.minInsts);
                StreamPtr stream = cache.stream(
                    prep.key, prep.minInsts, [&](std::uint64_t maxBytes) {
                        return rvp::CapturedStream::capture(
                            prep.timedProgram(), prep.minInsts, maxBytes);
                    });
                double d = timeDecode(stream, steps);
                decode += d;
                vp += timeDecodeAndPredict(stream, *prep.predictor, steps) - d;
                host += missRecords[n].result.hostSeconds;
                // A repeated put appends the same line again (the later
                // duplicate wins): the same append and fsync.
                put += fastestOf(kEstimatePasses, [&] {
                    auto t0 = Clock::now();
                    est.put(q.reply.key, q.reply.record);
                    return secondsSince(t0);
                });
            }
        }
        unlink(scratch.c_str());
        std::map<std::string, double> &t = out.layerTimes;
        double traced = tracedStart + blockWalls[1];
        t["service.start_busy_s"] = tracedStart;
        t["sim.prepare_busy_s"] = prepare;
        t["sim.journal_busy_s"] = encode;
        t["service.store_get_busy_s"] = get;
        t["service.store_put_busy_s"] = put;
        t["stream.decode_busy_s"] = decode;
        t["vp.busy_s"] = vp;
        t["uarch.busy_s"] = host - decode - vp;
        t["trace.wall_s"] = traced;
        t["sim.unattributed_s"] =
            traced - tracedStart - prepare - encode - host - get - put;
        t["trace.overhead_s"] =
            blockWalls[1] - median(std::vector<double>(blockWalls.begin() + 2,
                                                       blockWalls.end()));
    }
    for (const std::string &path : {store, spareStore, spareSocket, log})
        unlink(path.c_str());
    return out;
}

} // namespace bench
