#include "sim/batchrun.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <new>
#include <optional>

#include "common/logging.hh"
#include "sim/sweep.hh"
#include "stream/batch.hh"

namespace rvp
{

namespace
{

/** One prepared member (the partition it runs in holds its index). */
struct Member
{
    PreparedRun prep;
    /** GroupOptions::runDeadline; 0 = the context's deadline. */
    double budget = 0.0;
    std::optional<RunDeadline> armed;
    /** This attempt's deadline: &*armed, the context's, or null. */
    const RunDeadline *deadline = nullptr;

    /** Start the budget afresh at a stage of the member's own work. */
    void
    rearm()
    {
        if (budget > 0.0)
            armed.emplace(budget);
    }
};

/**
 * The partition's stream, or null to run live. Every member makes one
 * lookup: the first builds (or finds) the stream at the partition's
 * largest bound, the others look it up at their own bound. If a
 * concurrent group's build evicted the entry meanwhile, the
 * already-built stream is reinstalled instead of re-captured. A
 * capture that runs out of memory shrinks the budget and pins the key
 * live; any other capture exception propagates to the caller.
 */
WorkloadCache::StreamPtr
acquireStream(WorkloadCache &cache, std::vector<Member> &members,
              const std::vector<std::size_t> &part)
{
    const Member &lead = members[part.front()];
    std::uint64_t bound = 0;
    for (std::size_t j : part)
        bound = std::max(bound, members[j].prep.minInsts);
    WorkloadCache::StreamPtr stream;
    try {
        stream = cache.stream(
            lead.prep.key, bound, [&](std::uint64_t max_bytes) {
                return CapturedStream::capture(lead.prep.timedProgram(),
                                               bound, max_bytes,
                                               lead.deadline);
            });
    } catch (const std::bad_alloc &) {
        cache.noteCaptureOom(lead.prep.key);
        warn("stream capture ran out of memory for %s; shrinking the "
             "cache budget and running live",
             lead.prep.config.workload.c_str());
    }
    for (std::size_t j : part) {
        if (j != part.front())
            cache.stream(members[j].prep.key, members[j].prep.minInsts,
                         [&](std::uint64_t) { return stream; });
    }
    return stream;
}

/** Run one member on its own core, fed by source (null = live
 *  emulation); hostSeconds is Core::run(). */
void
runAlone(Member &m, InstSource *source, RunOutcome &out)
{
    auto start = std::chrono::steady_clock::now();
    m.rearm();
    try {
        Core core(m.prep.config.core, m.prep.timedProgram(),
                  *m.prep.predictor, m.prep.tracer.get(), source,
                  m.deadline);
        auto t0 = std::chrono::steady_clock::now();
        CoreResult cr = core.run();
        out.result =
            finishExperiment(m.prep, std::move(cr), secondsSince(t0));
    } catch (...) {
        out.error = std::current_exception();
    }
    out.seconds += secondsSince(start);
}

/**
 * Step the partition's cores in lockstep off one decode ring. Each
 * pass refills the ring as far as the slowest live member allows, then
 * bursts every member until it would outrun the frontier (or
 * finishes). The laggard can always burst (ring >> fetchWidth), so
 * every pass makes progress; once decoding is done, members free-run
 * to the end. A member's hostSeconds is its own bursts and finalize
 * plus an even share of the decode time (a run of its own would have
 * paid a whole decode).
 */
void
runLockstep(BatchedStreamRun &batch, std::vector<Member> &members,
            const std::vector<std::size_t> &part,
            std::vector<RunOutcome> &out)
{
    struct Lane
    {
        std::size_t j;
        std::unique_ptr<Core> core;
        BatchedStreamRun::Consumer *consumer;
        double hostSeconds = 0.0;
        bool live = true;
    };
    auto start = std::chrono::steady_clock::now();
    std::vector<Lane> lanes;
    for (std::size_t j : part) {
        Member &m = members[j];
        m.rearm();
        out[j].batched = true;
        BatchedStreamRun::Consumer *consumer = batch.addConsumer();
        try {
            lanes.push_back(
                {j,
                 std::make_unique<Core>(m.prep.config.core,
                                        m.prep.timedProgram(),
                                        *m.prep.predictor,
                                        m.prep.tracer.get(), consumer,
                                        m.deadline),
                 consumer});
        } catch (...) {
            consumer->detach();
            out[j].error = std::current_exception();
        }
    }

    double decode_seconds = 0.0;
    std::size_t running = lanes.size();
    while (running > 0) {
        auto d0 = std::chrono::steady_clock::now();
        batch.refill();
        decode_seconds += secondsSince(d0);
        for (Lane &lane : lanes) {
            if (!lane.live)
                continue;
            unsigned fetch_width =
                members[lane.j].prep.config.core.fetchWidth;
            auto t0 = std::chrono::steady_clock::now();
            try {
                while (lane.live &&
                       (batch.decodeDone() ||
                        lane.consumer->position() + fetch_width <=
                            batch.decodedCount())) {
                    lane.live = lane.core->stepCycle();
                }
            } catch (...) {
                lane.live = false;
                out[lane.j].error = std::current_exception();
            }
            lane.hostSeconds += secondsSince(t0);
            if (!lane.live) {
                lane.consumer->detach();
                --running;
            }
        }
    }

    double decode_share =
        lanes.empty() ? 0.0
                      : decode_seconds / static_cast<double>(lanes.size());
    for (Lane &lane : lanes) {
        if (out[lane.j].error)
            continue;
        auto t0 = std::chrono::steady_clock::now();
        try {
            CoreResult cr = lane.core->finalize();
            lane.hostSeconds += secondsSince(t0);
            out[lane.j].result =
                finishExperiment(members[lane.j].prep, std::move(cr),
                                 lane.hostSeconds + decode_share);
        } catch (...) {
            out[lane.j].error = std::current_exception();
        }
    }
    for (std::size_t j : part)
        out[j].seconds += secondsSince(start);
}

/** Feed and run one partition (members sharing an actual key). */
void
runPartition(WorkloadCache *cache, std::vector<Member> &members,
             const std::vector<std::size_t> &part,
             std::vector<RunOutcome> &out)
{
    const StreamKey &key = members[part.front()].prep.key;
    WorkloadCache::StreamPtr stream;
    // Acquiring the stream is a stage of its own (the run is the next).
    auto start = std::chrono::steady_clock::now();
    for (std::size_t j : part)
        members[j].rearm();
    if (cache) {
        try {
            stream = acquireStream(*cache, members, part);
        } catch (...) {
            // Every member shared the failed capture (e.g. the lead's
            // deadline expired), so each attempt fails with it.
            for (std::size_t j : part)
                out[j].error = std::current_exception();
            return;
        }
    }

    // Attach verifies the stream's sealed header and per-lane
    // checksums (stream/stream.hh). A corrupt capture must never be
    // replayed: drop the cached entry (a later run re-captures) and
    // run live, which is bit-identical.
    std::unique_ptr<StreamCursor> cursor;
    std::optional<BatchedStreamRun> batch;
    if (stream) {
        try {
            if (part.size() == 1)
                cursor = std::make_unique<StreamCursor>(stream);
            else
                batch.emplace(stream);
        } catch (const StreamIntegrityError &e) {
            cache->noteStreamIntegrityFailure(key);
            warn("%s for %s; falling back to live emulation", e.what(),
                 key.workload.c_str());
        }
    }
    for (std::size_t j : part)
        out[j].seconds += secondsSince(start);
    if (batch) {
        runLockstep(*batch, members, part, out);
        return;
    }
    for (std::size_t j : part)
        runAlone(members[j], cursor.get(), out[j]);
}

} // namespace

std::vector<RunOutcome>
runGroup(const std::vector<ExperimentConfig> &configs,
         const std::vector<RunContext> &contexts,
         const GroupOptions &options)
{
    const std::size_t n = configs.size();
    RVP_ASSERT(contexts.size() == n);
    std::vector<RunOutcome> out(n);
    std::vector<Member> members(n);

    // Prepare every member once. The attempt starts here, so its
    // budget is armed before any compilation and a throw is this
    // attempt's failure. Prepared members are partitioned by their
    // actual stream key, in order of first appearance.
    std::vector<std::vector<std::size_t>> partitions;
    for (std::size_t j = 0; j < n; ++j) {
        Member &m = members[j];
        RunContext context = contexts[j];
        m.budget = options.runDeadline;
        m.rearm();
        if (m.armed)
            context.deadline = &*m.armed;
        m.deadline = context.deadline;
        auto start = std::chrono::steady_clock::now();
        try {
            if (options.onAttemptStart)
                options.onAttemptStart(configs[j], context);
            m.prep = prepareExperiment(configs[j], context);
        } catch (...) {
            out[j].error = std::current_exception();
        }
        out[j].seconds = secondsSince(start);
        if (out[j].error)
            continue;
        auto it = std::find_if(
            partitions.begin(), partitions.end(),
            [&](const std::vector<std::size_t> &part) {
                return members[part.front()].prep.key == m.prep.key;
            });
        if (it == partitions.end())
            partitions.push_back({j});
        else
            it->push_back(j);
    }

    for (const std::vector<std::size_t> &part : partitions) {
        const RunContext &lead = contexts[part.front()];
        runPartition(lead.bypassStream ? nullptr : lead.cache, members,
                     part, out);
    }
    return out;
}

} // namespace rvp
