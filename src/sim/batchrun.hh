/**
 * @file
 * The run driver: every timed run executes in runGroup().
 *
 * runGroup() takes the runs the scheduler presumes share one committed
 * stream (sim/sweep.hh, streamKeyGroups) — or the single run of
 * runExperiment — prepares each member once (compile/profile/predictor,
 * memoized through the WorkloadCache), partitions the prepared members
 * by their actual stream key (a Section-7.3 re-allocation that failed
 * to colour folds onto the Base binary and forms its own partition),
 * and feeds each partition from what it can observe:
 *
 *  - no stream (no cache, a degraded retry, a stream over the byte
 *    budget, a capture OOM, or an integrity failure at attach): each
 *    member runs live emulation in place;
 *  - one member: a StreamCursor, which decodes only as far as its core
 *    fetches;
 *  - two or more members: one BatchedStreamRun (stream/batch.hh),
 *    decoded once and stepped in lockstep.
 *
 * The feed changes how fast a run goes, never what it measures: every
 * member owns its Core, predictor, tracer and reconstructed ArchState,
 * so results are bit-identical whichever feed ran them.
 *
 *  - Every member makes exactly one WorkloadCache::stream() lookup, so
 *    the cache's hit and miss counters count runs.
 *  - A member's wall-clock budget is armed afresh at its preparation,
 *    its stream acquisition and its run, so it never pays for another
 *    member's; in a lockstep partition co-members' bursts count
 *    against it (shared wall clock), and an overrun throws out of that
 *    member only.
 *  - A member that throws (at preparation, in a shared capture, mid-run
 *    or at finalize) comes back with that attempt's exception while
 *    the other members finish unaffected. The driver never retries:
 *    runSweep retries a failed run as a group of one under the
 *    degraded profile.
 */

#ifndef RVP_SIM_BATCHRUN_HH
#define RVP_SIM_BATCHRUN_HH

#include <exception>
#include <functional>
#include <vector>

#include "sim/runner.hh"

namespace rvp
{

/** One member's attempt: a result, or the exception that ended it. */
struct RunOutcome
{
    ExperimentResult result;
    /** The attempt's failure (typed, e.g. DeadlineExceeded); null when
     *  result holds the finished run. */
    std::exception_ptr error;
    /** A BatchedStreamRun fed the attempt (not a cursor, not live). */
    bool batched = false;
    /** Wall-clock seconds of the member's own stages (see above; in
     *  lockstep, the whole run), never of stages it waited for. */
    double seconds = 0.0;
};

/** Driver knobs (runSweep plumbs them from SweepOptions). */
struct GroupOptions
{
    /**
     * Each member's wall-clock budget, seconds (see above); 0 = use
     * each context's own deadline (may be null).
     */
    double runDeadline = 0.0;
    /** Called with each member's config and context just before its
     *  preparation; a throw fails that member's attempt
     *  (SweepOptions::onAttemptStart). */
    std::function<void(const ExperimentConfig &, const RunContext &)>
        onAttemptStart;
};

/**
 * Run every config once. configs and contexts are parallel; the
 * contexts share one cache and one bypassStream setting (a null cache
 * or bypassStream = live emulation), and each carries its member's
 * grid index and attempt. Returns one outcome per config, in order.
 */
std::vector<RunOutcome>
runGroup(const std::vector<ExperimentConfig> &configs,
         const std::vector<RunContext> &contexts,
         const GroupOptions &options = {});

} // namespace rvp

#endif // RVP_SIM_BATCHRUN_HH
