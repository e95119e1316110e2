/**
 * @file
 * Parallel experiment scheduler with compile/profile memoization.
 *
 * The paper's evaluation is a grid of independent ExperimentConfigs
 * (workload x predictor variant); every run used to recompile and
 * re-profile its workload from scratch and the grid ran serially.
 * runSweep() executes a grid on a pool of worker threads and shares
 * one WorkloadCache across all runs, so each (workload, input) is
 * compiled once and each (workload, input, profileInsts) is profiled
 * once per sweep instead of once per config.
 *
 * Determinism guarantee: compilation, profiling, and simulation are
 * pure functions of their configuration (no shared mutable state
 * between runs — each run owns its Core/Emulator/predictor, and
 * cached artifacts are immutable), so the results are bit-identical
 * regardless of the job count or the order workers pick runs up.
 */

#ifndef RVP_SIM_SWEEP_HH
#define RVP_SIM_SWEEP_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "sim/runner.hh"
#include "stream/stream.hh"

namespace rvp
{

/** Human-readable scheme name (stable, lowercase). */
const char *schemeName(VpScheme scheme);

/** Stable lowercase assist-level and recovery-policy names: one
 *  two-way table per enum for reports, the wire and every tool. The
 *  lookups throw ConfigError listing the names on an unknown one. */
const char *assistName(AssistLevel level);
AssistLevel assistForName(const std::string &name);
const char *recoveryName(RecoveryPolicy policy);
RecoveryPolicy recoveryForName(const std::string &name);

/** One-line description of a config for progress lines and reports. */
std::string describeConfig(const ExperimentConfig &config);

/** Snapshot of the cache-effectiveness counters. */
struct WorkloadCacheStats
{
    std::uint64_t compileHits = 0;
    std::uint64_t compileMisses = 0;
    std::uint64_t profileHits = 0;
    std::uint64_t profileMisses = 0;
    /** Committed-stream cache (stream/stream.hh): a hit replays a
     *  captured stream, a miss runs (and usually captures) live. Each
     *  stream() call counts exactly one of the two. */
    std::uint64_t streamHits = 0;
    std::uint64_t streamMisses = 0;
    /** stream() calls that waited on another caller's in-flight
     *  capture of the same key (each then counts its hit or miss). */
    std::uint64_t streamWaits = 0;
    std::uint64_t streamEvicted = 0;
    /** Cached streams that failed header/checksum verification at
     *  cursor attach: each one was dropped from the cache and its run
     *  fell back to live emulation (bit-identical results). */
    std::uint64_t streamIntegrityFailures = 0;
    /** Captures that threw std::bad_alloc: each halves the stream
     *  byte budget and pins the key to live emulation. */
    std::uint64_t streamCaptureOoms = 0;
    /** Capture totals, monotonic: encoded bytes / instructions over
     *  every stream built (bytes/inst = the encoding density). */
    std::uint64_t streamBytesBuilt = 0;
    std::uint64_t streamInstsBuilt = 0;
    /** Encoded bytes currently resident (kept <= the byte budget). */
    std::uint64_t streamBytesResident = 0;
};

/**
 * Process-wide-shareable memo cache for compiled workloads and train
 * profiles. Thread safe: concurrent requests for the same key block
 * on one shared build (shared_future) instead of duplicating work.
 * Cached artifacts are immutable — callers copy before mutating.
 */
class WorkloadCache
{
  public:
    using StreamPtr = std::shared_ptr<const CapturedStream>;

    /**
     * Default committed-stream byte budget. The full paper grid keeps
     * a few dozen ~400K-instruction streams at a few bytes per
     * instruction resident, so this holds everything with headroom;
     * eviction exists for tighter custom budgets.
     */
    static constexpr std::uint64_t defaultStreamCacheBytes =
        256ull * 1024 * 1024;

    WorkloadCache() = default;
    /** Committed-stream budget in bytes; 0 disables stream caching
     *  entirely (every run uses live emulation). */
    explicit WorkloadCache(std::uint64_t streamCacheBytes)
        : streamBudget_(streamCacheBytes)
    {
    }

    /**
     * Compiled (workload, input), built at most once per cache. The
     * first requester's deadline (may be null) governs the shared
     * build; a build that throws (deadline, OOM) is evicted so a
     * later attempt can rebuild instead of inheriting the failure.
     */
    std::shared_ptr<const CompiledWorkload>
    compiled(const std::string &workload, InputSet input,
             const RunDeadline *deadline = nullptr);

    /** ProfileRun of (workload, input, insts), built at most once
     *  (same deadline and failure-eviction semantics as compiled()). */
    std::shared_ptr<const ProfileRun>
    profiled(const std::string &workload, InputSet input,
             std::uint64_t insts, const RunDeadline *deadline = nullptr);

    /**
     * Committed stream for key, covering at least minInsts
     * instructions, built at most once via build(maxBytes) (capture
     * returns null above maxBytes). Returns null when the caller
     * should fall back to live emulation: caching disabled, or the
     * stream is too big for the budget. A cached-but-truncated stream
     * shorter than minInsts is rebuilt at the larger bound. The
     * returned stream is immutable and safe to replay concurrently;
     * it stays valid after eviction (shared ownership).
     */
    StreamPtr stream(const StreamKey &key, std::uint64_t minInsts,
                     const std::function<StreamPtr(std::uint64_t)> &build);

    /** Current committed-stream byte budget (0 = disabled). Starts at
     *  the configured value; halved by each capture OOM. */
    std::uint64_t streamBudgetBytes() const
    {
        return streamBudget_.load(std::memory_order_relaxed);
    }

    /**
     * A capture for key threw std::bad_alloc: halve the stream byte
     * budget (graceful degradation under memory pressure — repeated
     * OOMs walk the budget down to 0, i.e. replay disabled) and pin
     * key as a negative entry so it runs live from now on.
     */
    void noteCaptureOom(const StreamKey &key);

    /**
     * A cached stream for key failed integrity verification at cursor
     * attach (StreamIntegrityError): drop it so the next request
     * re-captures (a miss), and count the failure. The reporting run
     * falls back to live emulation.
     */
    void noteStreamIntegrityFailure(const StreamKey &key);

    WorkloadCacheStats stats() const;

  private:
    using CompiledPtr = std::shared_ptr<const CompiledWorkload>;
    using ProfilePtr = std::shared_ptr<const ProfileRun>;
    using CompileKey = std::pair<std::string, int>;
    using ProfileKey = std::tuple<std::string, int, std::uint64_t>;

    /** One stream slot: pending (waiters block on `future`) or
     *  resolved (`stream` set before the future is published). A
     *  resolved null stream is a negative entry — the stream exceeded
     *  the budget and the key always runs live. */
    struct StreamEntry
    {
        std::shared_future<StreamPtr> future;
        StreamPtr stream;
        std::uint64_t bytes = 0;
        std::uint64_t lastUse = 0;
        bool resolved = false;
    };

    /** Evict least-recently-used streams (never `keep`, never pending
     *  builds) until the resident total fits the budget. Locked. */
    void evictStreamsOverBudget(const StreamKey &keep);

    mutable std::mutex mutex_;
    std::map<CompileKey, std::shared_future<CompiledPtr>> compiled_;
    std::map<ProfileKey, std::shared_future<ProfilePtr>> profiled_;
    std::map<StreamKey, StreamEntry> streams_;
    /** Atomic: read lock-free on the capture path, halved (under the
     *  lock, but racing readers are benign) by noteCaptureOom. */
    std::atomic<std::uint64_t> streamBudget_{defaultStreamCacheBytes};
    std::uint64_t streamStamp_ = 0;
    WorkloadCacheStats stats_;
};

/** Scheduler knobs. */
struct SweepOptions
{
    /** Worker threads; 0 means defaultJobs(). */
    unsigned jobs = 0;
    /** Emit a per-run progress line to stderr. */
    bool progress = true;
    /**
     * The per-config run body; null means runExperiment. A seam for
     * tests that need to exercise the scheduler itself (e.g. inject a
     * throwing run and check the sweep contains it) without standing
     * up a full simulation. The RunContext carries the grid index,
     * the attempt's deadline, and the degraded-retry switches.
     */
    std::function<ExperimentResult(const ExperimentConfig &,
                                   WorkloadCache &, const RunContext &)>
        runFn;
    /**
     * Capture each distinct binary's committed stream once and replay
     * it in every run sharing that binary (bit-identical stats; see
     * stream/stream.hh). Off = always live emulation.
     */
    bool streamCapture = true;
    /** Total (and per-stream) encoded-stream byte budget; least-
     *  recently-used streams are evicted back to live emulation. */
    std::uint64_t streamCacheBytes =
        WorkloadCache::defaultStreamCacheBytes;
    /**
     * Per-attempt wall-clock watchdog, seconds; 0 disables (the null
     * fast path leaves the golden stats and the sweep wall time
     * unchanged). An attempt that overruns fails with error
     * "deadline exceeded (...)" instead of wedging its worker; the
     * retry (below) gets a fresh budget.
     */
    double runDeadline = 0.0;
    /**
     * Retry attempts for a failed run (deadline, exception, OOM),
     * each under the degraded profile: stream replay bypassed (live
     * emulation), tracing and histograms off. The result records
     * `retries` and `degraded`. 0 restores fail-on-first-error.
     */
    unsigned maxRetries = 1;
    /** Sleep before each retry, seconds (bounded backoff: doubled per
     *  attempt, capped at 1s). */
    double retryBackoff = 0.05;
    /**
     * Config-batched replay (sim/batchrun.hh): group pending runs by
     * the stream key of their timed binary and drive each multi-run
     * group's timing models in lockstep off ONE decode of the
     * captured stream, instead of decoding it once per run. Results
     * are bit-identical to solo replay, and per-run journaling,
     * deadlines, and retry-with-degradation are preserved — a batched
     * run that fails falls out of its batch and retries solo under
     * the degraded profile. Only applies when streamCapture is on and
     * no custom runFn is installed (the batch *is* the run body);
     * single-member groups take the solo path unchanged.
     */
    bool batchReplay = true;
    /**
     * Upper bound on runs driven in one batched-replay group. The
     * paper grid concentrates 268 of 308 runs in 18 stream-key
     * groups; unchunked, each group is one indivisible scheduling
     * unit and the tail of a parallel sweep serializes behind the
     * biggest ones. Chunks are bit-identical to the whole group (each
     * chunk decodes the same captured stream; members never interact).
     * 0 = unchunked. Single-run chunks take the solo path unchanged.
     */
    unsigned maxBatchGroupRuns = 16;
    /**
     * Use this cache instead of a sweep-local one (stream budget and
     * hit counters then span sweeps). rvpsweepd keeps one cache
     * across every batch it executes, so repeated grids share
     * compiles, profiles and streams; perfbench fills one outside
     * its timed sweeps. Null = per-sweep cache, constructed
     * from streamCapture/streamCacheBytes.
     */
    WorkloadCache *sharedCache = nullptr;
    /**
     * Test seam: invoked at the start of every solo attempt and of
     * every batch-member preparation, with that attempt's RunContext.
     * A throw is contained exactly like a run-body throw (the attempt
     * fails and the usual retry path runs). Null in production.
     */
    std::function<void(const ExperimentConfig &, const RunContext &)>
        onAttemptStart;
    /**
     * Called after each run reaches its final state (post-retry),
     * from the worker thread that ran it, before the sweep moves on.
     * sweep_all journals the run here so a killed sweep can resume;
     * the sweep service looks the run's key up by index and publishes
     * its record. Serialize internally if the callback touches shared
     * state.
     */
    std::function<void(std::size_t index, const ExperimentResult &result,
                       double runSeconds)>
        onRunComplete;
};

/** Per-sweep observability (timings and cache effectiveness). */
struct SweepReport
{
    /** End-to-end sweep wall-clock, seconds. */
    double wallSeconds = 0.0;
    /** Per-config run wall-clock, seconds, in input order. */
    std::vector<double> runSeconds;
    unsigned jobs = 0;
    WorkloadCacheStats cache;
    /** Config-batched replay effectiveness (all 0 when batching was
     *  off or every group was a singleton). */
    std::uint64_t batchGroups = 0;   ///< multi-run groups run in lockstep
    std::uint64_t batchedRuns = 0;   ///< runs resolved inside a batch
    std::uint64_t batchFallouts = 0; ///< members that fell out to solo
};

/**
 * Min/max simulator throughput over the runs that completed (failed
 * runs are excluded — their kips is a meaningless default 0). `any`
 * is false when no run completed; callers must not report the
 * zero-initialized minimum as a measured one. A legitimately-zero
 * kips value from a completed run (e.g. a degraded retry under
 * --stable-output) IS a valid minimum and is not skipped.
 */
struct KipsSummary
{
    double minKips = 0.0;
    double maxKips = 0.0;
    bool any = false;
};

KipsSummary summarizeKips(const std::vector<ExperimentResult> &results);

/** Worker threads to use by default (hardware_concurrency, min 1). */
unsigned defaultJobs();

/**
 * Run body(i) for every i in [0, count) on up to `jobs` threads
 * (inline when jobs <= 1). Blocks until all iterations finish. The
 * body must not throw — an escaping exception would unwind a worker
 * thread and std::terminate the process, so callers with fallible
 * bodies must catch per iteration (as runSweep does). Iteration order
 * across threads is unspecified, so bodies must only touch disjoint
 * state (e.g. results[i]).
 */
void parallelFor(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)> &body);

/**
 * The groups a batched-replay sweep runs in lockstep: the indices of
 * configs grouped by presumed stream key (streamKeyFor with
 * reallocFailed=false) in order of first appearance, input order
 * within a group, each group cut into chunks of at most maxGroupRuns
 * runs (0 = no cap). Every index lands in exactly one group and no
 * group mixes keys.
 */
std::vector<std::vector<std::size_t>>
streamKeyGroups(const std::vector<ExperimentConfig> &configs,
                unsigned maxGroupRuns);

/**
 * Run every config in the grid and return results in input order.
 * All configs are validated up front (fail fast before any work).
 * A run body that throws does not take the sweep down: the exception
 * is caught per attempt, the run is retried up to options.maxRetries
 * times under the degraded profile (live emulation, no tracing or
 * histograms), and if every attempt fails the result comes back with
 * failed=true and the last message in error while every other run
 * completes normally.
 */
std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &configs,
         const SweepOptions &options = {}, SweepReport *report = nullptr);

} // namespace rvp

#endif // RVP_SIM_SWEEP_HH
