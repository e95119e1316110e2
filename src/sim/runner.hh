/**
 * @file
 * Experiment runner: the end-to-end recipe the paper's evaluation
 * uses. One experiment = build workload -> compile (graph-colouring
 * register allocation) -> profile the *train* input -> configure a
 * value predictor (and optionally re-allocate registers per Section
 * 7.3) -> run the *ref* input through the out-of-order core.
 *
 * Compilation and profiling are deterministic functions of
 * (workload, input[, profileInsts]), so a sweep over many experiment
 * configurations can share them; see sim/sweep.hh for the memoizing
 * parallel scheduler built on the hooks exposed here.
 */

#ifndef RVP_SIM_RUNNER_HH
#define RVP_SIM_RUNNER_HH

#include <string>
#include <tuple>

#include "common/deadline.hh"
#include "compiler/lower.hh"
#include "compiler/regalloc.hh"
#include "profile/reuse_profiler.hh"
#include "uarch/core.hh"
#include "vp/oracle.hh"
#include "workloads/workloads.hh"

namespace rvp
{

/** Configuration of one experiment run. */
struct ExperimentConfig
{
    std::string workload = "go";
    CoreParams core;
    VpScheme scheme = VpScheme::None;
    /** Compiler-assistance level for RVP schemes. */
    AssistLevel assist = AssistLevel::Same;
    /** Restrict prediction to loads. */
    bool loadsOnly = true;
    /** Profiler selection threshold (0.8; 0.9 for Figure 4). */
    double profileThreshold = 0.8;
    /** Instructions profiled on the train input. */
    std::uint64_t profileInsts = 300'000;
    /**
     * Figure 7: replace the optimistic profile application with a real
     * register re-allocation (Section 7.3) and plain same-register
     * dynamic RVP on the re-allocated binary.
     */
    bool realisticRealloc = false;
    /** Ablation: tag the RVP confidence counters. */
    bool taggedRvp = false;
    /**
     * Predictor table entries (LVP values / RVP counters; the paper
     * gives both mechanisms the same 1K-entry budget). Note: our
     * synthetic workloads have a few hundred static instructions, so
     * unlike the paper's SPEC95 binaries they never pressure the
     * table — this makes the LVP baseline here slightly *stronger*
     * than the paper's (see EXPERIMENTS.md); the ablation benchmarks
     * sweep the size.
     */
    unsigned tableEntries = 1024;
    /** Confidence threshold (paper: 7 on 3-bit resetting counters). */
    unsigned counterThreshold = 7;
    /**
     * Scheme-specific predictor overrides in the registry param-bag
     * grammar "key=value,key=value" (vp/registry.hh; empty = factory
     * defaults). Validated against the scheme's declared params and
     * value rules by validateExperimentConfig, which throws
     * VpConfigError on malformed text, unaccepted keys or bad values.
     */
    std::string vpParams;
    /**
     * Write a sampled pipeline-lifecycle trace of the timed run to
     * this path (empty = tracing off; the core then pays a single
     * predictable null-pointer branch per hook). A ".jsonl" suffix
     * selects the line-delimited format, anything else gets Chrome
     * trace-event JSON (load in chrome://tracing or ui.perfetto.dev).
     */
    std::string traceOut;
    /**
     * Trace every Nth dynamic instruction (by fetch sequence number,
     * so the sample set is identical across job counts). Must be > 0
     * when tracing is on.
     */
    std::uint64_t traceSample = 64;
};

/** Results of one experiment run. */
struct ExperimentResult
{
    double ipc = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    /** Fraction of committed instructions that were predicted. */
    double predictedFrac = 0.0;
    /** Prediction accuracy (correct / predicted). */
    double accuracy = 0.0;
    /**
     * A requested Section-7.3 re-allocation could not colour the graph
     * and the run silently kept the baseline allocation (so the
     * numbers measure plain same-register dynamic RVP, not the
     * re-allocated binary). Also recorded as the realloc.failed stat.
     */
    bool reallocFailed = false;
    /** Host wall-clock seconds spent inside Core::run(). */
    double hostSeconds = 0.0;
    /**
     * Simulator throughput: committed kilo-instructions per host
     * second. Deliberately NOT a StatSet entry — stat maps are
     * compared bit-for-bit across runs (golden snapshots, parallel
     * vs. serial sweeps) and host timing is nondeterministic.
     */
    double kips = 0.0;
    /**
     * Every attempt failed (set by runSweep, never by runExperiment
     * itself, which propagates). A failed run keeps default-initialized
     * metrics. Checked by sweep_all when writing result rows.
     */
    bool failed = false;
    /**
     * The first failed attempt's exception message: set on a failed
     * run, and kept on a run that succeeded only on a retry
     * (retries > 0), so the report can say why it ran degraded.
     */
    std::string error;
    /**
     * Recovery trail (set by runSweep, journaled by sweep_all): how
     * many retry attempts this result consumed, and whether it was
     * produced under the degraded profile (stream replay bypassed,
     * tracing and histograms off). A degraded success is still exact
     * for every stat the original configuration would have emitted
     * without tracing/histograms — replay is bit-identical to live.
     */
    unsigned retries = 0;
    bool degraded = false;
    StatSet stats;
};

/** A compiled workload instance (immutable once built). */
struct CompiledWorkload
{
    BuiltWorkload wl;
    AllocResult alloc;
    LowerResult low;
};

/**
 * Identity of a committed instruction stream (stream/stream.hh): the
 * emulator is deterministic, so the stream is keyed by exactly what
 * determines the bits of the executed binary — and by nothing that
 * only changes the timing model or the predictor around it (recovery
 * policy, table sizes, loadsOnly, core geometry all share one stream).
 */
struct StreamKey
{
    /** Which compiler pipeline produced the timed binary. */
    enum class Binary : std::uint8_t
    {
        Base,        ///< plain ref compile (incl. failed reallocs)
        SrvpMarked,  ///< rvp_*-marked loads (StaticRvp)
        Realloc,     ///< Section-7.3 register re-allocation
    };

    std::string workload;
    InputSet input = InputSet::Ref;
    Binary binary = Binary::Base;
    /** Mutated binaries only: the profile that shaped them. */
    AssistLevel assist = AssistLevel::Same;
    std::uint64_t profileInsts = 0;
    std::uint64_t thresholdBits = 0;   ///< profileThreshold bit pattern

    bool
    operator<(const StreamKey &o) const
    {
        return std::tie(workload, input, binary, assist, profileInsts,
                        thresholdBits) <
               std::tie(o.workload, o.input, o.binary, o.assist,
                        o.profileInsts, o.thresholdBits);
    }
    bool operator==(const StreamKey &) const = default;
};

/**
 * Stream identity of config's timed (ref) binary. reallocFailed runs
 * kept the baseline allocation, so they fold onto the Base key.
 */
StreamKey streamKeyFor(const ExperimentConfig &config,
                       bool reallocFailed);

/** Profile + critical-path scores over one compiled workload. */
struct ProfileRun
{
    ReuseProfile profile;
    std::vector<double> cpScores;
};

/** Build + register-allocate + lower one workload input. A non-null
 *  deadline is checked between the compilation phases. */
CompiledWorkload compileWorkload(const std::string &name, InputSet input,
                                 const RunDeadline *deadline = nullptr);

/** Run the reuse + critical-path profilers over a compiled workload.
 *  A non-null deadline is checked periodically in the profiling loop. */
ProfileRun profileCompiled(const CompiledWorkload &c, std::uint64_t insts,
                           const RunDeadline *deadline = nullptr);

/** Largest instruction budget (timed or profiled) a config may ask
 *  for: ample, and the replay bound maxInsts + robEntries +
 *  commitWidth stays far from wrapping. */
constexpr std::uint64_t maxInstBudget = std::uint64_t{1} << 40;

/**
 * The one validator: throws ConfigError (common/parse.hh) naming the
 * field, the value and the rule when a config cannot run as asked —
 * unknown workloads, budgets outside [1, maxInstBudget], knobs out of
 * range, a bad cache hierarchy, undeclared scheme params or param
 * values the scheme's rules refuse, a trace path whose directory is
 * missing or not writable, and combinations the runner would
 * otherwise silently reinterpret, such as realisticRealloc with a
 * non-DynamicRvp scheme or StaticRvp with loadsOnly=false. Every tool
 * and the sweep service call it first.
 */
void validateExperimentConfig(const ExperimentConfig &config);

class WorkloadCache;   // sim/sweep.hh

/**
 * Everything about *how* one run executes that is not part of the
 * experiment's identity: shared caches, the watchdog deadline of this
 * attempt, and the degraded-retry switches. Plumbed (not stored in
 * ExperimentConfig) so the same config can be retried under a
 * different context without changing what it measures.
 */
struct RunContext
{
    /** Shared memo cache; null = compile/profile/capture from scratch. */
    WorkloadCache *cache = nullptr;
    /** Wall-clock budget of this attempt; null = no watchdog. */
    const RunDeadline *deadline = nullptr;
    /**
     * Degraded retry: skip committed-stream replay and run live
     * emulation even when a cache is present (a corrupt or
     * unbuildable stream must not fail the run twice).
     */
    bool bypassStream = false;
    /** Position in the sweep grid (fault-injection seam addressing). */
    std::size_t runIndex = 0;
    /** 0 = first attempt, 1 = the degraded retry. */
    unsigned attempt = 0;
};

/**
 * Everything a run builds *before* its timed Core exists: compiled
 * binaries, profiles, the predictor, the tracer, and the stream
 * identity of the timed binary. The run driver (sim/batchrun.hh)
 * prepares every member of a group, partitions them by stream key,
 * feeds each partition, and finishes each run with
 * finishExperiment().
 */
struct PreparedRun
{
    ExperimentConfig config;
    /** Train profile + the binary it points into (kept alive). */
    std::shared_ptr<const ProfileRun> trainProfile;
    std::shared_ptr<const CompiledWorkload> trainKeepalive;
    /** Pristine ref compile (shared, possibly cached). */
    std::shared_ptr<const CompiledWorkload> refShared;
    /** Private rewritten copy for binary-mutating schemes. Heap-held
     *  so moving a PreparedRun never relocates the Program the
     *  predictor references (StaticRvpPredictor keeps a reference to
     *  the marked binary). */
    std::unique_ptr<CompiledWorkload> mutated;
    bool useMutated = false;
    bool reallocFailed = false;
    StatSet reallocStats;
    VpConfig vp;
    std::unique_ptr<ValuePredictor> predictor;
    std::unique_ptr<PipelineTracer> tracer;
    /** Stream identity of the timed binary (realloc failures folded). */
    StreamKey key;
    /** Instructions a replay must cover: the commit budget plus the
     *  fetch-ahead window (ROB) and the final commit group. */
    std::uint64_t minInsts = 0;

    /** The binary the timed Core runs. */
    const Program &
    timedProgram() const
    {
        return useMutated ? mutated->low.program
                          : refShared->low.program;
    }
};

/**
 * Build everything up to (but not including) the timed Core: compile,
 * profile, apply the scheme's binary rewrite, construct the predictor
 * and tracer. Memoized through context.cache when present. Throws on
 * the same failures runExperiment would (deadline, validation, OOM).
 */
PreparedRun prepareExperiment(const ExperimentConfig &config,
                              const RunContext &context);

/**
 * Turn a finished timed run into an ExperimentResult: write the trace
 * (if any), assemble stats, attribute hostSeconds. `cr` is taken by
 * value because trace bookkeeping lands in its stat map.
 */
ExperimentResult finishExperiment(PreparedRun &prep, CoreResult cr,
                                  double hostSeconds);

/**
 * Run one experiment end to end under an explicit context: a group of
 * one through the run driver (sim/batchrun.hh), which rethrows the
 * attempt's exception (e.g. DeadlineExceeded, ConfigError). With a
 * non-null context.cache, compilation, train-profiling and the
 * committed stream are memoized across runs (bit-identical results;
 * see sim/sweep.hh); without one the run emulates live.
 */
ExperimentResult runExperiment(const ExperimentConfig &config,
                               const RunContext &context);

/** Convenience overload: cache only, default context otherwise. */
ExperimentResult runExperiment(const ExperimentConfig &config,
                               WorkloadCache *cache);

/** Run one experiment end to end (no memoization). */
ExperimentResult runExperiment(const ExperimentConfig &config);

/**
 * Run the profiler only (Figure 1): returns the ReuseProfile of the
 * named workload's *ref* input.
 */
ReuseProfile profileWorkload(const std::string &workload,
                             std::uint64_t insts, InputSet input);

} // namespace rvp

#endif // RVP_SIM_RUNNER_HH
