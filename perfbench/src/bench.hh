/**
 * @file
 * Shared pieces of rvp_bench, the benchmark program: options, the span recorder
 * behind the traced run, latency summaries, the per-layer metric
 * table, and the result every workload hands back to main().
 *
 * rvp_bench links the simulator's libraries and calls their public
 * functions directly; spans are recorded only around those calls,
 * from the caller's side, so the simulator itself is never modified.
 */

#ifndef RVP_PERFBENCH_BENCH_HH
#define RVP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "sim/runner.hh"

namespace bench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Command line of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Two programs at small budgets: the benchmark's own count test. */
    bool tiny = false;
    std::string daemonPath;
    std::string runDir;
};

// ---------------------------------------------------------------- spans

/** One traced call: [start, end) seconds since the recorder's epoch. */
struct Span
{
    const char *name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;          ///< index of the enclosing span, -1 = none
    std::uint64_t request = 0;///< run, experiment or request id
};

/**
 * In-memory span log. Disabled, scope() costs one branch; enabled, it
 * appends a span and keeps a stack of open spans for parent links.
 */
class SpanRecorder
{
  public:
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *name, std::uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int index_ = -1;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    Scope scope(const char *name, std::uint64_t request = 0)
    {
        return Scope(enabled_ ? this : nullptr, name, request);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Sum over spans called name of duration minus child coverage. */
    double selfSeconds(const std::string &name) const;

    /** One JSON object per line: name, start, end, parent, request. */
    bool writeJsonl(const std::string &path) const;

  private:
    Clock::time_point epoch_ = Clock::now();
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

// ------------------------------------------------------------- summaries

/** Median and tail of a latency sample, in milliseconds. */
struct LatencySummary
{
    double p50 = 0.0;
    double tail = 0.0;
    /** The tail's percentile: the highest with >= 10 samples beyond it
     *  (the maximum when there are fewer than 11 samples). */
    double tailPercentile = 0.0;
    /** Samples behind p50 and tail (per block when blocks > 0). */
    std::size_t samples = 0;
    /** 0: one pooled sample. Otherwise p50, tail and its percentile
     *  are medians over this many blocks' own summaries. */
    std::size_t blocks = 0;
};

LatencySummary summarize(std::vector<double> ms);

/** Summarize each block, then take the median of each field. */
LatencySummary summarizeBlocks(const std::vector<std::vector<double>> &ms);

/** Median of a sample (mean of the middle two when even). */
double median(std::vector<double> values);

// ------------------------------------------------------ workload result

/** What a workload run hands back to main() for printing. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure messages (stderr only). */
    std::vector<std::string> failures;

    /** End-to-end metrics (name -> value); units come from the table. */
    std::map<std::string, double> endToEnd;
    /** Sample count and tail percentile behind each latency metric. */
    std::map<std::string, LatencySummary> latencies;
    /** Rounds (or blocks) measured, and set-up samples taken. */
    std::size_t rounds = 0;
    std::size_t setupSamples = 0;

    /** Per-layer counts of the first round: exact, repeatable. */
    std::map<std::string, double> counts;
    /** Per-layer times of the traced round or block (the second). */
    std::map<std::string, double> layerTimes;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            fail(what);
    }

    void
    fail(const std::string &what)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(what);
    }
};

/** Every end-to-end metric, in output order: (name, unit). */
const std::vector<std::pair<std::string, std::string>> &endToEndTable();

/** Every per-layer metric, in output order: (name, unit). */
const std::vector<std::pair<std::string, std::string>> &perLayerTable();

// ------------------------------------------------- run-level accounting

/**
 * Identity of a result's outcome: workload plus the full stat map.
 * Two runs with the same identity are the same effective experiment.
 */
std::uint64_t outcomeId(const std::string &workload,
                        const rvp::StatSet &stats);

/** correct <= predictions <= eligible, and neither failed nor degraded. */
bool resultSane(const rvp::ExperimentResult &r, std::string *why);

/** A delivered result and the program it ran. */
struct RunRef
{
    const std::string *workload;
    const rvp::ExperimentResult *result;
};

/**
 * Counts every simulating workload shares, summed over the simulated
 * runs of its first round: uarch.cycles/committed/issued, the vp
 * counters, sim.runs_simulated and sim.distinct_outcomes.
 */
void addSimCounts(const std::vector<RunRef> &runs,
                  std::map<std::string, double> &counts);

/** The run compiles and profiles its train input first. */
bool needsProfile(const rvp::ExperimentConfig &c);

/** Instructions the run pulled from its source: core.fetched (which
 *  also counts refetches) capped at the run's PreparedRun::minInsts,
 *  the most a replay of its stream can supply. */
std::uint64_t sourceSteps(const rvp::ExperimentResult &r,
                          std::uint64_t minInsts);

/** Peak resident set of this process since the last reset, MB. */
double selfPeakRssMb();

/** Return freed heap to the system and restart the peak-RSS count,
 *  so the next selfPeakRssMb() covers only what runs after this. */
void resetPeakRss();

/** Peak resident set of another process so far (VmHWM), MB. */
double peakRssMbOf(int pid);

/** Path under the run directory, unique to this process. */
std::string runPath(const Options &opts, const std::string &leaf);

// ------------------------------------------------------------ workloads

Outcome runGrid(const Options &opts, SpanRecorder &spans);
Outcome runService(const Options &opts, SpanRecorder &spans);

} // namespace bench

#endif // RVP_PERFBENCH_BENCH_HH
