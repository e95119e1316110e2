/**
 * @file
 * Minimal named-statistics registry. Modules register scalar counters
 * and formulas; the simulation driver dumps them in a stable order.
 * This is deliberately much smaller than gem5's stats package — just
 * enough to make every experiment's raw numbers inspectable.
 *
 * Two write paths share one namespace:
 *
 *  - add(name, delta) / set(name, value): by-name access, a map lookup
 *    per call. Fine for cold paths (end-of-run exports, per-experiment
 *    bookkeeping).
 *  - counter(name) -> Counter&: an *interned handle*. Registration
 *    resolves the name once; every subsequent Counter::add() is a
 *    single inlined double accumulation with no lookup and no
 *    allocation. This is what per-pipeline-event stats use (the core
 *    fires ~10 of these per simulated cycle).
 *
 * Handle-backed counters are folded into the named map lazily, on the
 * first read (get/dump/values/merge), so readers always see one
 * coherent map. A counter appears in the map only once add() has been
 * called on it — exactly matching the by-name behaviour, where the
 * first add(name, 0) materializes the stat at zero.
 *
 * Distributions (fixed log2-bucket histograms) follow the same model:
 * distribution(name) interns a handle whose sample() is lookup-free,
 * and the first read materializes derived scalars (<name>.count, .sum,
 * .mean, .min, .max, .p50, .p90, .p99) into the named map. A never-
 * sampled distribution contributes nothing, so stat maps stay
 * bit-identical when histogram collection is off. merge() combines
 * the underlying buckets, not the derived scalars, so merged
 * percentiles are computed over the union of samples.
 */

#ifndef RVP_COMMON_STATS_HH
#define RVP_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <ostream>
#include <string>

namespace rvp
{

/** A flat, ordered collection of named scalar statistics. */
class StatSet
{
  public:
    /**
     * Interned counter handle. Obtained once from counter(); add() is
     * then lookup-free. The reference stays valid for the lifetime of
     * the owning StatSet, and follows it when the set is moved (the
     * deque's elements do not relocate), but is not carried across
     * copies — a copied StatSet re-interns, and its counters start
     * from the copied values.
     */
    class Counter
    {
      public:
        /** Add delta (materializes the stat even when delta is 0). */
        void
        add(double delta = 1.0)
        {
            value_ += delta;
            touched_ = true;
        }

      private:
        friend class StatSet;
        explicit Counter(std::string name) : name_(std::move(name)) {}

        std::string name_;
        double value_ = 0.0;
        /** add() was called at least once since the last fold. */
        bool touched_ = false;
    };

    /**
     * Fixed-size log2-bucket histogram. Bucket 0 holds samples < 1
     * (occupancy zero, zero-cycle latencies); bucket b >= 1 holds
     * [2^(b-1), 2^b). 64 buckets cover every uint64-sized sample, so
     * recording never allocates and merging is bucket-wise addition.
     * Percentiles are bucket-resolution estimates: the upper edge of
     * the bucket containing the requested rank, clamped to the exact
     * observed min/max.
     */
    class Distribution
    {
      public:
        static constexpr std::size_t numBuckets = 64;

        /** Record one sample (negative values clamp to 0). */
        void
        sample(double value)
        {
            if (value < 0.0)
                value = 0.0;
            ++buckets_[bucketOf(value)];
            ++count_;
            sum_ += value;
            if (count_ == 1 || value < min_)
                min_ = value;
            if (count_ == 1 || value > max_)
                max_ = value;
        }

        std::uint64_t count() const { return count_; }
        double sum() const { return sum_; }
        double mean() const { return count_ ? sum_ / count_ : 0.0; }
        double min() const { return min_; }
        double max() const { return max_; }

        /** Bucket-resolution percentile estimate, p in [0, 1]. */
        double percentile(double p) const;

        /** Log2 bucket index of a (non-negative) sample. */
        static std::size_t bucketOf(double value);

        /** Add another distribution's samples into this one. */
        void merge(const Distribution &other);

      private:
        friend class StatSet;
        explicit Distribution(std::string name) : name_(std::move(name)) {}

        std::string name_;
        std::array<std::uint64_t, numBuckets> buckets_{};
        std::uint64_t count_ = 0;
        double sum_ = 0.0;
        double min_ = 0.0;
        double max_ = 0.0;
    };

    StatSet() = default;
    StatSet(const StatSet &) = default;
    StatSet &operator=(const StatSet &) = default;
    /** Results travel by move (run driver outcome -> sweep result);
     *  without these a move would copy every map and deque. */
    StatSet(StatSet &&) = default;
    StatSet &operator=(StatSet &&) = default;

    /**
     * Intern a dense counter for `name` (register-once: the same name
     * returns the same handle). The counter's accumulated value is
     * resolved into the named map at the first read after it was
     * touched.
     */
    Counter &counter(const std::string &name);

    /**
     * Intern a histogram for `name` (register-once, like counter()).
     * Its derived scalars are materialized under "<name>.<suffix>" at
     * the first read after it holds at least one sample.
     */
    Distribution &distribution(const std::string &name);

    /** Add delta to the named counter (creating it at zero). */
    void add(const std::string &name, double delta = 1.0);

    /** Overwrite the named value. */
    void set(const std::string &name, double value);

    /** Read a value; returns 0 for unknown names. */
    double get(const std::string &name) const;

    /** True if the stat has ever been touched. */
    bool has(const std::string &name) const;

    /** Ratio helper: numer/denom, 0 when the denominator is zero. */
    double ratio(const std::string &numer, const std::string &denom) const;

    /** Merge another set into this one (summing counters). */
    void merge(const StatSet &other);

    /** Dump "name value" lines in lexicographic order. */
    void dump(std::ostream &os) const;

    const std::map<std::string, double> &
    values() const
    {
        fold();
        return values_;
    }

  private:
    /** Resolve touched interned counters into the named map. */
    void fold() const;

    mutable std::map<std::string, double> values_;
    /** Interned counters; deque for stable Counter& across interning. */
    mutable std::deque<Counter> counters_;
    /** Registration index (name -> position in counters_). */
    std::map<std::string, std::size_t> counterIndex_;
    /** Interned histograms; deque for stable Distribution&. */
    std::deque<Distribution> distributions_;
    /** Registration index (name -> position in distributions_). */
    std::map<std::string, std::size_t> distIndex_;
};

} // namespace rvp

#endif // RVP_COMMON_STATS_HH
