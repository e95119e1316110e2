/**
 * @file
 * Set-associative cache model with true-LRU replacement and write-back,
 * write-allocate semantics. Timing-only: the cache tracks tags and
 * dirtiness, never data (data correctness comes from the functional
 * emulator).
 */

#ifndef RVP_MEM_CACHE_HH
#define RVP_MEM_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace rvp
{

/** Geometry and identity of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;

    unsigned numSets() const
    {
        return static_cast<unsigned>(sizeBytes / (assoc * lineBytes));
    }
};

/**
 * Throw ConfigError on a cache geometry the model cannot index
 * correctly. The set index is computed with a shift and a mask, so
 * lineBytes and numSets() must be powers of two, and sizeBytes must
 * factor exactly as sets * assoc * lineBytes — a non-divisible size
 * would otherwise silently round down to a smaller cache, and a
 * non-power-of-two set count would alias distinct sets onto the same
 * lines. Called by validateExperimentConfig (so a bad hierarchy is
 * rejected before any simulation work); the Cache constructor panics
 * on its verdict.
 */
void validateCacheConfig(const CacheConfig &config);

/** Result of one cache access. */
struct CacheAccessResult
{
    bool hit = false;
    /** Address of a dirty line written back on this fill, if any. */
    std::optional<std::uint64_t> writeback;
};

/** One level of set-associative, true-LRU, write-back cache. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing addr. On a miss the line is filled
     * (write-allocate) and the LRU victim evicted.
     *
     * @param addr byte address accessed
     * @param is_write marks the line dirty
     * @return hit/miss and any dirty writeback
     */
    CacheAccessResult access(std::uint64_t addr, bool is_write);

    /** Probe without changing state (tests, prefetch filters). */
    bool contains(std::uint64_t addr) const;

    /** Invalidate everything (between experiment runs). */
    void reset();

    const CacheConfig &config() const { return config_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t writebacks() const { return writebacks_; }

    /** Export counters under "<name>." prefix. */
    void exportStats(StatSet &stats) const;

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        std::uint64_t tag = 0;
        std::uint64_t lruStamp = 0;
    };

    std::uint64_t tagOf(std::uint64_t addr) const;
    unsigned setOf(std::uint64_t addr) const;

    CacheConfig config_;
    unsigned setShift_;
    unsigned setMask_;
    std::vector<Line> lines_;   // sets * assoc, row-major by set
    std::uint64_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t writebacks_ = 0;
};

} // namespace rvp

#endif // RVP_MEM_CACHE_HH
