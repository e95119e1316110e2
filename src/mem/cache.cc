#include "mem/cache.hh"

#include "common/bits.hh"
#include "common/logging.hh"
#include "common/parse.hh"

namespace rvp
{

void
validateCacheConfig(const CacheConfig &config)
{
    if (config.assoc < 1)
        throwConfigError("cache '%s' needs at least one way",
                         config.name.c_str());
    if (config.lineBytes < 1 || !isPowerOf2(config.lineBytes))
        throwConfigError("cache '%s' line size %u is not a power of two "
                         "(the set index is addr >> log2(lineBytes))",
                         config.name.c_str(), config.lineBytes);
    std::uint64_t way_bytes =
        static_cast<std::uint64_t>(config.assoc) * config.lineBytes;
    if (config.sizeBytes < way_bytes || config.sizeBytes % way_bytes != 0)
        throwConfigError("cache '%s' size %llu is not a whole number of "
                         "assoc*lineBytes (%llu) rows; the model would "
                         "silently shrink it to %u sets",
                         config.name.c_str(),
                         static_cast<unsigned long long>(config.sizeBytes),
                         static_cast<unsigned long long>(way_bytes),
                         config.numSets());
    if (!isPowerOf2(config.numSets()))
        throwConfigError("cache '%s' has %u sets, not a power of two (the "
                         "set mask would alias distinct sets)",
                         config.name.c_str(), config.numSets());
}

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    // Input was checked by validateExperimentConfig: this is a bug.
    try {
        validateCacheConfig(config_);
    } catch (const ConfigError &e) {
        panic("%s", e.what());
    }
    setShift_ = floorLog2(config_.lineBytes);
    setMask_ = config_.numSets() - 1;
    lines_.resize(static_cast<std::size_t>(config_.numSets()) *
                  config_.assoc);
}

std::uint64_t
Cache::tagOf(std::uint64_t addr) const
{
    return addr >> setShift_;
}

unsigned
Cache::setOf(std::uint64_t addr) const
{
    return static_cast<unsigned>((addr >> setShift_) & setMask_);
}

CacheAccessResult
Cache::access(std::uint64_t addr, bool is_write)
{
    CacheAccessResult result;
    unsigned set = setOf(addr);
    std::uint64_t tag = tagOf(addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * config_.assoc];

    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            line.lruStamp = ++stamp_;
            line.dirty |= is_write;
            ++hits_;
            result.hit = true;
            return result;
        }
    }

    // Miss: fill into the first invalid way, else the LRU way.
    ++misses_;
    Line *victim = nullptr;
    for (unsigned way = 0; way < config_.assoc; ++way) {
        Line &line = base[way];
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (!victim || line.lruStamp < victim->lruStamp)
            victim = &line;
    }
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        result.writeback = victim->tag << setShift_;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lruStamp = ++stamp_;
    return result;
}

bool
Cache::contains(std::uint64_t addr) const
{
    unsigned set = setOf(addr);
    std::uint64_t tag = tagOf(addr);
    const Line *base = &lines_[static_cast<std::size_t>(set) *
                               config_.assoc];
    for (unsigned way = 0; way < config_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::reset()
{
    for (Line &line : lines_)
        line = Line{};
    stamp_ = 0;
    hits_ = 0;
    misses_ = 0;
    writebacks_ = 0;
}

void
Cache::exportStats(StatSet &stats) const
{
    stats.set(config_.name + ".hits", static_cast<double>(hits_));
    stats.set(config_.name + ".misses", static_cast<double>(misses_));
    stats.set(config_.name + ".writebacks",
              static_cast<double>(writebacks_));
}

} // namespace rvp
