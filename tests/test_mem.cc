/**
 * @file
 * Unit tests for the cache model and the two-level hierarchy (Table 1
 * geometry and latencies).
 */

#include <gtest/gtest.h>

#include "config_error.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"

namespace rvp
{
namespace
{

CacheConfig
tinyCache(unsigned size, unsigned assoc)
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    cfg.lineBytes = 64;
    return cfg;
}

TEST(Cache, HitAfterFill)
{
    Cache cache(tinyCache(1024, 2));
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1038, false).hit);   // same 64B line
    EXPECT_FALSE(cache.access(0x1040, false).hit);  // next line
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    // 1KB, 2-way, 64B lines -> 8 sets; addresses 512B apart collide.
    Cache cache(tinyCache(1024, 2));
    std::uint64_t a = 0x0000, b = 0x0200, c = 0x0400;
    cache.access(a, false);
    cache.access(b, false);
    EXPECT_TRUE(cache.access(a, false).hit);
    cache.access(c, false);              // evicts b (LRU)
    EXPECT_TRUE(cache.access(a, false).hit);
    EXPECT_FALSE(cache.access(b, false).hit);
}

TEST(Cache, DirtyWritebackReported)
{
    Cache cache(tinyCache(1024, 1));     // direct-mapped, 16 sets
    cache.access(0x0000, true);          // dirty
    auto result = cache.access(0x0400, false);   // same set
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0x0000u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    Cache cache(tinyCache(1024, 1));
    cache.access(0x0000, false);
    auto result = cache.access(0x0400, false);
    EXPECT_FALSE(result.writeback.has_value());
}

TEST(Cache, ContainsDoesNotPerturb)
{
    Cache cache(tinyCache(1024, 2));
    cache.access(0x1000, false);
    EXPECT_TRUE(cache.contains(0x1000));
    EXPECT_FALSE(cache.contains(0x2000));
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(Cache, ResetClearsEverything)
{
    Cache cache(tinyCache(1024, 2));
    cache.access(0x1000, true);
    cache.reset();
    EXPECT_FALSE(cache.contains(0x1000));
    EXPECT_EQ(cache.misses(), 0u);
}

TEST(Cache, StatsExported)
{
    Cache cache(tinyCache(1024, 2));
    cache.access(0x1000, false);
    cache.access(0x1000, false);
    StatSet stats;
    cache.exportStats(stats);
    EXPECT_DOUBLE_EQ(stats.get("tiny.hits"), 1.0);
    EXPECT_DOUBLE_EQ(stats.get("tiny.misses"), 1.0);
}

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(CacheGeometry, FillsWholeCapacityWithoutConflict)
{
    auto [size, assoc] = GetParam();
    Cache cache(tinyCache(size, assoc));
    unsigned lines = size / 64;
    // Sequential fill touches each line once...
    for (unsigned i = 0; i < lines; ++i)
        EXPECT_FALSE(cache.access(i * 64ull, false).hit);
    // ...and then every line hits: LRU keeps a fully-resident working
    // set resident.
    for (unsigned i = 0; i < lines; ++i)
        EXPECT_TRUE(cache.access(i * 64ull, false).hit);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_pair(1024u, 1u), std::make_pair(1024u, 2u),
                      std::make_pair(4096u, 4u), std::make_pair(32768u, 4u),
                      std::make_pair(524288u, 2u)));

TEST(CacheGeometryValidation, AcceptsWellFormedConfigs)
{
    // Table-1 shapes and a couple of odd-but-valid ones.
    validateCacheConfig({"l1", 32 * 1024, 4, 64});
    validateCacheConfig({"l2", 512 * 1024, 2, 64});
    validateCacheConfig({"tiny", 128, 1, 32});      // 4 sets
    validateCacheConfig({"full", 3 * 64, 3, 64});   // 1 set, assoc 3
}

TEST(CacheGeometryValidation, RejectsNonPowerOfTwoLine)
{
    // The set index is addr >> log2(lineBytes): a 48-byte line cannot
    // be indexed with a shift and used to silently misplace lines.
    EXPECT_DEATH(Cache({"bad", 32 * 1024, 4, 48}),
                 "not a power of two");
    EXPECT_CONFIG_ERROR(validateCacheConfig({"bad", 32 * 1024, 4, 48}),
                        "not a power of two");
}

TEST(CacheGeometryValidation, RejectsSizeNotMultipleOfWayBytes)
{
    // 65636 / (4*64) = 256.39...: numSets() would round down to 256
    // sets and the "64KB-ish" cache would silently behave as 64KB.
    EXPECT_CONFIG_ERROR(validateCacheConfig({"bad", 65636, 4, 64}),
                        "silently");
}

TEST(CacheGeometryValidation, RejectsNonPowerOfTwoSets)
{
    // 96KB / (4 * 64) = 384 sets: divisible, but the set *mask*
    // (numSets - 1) would alias distinct sets.
    EXPECT_CONFIG_ERROR(validateCacheConfig({"bad", 96 * 1024, 4, 64}),
                        "power of two");
}

TEST(CacheGeometryValidation, RejectsZeroSets)
{
    // Smaller than one way: numSets() == 0, and the constructor would
    // otherwise allocate no lines and index out of bounds.
    EXPECT_CONFIG_ERROR(validateCacheConfig({"bad", 64, 4, 64}), "");
}

TEST(CacheGeometryValidation, RejectsZeroAssoc)
{
    EXPECT_CONFIG_ERROR(validateCacheConfig({"bad", 32 * 1024, 0, 64}),
                        "at least one way");
}

TEST(Hierarchy, Table1Latencies)
{
    MemoryHierarchy mem;
    // Cold: miss everywhere = 1 + 20 + 80.
    EXPECT_EQ(mem.loadLatency(0x10000), 101u);
    // Warm L1.
    EXPECT_EQ(mem.loadLatency(0x10000), 1u);
    // Evicting from L1 but present in L2: thrash L1 with conflicting
    // addresses (L1 32KB 4-way: 128 sets; stride 8KB collides).
    for (unsigned i = 1; i <= 4; ++i)
        mem.loadLatency(0x10000 + i * 8192);
    EXPECT_EQ(mem.loadLatency(0x10000), 21u);   // L1 miss, L2 hit
}

TEST(Hierarchy, InstAndDataSplit)
{
    MemoryHierarchy mem;
    EXPECT_EQ(mem.fetchLatency(0x2000), 101u);
    // The D-cache did not see that address.
    EXPECT_EQ(mem.loadLatency(0x2000), 21u);   // L2 already has it
}

TEST(Hierarchy, StoresAllocate)
{
    MemoryHierarchy mem;
    mem.storeAccess(0x3000);
    EXPECT_EQ(mem.loadLatency(0x3000), 1u);
}

TEST(Hierarchy, ResetRestoresColdState)
{
    MemoryHierarchy mem;
    mem.loadLatency(0x10000);
    mem.reset();
    EXPECT_EQ(mem.loadLatency(0x10000), 101u);
}

} // namespace
} // namespace rvp
