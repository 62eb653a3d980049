/** Tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include "mem/cache.hh"

using namespace fdip;

namespace
{

Cache::Config
tinyCfg()
{
    Cache::Config c;
    c.name = "t";
    c.sizeBytes = 256; // 8 blocks
    c.assoc = 2;       // 4 sets
    c.blockBytes = 32;
    return c;
}

} // namespace

TEST(Cache, GeometryDerived)
{
    Cache c(tinyCfg());
    EXPECT_EQ(c.numBlocks(), 8u);
    EXPECT_EQ(c.numSets(), 4u);
    EXPECT_EQ(c.blockAlign(0x1234), 0x1220u);
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCfg());
    EXPECT_FALSE(c.access(0x1000));
    c.insert(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_EQ(c.stats.counter("cache.misses"), 1u);
    EXPECT_EQ(c.stats.counter("cache.hits"), 1u);
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache c(tinyCfg());
    c.insert(0x1000);
    std::uint64_t accesses = c.stats.counter("cache.accesses");
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.stats.counter("cache.accesses"), accesses);
}

TEST(Cache, LruEvictionOrder)
{
    Cache c(tinyCfg()); // 4 sets x 2 ways; same set stride = 128
    Addr a = 0x1000, b = a + 128, d = b + 128;
    c.insert(a);
    c.insert(b);
    EXPECT_TRUE(c.access(a)); // a is MRU
    auto evicted = c.insert(d);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, b);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, InsertExistingRefreshesOnly)
{
    Cache c(tinyCfg());
    c.insert(0x1000);
    auto evicted = c.insert(0x1000);
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(c.validBlocks(), 1u);
}

TEST(Cache, EvictedAddressReconstruction)
{
    Cache::Config cfg = tinyCfg();
    cfg.assoc = 1; // direct mapped, 8 sets
    Cache c(cfg);
    Addr victim_addr = 0x1000;
    c.insert(victim_addr);
    Addr conflicting = victim_addr + 8 * 32; // same set
    auto evicted = c.insert(conflicting);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, victim_addr);
}

TEST(Cache, SubBlockAddressesShareBlock)
{
    Cache c(tinyCfg());
    c.insert(0x1000);
    EXPECT_TRUE(c.probe(0x101c)); // same 32B block
    EXPECT_FALSE(c.probe(0x1020));
}

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometrySweep, CapacityIsRespected)
{
    auto [size, assoc] = GetParam();
    Cache::Config cfg;
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    cfg.blockBytes = 32;
    Cache c(cfg);
    unsigned blocks = c.numBlocks();
    // Fill with exactly `blocks` distinct lines: all fit.
    for (unsigned i = 0; i < blocks; ++i)
        c.insert(0x10000 + Addr(i) * 32);
    EXPECT_EQ(c.validBlocks(), blocks);
    // One more line must evict something.
    c.insert(0x10000 + Addr(blocks) * 32);
    EXPECT_EQ(c.validBlocks(), blocks);
    EXPECT_GE(c.stats.counter("cache.evictions"), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(std::pair<std::uint64_t, unsigned>{1024, 1},
                      std::pair<std::uint64_t, unsigned>{4096, 2},
                      std::pair<std::uint64_t, unsigned>{16384, 2},
                      std::pair<std::uint64_t, unsigned>{16384, 4},
                      std::pair<std::uint64_t, unsigned>{65536, 8}));

TEST(CacheDeath, BadGeometry)
{
    Cache::Config cfg;
    cfg.sizeBytes = 100; // not a multiple of block size
    cfg.assoc = 2;
    cfg.blockBytes = 32;
    EXPECT_DEATH({ Cache c(cfg); }, "geometry");
}
