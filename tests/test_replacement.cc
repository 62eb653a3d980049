/** Tests for cache replacement policies. */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "mem/cache.hh"

using namespace fdip;

namespace
{

Cache::Config
cfgWith(ReplPolicy policy)
{
    Cache::Config c;
    c.sizeBytes = 128; // 4 blocks
    c.assoc = 4;       // single set
    c.blockBytes = 32;
    c.repl = policy;
    return c;
}

} // namespace

TEST(Replacement, Names)
{
    EXPECT_STREQ(replPolicyName(ReplPolicy::Lru), "lru");
    EXPECT_STREQ(replPolicyName(ReplPolicy::Fifo), "fifo");
    EXPECT_STREQ(replPolicyName(ReplPolicy::Random), "random");
}

TEST(Replacement, LruRespectsAccessRecency)
{
    Cache c(cfgWith(ReplPolicy::Lru));
    for (Addr a = 0; a < 4; ++a)
        c.insert(a * 32);
    EXPECT_TRUE(c.access(0));   // refresh the oldest
    auto evicted = c.insert(4 * 32);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u * 32); // block 1 is now the LRU
}

TEST(Replacement, FifoIgnoresAccessRecency)
{
    Cache c(cfgWith(ReplPolicy::Fifo));
    for (Addr a = 0; a < 4; ++a)
        c.insert(a * 32);
    EXPECT_TRUE(c.access(0));   // access must NOT save block 0
    auto evicted = c.insert(4 * 32);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 0u); // oldest fill leaves regardless
}

TEST(Replacement, FifoDuplicateFillRefreshesTheStamp)
{
    // A fill of a resident block restamps it under every policy, FIFO
    // included: block 0 re-filled is no longer the oldest fill.
    Cache c(cfgWith(ReplPolicy::Fifo));
    for (Addr a = 0; a < 4; ++a)
        c.insert(a * 32);
    EXPECT_FALSE(c.insert(0).has_value());
    auto evicted = c.insert(4 * 32);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(*evicted, 1u * 32);
}

TEST(Replacement, RandomDrawOrderIsPinned)
{
    // The xorshift draw is taken only once the set is full, so blocks
    // 0-3 fill without drawing and the victims of blocks 4-11 follow
    // one fixed sequence.
    Cache c(cfgWith(ReplPolicy::Random));
    std::string victims;
    for (Addr a = 0; a < 12; ++a) {
        auto ev = c.insert(a * 32);
        if (!victims.empty())
            victims += ' ';
        victims += ev ? std::to_string(*ev / 32) : "-";
    }
    EXPECT_EQ(victims, "- - - - 2 4 3 1 6 8 0 10");
}

TEST(Replacement, RandomEvictsSomeValidBlock)
{
    Cache c(cfgWith(ReplPolicy::Random));
    for (Addr a = 0; a < 4; ++a)
        c.insert(a * 32);
    auto evicted = c.insert(4 * 32);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_LT(*evicted / 32, 4u);
    EXPECT_EQ(c.validBlocks(), 4u);
}

TEST(Replacement, RandomSpreadsVictims)
{
    Cache c(cfgWith(ReplPolicy::Random));
    std::set<Addr> victims;
    // Keep one hot set overflowing; random should hit several ways.
    for (Addr a = 0; a < 200; ++a) {
        auto ev = c.insert(a * 32);
        if (ev)
            victims.insert(*ev % (4 * 32) / 32);
    }
    EXPECT_GE(victims.size(), 3u);
}

TEST(Replacement, AllPoliciesFillInvalidWaysFirst)
{
    for (auto policy : {ReplPolicy::Lru, ReplPolicy::Fifo,
                        ReplPolicy::Random}) {
        Cache c(cfgWith(policy));
        c.insert(0);
        c.insert(32);
        auto evicted = c.insert(64);
        EXPECT_FALSE(evicted.has_value())
            << replPolicyName(policy)
            << " must not evict while invalid ways remain";
        EXPECT_EQ(c.validBlocks(), 3u);
    }
}

TEST(Replacement, PoliciesDivergeOnLoopingPattern)
{
    // A cyclic access pattern one block larger than the set: LRU
    // always misses (pathological), Random retains some blocks.
    auto run = [](ReplPolicy policy) {
        Cache c(cfgWith(policy));
        for (int round = 0; round < 200; ++round) {
            for (Addr a = 0; a <= 4; ++a) {
                if (!c.access(a * 32))
                    c.insert(a * 32);
            }
        }
        return c.stats.ratio("cache.hits", "cache.accesses");
    };
    double lru = run(ReplPolicy::Lru);
    double rnd = run(ReplPolicy::Random);
    EXPECT_LT(lru, 0.02);  // LRU thrashes the cycle
    EXPECT_GT(rnd, 0.30);  // random keeps a useful fraction
}
