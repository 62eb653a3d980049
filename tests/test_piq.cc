/** Tests for the prefetch instruction queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "prefetch/piq.hh"
#include "test_helpers.hh"

using namespace fdip;

TEST(Piq, PushFrontPop)
{
    Piq piq("test", 4);
    piq.push(0x1000);
    piq.push(0x2000);
    EXPECT_EQ(piq.front().blockAddr, 0x1000u);
    piq.popFront();
    EXPECT_EQ(piq.front().blockAddr, 0x2000u);
}

TEST(Piq, EntriesStartUnprobed)
{
    Piq piq("test", 4);
    piq.push(0x1000);
    EXPECT_EQ(piq.probedPrefix(), 0u);
    piq.extendProbedPrefix();
    EXPECT_EQ(piq.probedPrefix(), 1u);
    piq.push(0x2000); // appended unprobed, behind the prefix
    EXPECT_EQ(piq.probedPrefix(), 1u);
}

TEST(Piq, ProbedPrefixTracksEveryRemoval)
{
    Piq piq("test", 8);
    for (Addr a = 0x1000; a <= 0x6000; a += 0x1000)
        piq.push(a);
    piq.extendProbedPrefix();
    piq.extendProbedPrefix();
    piq.extendProbedPrefix(); // probed: 0x1000 0x2000 0x3000
    EXPECT_EQ(piq.probedPrefix(), 3u);

    // A probe hit removes the entry at the boundary: prefix unchanged.
    piq.removeAt(3); // 0x4000
    EXPECT_EQ(piq.probedPrefix(), 3u);
    EXPECT_EQ(piq.at(3).blockAddr, 0x5000u);
    // Past the boundary: unchanged too.
    piq.removeAt(4); // 0x6000
    EXPECT_EQ(piq.probedPrefix(), 3u);
    // Inside the prefix: it shrinks by one.
    piq.removeAt(1); // 0x2000
    EXPECT_EQ(piq.probedPrefix(), 2u);
    EXPECT_EQ(piq.at(2).blockAddr, 0x5000u);

    // Issue pops probed heads, then an unprobed one.
    piq.popFront(); // 0x1000, probed
    EXPECT_EQ(piq.probedPrefix(), 1u);
    piq.popFront(); // 0x3000, probed
    EXPECT_EQ(piq.probedPrefix(), 0u);
    piq.popFront(); // 0x5000, unprobed
    EXPECT_EQ(piq.probedPrefix(), 0u);
    EXPECT_TRUE(piq.empty());

    piq.push(0x7000);
    piq.push(0x8000);
    piq.extendProbedPrefix();
    piq.extendProbedPrefix();
    piq.flush();
    EXPECT_EQ(piq.probedPrefix(), 0u);
    piq.push(0x9000);
    EXPECT_EQ(piq.probedPrefix(), 0u);
}

TEST(Piq, Contains)
{
    Piq piq("test", 4);
    piq.push(0x1000);
    piq.push(0x2000);
    EXPECT_TRUE(piq.contains(0x1000));
    EXPECT_TRUE(piq.contains(0x2000));
    EXPECT_FALSE(piq.contains(0x3000));
}

TEST(Piq, RemoveAtCompactsInOrder)
{
    Piq piq("test", 8);
    piq.push(0x1000);
    piq.push(0x2000);
    piq.push(0x3000);
    piq.removeAt(1);
    EXPECT_EQ(piq.size(), 2u);
    EXPECT_EQ(piq.at(0).blockAddr, 0x1000u);
    EXPECT_EQ(piq.at(1).blockAddr, 0x3000u);
}

TEST(Piq, RemoveHead)
{
    Piq piq("test", 8);
    piq.push(0x1000);
    piq.push(0x2000);
    piq.removeAt(0);
    EXPECT_EQ(piq.front().blockAddr, 0x2000u);
}

TEST(Piq, FlushEmpties)
{
    Piq piq("test", 8);
    piq.push(0x1000);
    piq.push(0x2000);
    piq.flush();
    EXPECT_TRUE(piq.empty());
}

TEST(Piq, ContainsMatchesAPlainQueueUnderRandomTraffic)
{
    // Pushes (repeats included), pops, removals at random positions
    // and rare flushes; every contains() must equal a scan of a plain
    // queue given the same operations.
    for (std::uint64_t seed : {1, 2}) {
        Piq piq("test", 16);
        std::deque<Addr> ref;
        Rng rng(seed);
        for (int op = 0; op < 100000; ++op) {
            Addr key = testutil::drawKey(rng);
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
                if (!piq.full()) {
                    piq.push(key);
                    ref.push_back(key);
                }
                break;
              case 3:
                if (!piq.empty()) {
                    piq.popFront();
                    ref.pop_front();
                }
                break;
              case 4:
                if (!piq.empty()) {
                    std::size_t i = rng.below(piq.size());
                    piq.removeAt(i);
                    ref.erase(ref.begin() + i);
                }
                break;
              case 5:
                if (rng.below(64) == 0) {
                    piq.flush();
                    ref.clear();
                }
                break;
              default:
                ASSERT_EQ(piq.contains(key),
                          std::find(ref.begin(), ref.end(), key) !=
                              ref.end())
                    << "seed " << seed << " op " << op;
            }
            ASSERT_EQ(piq.size(), ref.size());
        }
    }
}

TEST(PiqDeath, OverflowAndRange)
{
    Piq piq("test", 1);
    piq.push(0x1000);
    EXPECT_DEATH(piq.push(0x2000), "full");
    EXPECT_DEATH(piq.removeAt(1), "out of range");
    piq.extendProbedPrefix();
    EXPECT_DEATH(piq.extendProbedPrefix(), "past end");
}
