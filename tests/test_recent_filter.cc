/** Unit tests for the FIFO ring of recently seen addresses. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/recent_filter.hh"
#include "test_helpers.hh"

using namespace fdip;

namespace
{

/** Fill a ring of @p cap with 2 * cap distinct addresses and check
 *  each insert evicts the address inserted cap inserts earlier. */
void
checkFifoEviction(std::size_t cap)
{
    RecentFilter f(cap);
    for (Addr i = 0; i < 2 * cap; ++i) {
        Addr addr = 0x1000 + i * 0x20;
        Addr expect_evicted = i < cap ? invalidAddr : addr - cap * 0x20;
        EXPECT_EQ(f.insert(addr), expect_evicted) << "cap " << cap;
        // Exactly the last min(i + 1, cap) inserts are held.
        for (Addr j = 0; j <= i; ++j) {
            bool held = i - j < cap;
            EXPECT_EQ(f.contains(0x1000 + j * 0x20), held)
                << "cap " << cap << " after insert " << i << " probe "
                << j;
        }
    }
}

} // namespace

TEST(RecentFilter, FifoEvictionAtCapacityOne)
{
    checkFifoEviction(1);
}

TEST(RecentFilter, FifoEvictionAtCapacityThree)
{
    checkFifoEviction(3);
}

TEST(RecentFilter, FifoEvictionAtCapacitySixteen)
{
    checkFifoEviction(16);
}

TEST(RecentFilter, CapacityZeroHoldsNothing)
{
    RecentFilter f(0);
    EXPECT_EQ(f.insert(0x40), invalidAddr);
    EXPECT_EQ(f.insert(0x40), invalidAddr);
    EXPECT_FALSE(f.contains(0x40));
    EXPECT_FALSE(f.contains(invalidAddr));
}

TEST(RecentFilter, DuplicateInsertIsHeldTwice)
{
    // The stream buffer's miss history records every miss, repeats
    // included: one eviction of a doubly-held address leaves it held.
    RecentFilter f(3);
    f.insert(0xa0);
    f.insert(0xa0);
    f.insert(0xb0);
    EXPECT_EQ(f.insert(0xc0), 0xa0u);
    EXPECT_TRUE(f.contains(0xa0));
    EXPECT_EQ(f.insert(0xd0), 0xa0u);
    EXPECT_FALSE(f.contains(0xa0));
    EXPECT_TRUE(f.contains(0xb0));
    EXPECT_TRUE(f.contains(0xc0));
    EXPECT_TRUE(f.contains(0xd0));
}

TEST(RecentFilter, AnswersMatchAPlainRingUnderRandomTraffic)
{
    // The presence counts only cut a miss short: every answer equals a
    // scan of a plain FIFO of the same capacity, whose empty slots
    // hold invalidAddr until the ring fills.
    for (std::size_t cap : {0, 1, 16, 64}) {
        RecentFilter f(cap);
        std::deque<Addr> ref(cap, invalidAddr);
        auto held = [&ref](Addr a) {
            return std::find(ref.begin(), ref.end(), a) != ref.end();
        };
        Rng rng(0xf117e5 + cap);
        for (int op = 0; op < 100000; ++op) {
            Addr key = testutil::drawKey(rng);
            if (rng.chance(0.5)) {
                Addr evicted = invalidAddr;
                if (cap > 0) {
                    evicted = ref.front();
                    ref.pop_front();
                    ref.push_back(key);
                }
                ASSERT_EQ(f.insert(key), evicted)
                    << "cap " << cap << " op " << op;
            } else {
                ASSERT_EQ(f.contains(key), held(key))
                    << "cap " << cap << " op " << op;
            }
            ASSERT_EQ(f.contains(invalidAddr), held(invalidAddr))
                << "cap " << cap << " op " << op;
        }
    }
}

TEST(RecentFilterDeath, CapacityBeyondTheCountsIsFatal)
{
    RecentFilter largest(PresenceCounts::kMaxKeys);
    EXPECT_FALSE(largest.contains(0x40));
    EXPECT_DEATH({ RecentFilter f(PresenceCounts::kMaxKeys + 1); },
                 "at most 65535");
}
