/** Unit tests for the FIFO ring of recently seen addresses. */

#include <gtest/gtest.h>

#include "common/recent_filter.hh"

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
