/** Tests for the basic-block-oriented fetch target buffer. */

#include <gtest/gtest.h>

#include "bpu/ftb.hh"

using namespace fdip;

namespace
{

Ftb::Config
smallCfg()
{
    Ftb::Config c;
    c.sets = 16;
    c.ways = 2;
    return c;
}

} // namespace

TEST(Ftb, MissOnEmpty)
{
    Ftb ftb(smallCfg());
    EXPECT_FALSE(ftb.lookup(0x1000).has_value());
}

TEST(Ftb, InsertThenHit)
{
    Ftb ftb(smallCfg());
    ftb.insert(0x1000, 5, InstClass::CondBr, 0x2000);
    auto hit = ftb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->numInsts, 5u);
    EXPECT_EQ(hit->termCls, InstClass::CondBr);
    EXPECT_EQ(hit->target, 0x2000u);
}

TEST(Ftb, UpdateShrinksBlock)
{
    // A newly-taken branch in the middle of a known block shortens it.
    Ftb ftb(smallCfg());
    ftb.insert(0x1000, 8, InstClass::Jump, 0x2000);
    ftb.insert(0x1000, 3, InstClass::CondBr, 0x3000);
    auto hit = ftb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->numInsts, 3u);
    EXPECT_EQ(hit->target, 0x3000u);
    EXPECT_EQ(ftb.validEntries(), 1u);
}

TEST(Ftb, TooLongBlocksAreNotStored)
{
    Ftb ftb(smallCfg());
    ftb.insert(0x1000, Ftb::kMaxBlockInsts + 1, InstClass::Jump, 0x2000);
    EXPECT_FALSE(ftb.lookup(0x1000).has_value());
    EXPECT_EQ(ftb.stats.counter("ftb.insert_truncated"), 1u);
}

TEST(Ftb, LruEviction)
{
    Ftb ftb(smallCfg());
    Addr stride = 16 * instBytes;
    ftb.insert(0x1000, 4, InstClass::Jump, 0x100);
    ftb.insert(0x1000 + stride, 4, InstClass::Jump, 0x100);
    EXPECT_TRUE(ftb.lookup(0x1000).has_value()); // touch
    ftb.insert(0x1000 + 2 * stride, 4, InstClass::Jump, 0x100);
    EXPECT_TRUE(ftb.lookup(0x1000).has_value());
    EXPECT_FALSE(ftb.lookup(0x1000 + stride).has_value());
}

TEST(Ftb, EntryBitsMatchPaperTable)
{
    // The basic-block BTB storage table: with a 48-bit VA and 8-way
    // organization, entry size is 92 bits at 128 sets (1K entries)
    // and drops one bit per doubling of sets.
    for (auto [sets, bits] : std::vector<std::pair<unsigned, unsigned>>{
             {128, 92}, {256, 91}, {512, 90}, {1024, 89},
             {2048, 88}, {4096, 87}}) {
        Ftb::Config c;
        c.sets = sets;
        c.ways = 8;
        Ftb ftb(c);
        EXPECT_EQ(ftb.entryBits(), bits) << sets << " sets";
    }
}

TEST(Ftb, StorageTotalsMatchPaperTable)
{
    // 1K entries @ 92 bits = 11.5KB, 8K @ 89 = 89KB, 32K @ 87 = 348KB.
    for (auto [sets, kb] : std::vector<std::pair<unsigned, double>>{
             {128, 11.5}, {1024, 89.0}, {4096, 348.0}}) {
        Ftb::Config c;
        c.sets = sets;
        c.ways = 8;
        Ftb ftb(c);
        double total_kb =
            static_cast<double>(ftb.storageBits()) / 8.0 / 1024.0;
        EXPECT_NEAR(total_kb, kb, kb * 0.01) << sets << " sets";
    }
}

TEST(FtbDeath, ZeroSizeBlock)
{
    Ftb ftb(smallCfg());
    EXPECT_DEATH(ftb.insert(0x1000, 0, InstClass::Jump, 0x100),
                 "no instructions");
}
