/** Tests for one partition of the conventional BTB. */

#include <gtest/gtest.h>

#include "bpu/btb.hh"
#include "bpu/partitioned_btb.hh"

using namespace fdip;

namespace
{

Btb::Config
smallCfg()
{
    Btb::Config c;
    c.sets = 16;
    c.ways = 2;
    return c;
}

} // namespace

TEST(Btb, MissOnEmpty)
{
    Btb btb(smallCfg());
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(btb.validEntries(), 0u);
}

TEST(Btb, InsertThenHit)
{
    Btb btb(smallCfg());
    btb.insert(0x1000, InstClass::CondBr, 0x2000);
    auto hit = btb.lookup(0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->cls, InstClass::CondBr);
    EXPECT_EQ(hit->target, 0x2000u);
    EXPECT_EQ(btb.validEntries(), 1u);
}

TEST(Btb, UpdateInPlace)
{
    Btb btb(smallCfg());
    btb.insert(0x1000, InstClass::CondBr, 0x2000);
    btb.insert(0x1000, InstClass::CondBr, 0x3000);
    EXPECT_EQ(btb.validEntries(), 1u);
    EXPECT_EQ(btb.lookup(0x1000)->target, 0x3000u);
}

TEST(Btb, LruEviction)
{
    Btb btb(smallCfg()); // 2 ways
    // Three branches mapping to the same set (stride = sets*4 bytes).
    Addr stride = 16 * instBytes;
    Addr a = 0x1000, b = a + stride, c = b + stride;
    btb.insert(a, InstClass::Jump, 0x9000);
    btb.insert(b, InstClass::Jump, 0x9010);
    // Touch a so b becomes LRU.
    EXPECT_TRUE(btb.lookup(a).has_value());
    btb.insert(c, InstClass::Jump, 0x9020);
    EXPECT_TRUE(btb.lookup(a).has_value());
    EXPECT_FALSE(btb.lookup(b).has_value());
    EXPECT_TRUE(btb.lookup(c).has_value());
    // c replaced b: the set still holds exactly its two ways.
    EXPECT_EQ(btb.validEntries(), 2u);
}

TEST(Btb, Invalidate)
{
    Btb btb(smallCfg());
    btb.insert(0x1000, InstClass::Call, 0x4000);
    btb.invalidate(0x1000);
    EXPECT_FALSE(btb.lookup(0x1000).has_value());
    EXPECT_EQ(btb.validEntries(), 0u);
}

TEST(Btb, FullTagDistinguishesAliases)
{
    Btb btb(smallCfg()); // full tags
    Addr a = 0x1000;
    Addr alias = a + 16 * instBytes; // same set, different tag
    btb.insert(a, InstClass::Jump, 0x9000);
    auto hit = btb.lookup(alias);
    EXPECT_FALSE(hit.has_value());
}

TEST(Btb, CompressedTagWidth)
{
    Btb::Config c = smallCfg();
    c.tagBits = 16;
    Btb btb(c);
    btb.insert(0x1000, InstClass::Jump, 0x9000);
    EXPECT_TRUE(btb.lookup(0x1000).has_value());
    // Entry accounting: 16 (tag) + 2 (type) + 46 (full target).
    EXPECT_EQ(btb.entryBits(), 16u + 2 + 46);
}

TEST(Btb, CompressedTagCanAlias)
{
    // With an 8-bit tag, addresses whose folded tags collide must hit
    // the same entry; construct a deliberate alias: two PCs in the
    // same set whose full tags differ only in bits that fold away.
    Btb::Config c;
    c.sets = 16;
    c.ways = 1;
    c.tagBits = 8;
    Btb btb(c);
    // full tag = (pc/4) >> 4. Choose pc1 with tag 0x01, pc2 with tag
    // 0x01 ^ (0x01 << 8)... folded tag of 0x0101 (low8=0x01, rest=0x01
    // folds to 0x01... width-8 fold keeps only low 8 bits: tag(0x0101)
    // = 0x01 ^ 0x01 = 0x00? Here low_bits = 8, so compressed tag is
    // just the low 8 bits of the full tag. Tags 0x101 and 0x201 both
    // compress to 0x01 only if tagBits <= 8 (no high fold bits).
    Addr pc1 = (0x101ull << 4) * instBytes; // full tag 0x101
    Addr pc2 = (0x201ull << 4) * instBytes; // full tag 0x201
    btb.insert(pc1, InstClass::Jump, 0x9000);
    auto hit = btb.lookup(pc2);
    ASSERT_TRUE(hit.has_value()); // destructive aliasing
    EXPECT_EQ(hit->target, 0x9000u);
}

TEST(Btb, OffsetFieldRejectsFarBranches)
{
    Btb::Config c = smallCfg();
    c.offsetBits = 8;
    Btb btb(c);
    Addr pc = 0x100000;
    // 255-instruction offset fits in 8 bits.
    EXPECT_TRUE(btb.canHold(pc, InstClass::Jump, pc + 255 * instBytes));
    // 256 does not.
    EXPECT_FALSE(btb.canHold(pc, InstClass::Jump, pc + 256 * instBytes));
    // Backward offsets use the separate direction bit.
    EXPECT_TRUE(btb.canHold(pc, InstClass::Jump, pc - 255 * instBytes));

    // An ensemble whose only partition is this one rejects the branch:
    // it leaves no entry and counts the rejection.
    PartitionedBtb only8({{{8, 16, 2}}, 0});
    only8.insert(pc, InstClass::Jump, pc + 256 * instBytes);
    EXPECT_FALSE(only8.lookup(pc).has_value());
    EXPECT_EQ(only8.partition(0).validEntries(), 0u);
    EXPECT_EQ(only8.stats.counter("pbtb.insert_rejected"), 1u);
    EXPECT_EQ(only8.stats.counter("pbtb.insert_p0"), 0u);
}

TEST(Btb, IndirectNeedsFullWidth)
{
    Btb::Config c = smallCfg();
    c.offsetBits = 23;
    Btb btb(c);
    EXPECT_FALSE(btb.canHold(0x1000, InstClass::IndCall, 0x1004));
    // Returns carry no target (the RAS supplies it): any partition.
    EXPECT_TRUE(btb.canHold(0x1000, InstClass::Return, 0x1004));

    Btb::Config full = smallCfg();
    Btb fbtb(full);
    EXPECT_TRUE(fbtb.canHold(0x1000, InstClass::IndCall, 0x1004));
}

TEST(Btb, EntryBitsMatchRevisitTable)
{
    // The follow-up work's Table II entry sizes with 16-bit tags:
    // 8-bit offset -> 26, 13 -> 31, 23 -> 41, full(46) -> 64 bits.
    for (auto [off, bits] : std::vector<std::pair<unsigned, unsigned>>{
             {8, 26}, {13, 31}, {23, 41}, {0, 64}}) {
        Btb::Config c;
        c.sets = 128;
        c.ways = 6;
        c.tagBits = 16;
        c.offsetBits = off;
        Btb btb(c);
        EXPECT_EQ(btb.entryBits(), bits) << "offset " << off;
    }
}

TEST(Btb, FullTagWidthMatchesGeometry)
{
    // 48-bit VA, 128 sets, word-aligned: tag = 48 - 2 - 7 = 39 bits.
    Btb::Config c;
    c.sets = 128;
    c.ways = 8;
    Btb btb(c);
    EXPECT_EQ(btb.fullTagBits(), 39u);
}

TEST(Btb, StorageBitsScaleWithEntries)
{
    Btb::Config c = smallCfg();
    Btb small(c);
    c.sets *= 2;
    Btb big(c);
    // Doubling sets nearly doubles storage (tag shrinks one bit).
    EXPECT_GT(big.storageBits(), small.storageBits() * 19 / 10);
    EXPECT_LT(big.storageBits(), small.storageBits() * 2);
}

class BtbGeometrySweep
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(BtbGeometrySweep, FillsToCapacityWithinSet)
{
    auto [sets, ways] = GetParam();
    Btb::Config c;
    c.sets = sets;
    c.ways = ways;
    Btb btb(c);
    // Fill one set completely, all entries must coexist.
    Addr stride = Addr(sets) * instBytes;
    for (unsigned w = 0; w < ways; ++w)
        btb.insert(0x4000 + w * stride, InstClass::Jump, 0x100);
    for (unsigned w = 0; w < ways; ++w)
        EXPECT_TRUE(btb.lookup(0x4000 + w * stride).has_value());
    EXPECT_EQ(btb.validEntries(), ways);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BtbGeometrySweep,
    ::testing::Values(std::pair<unsigned, unsigned>{16, 1},
                      std::pair<unsigned, unsigned>{16, 2},
                      std::pair<unsigned, unsigned>{64, 4},
                      std::pair<unsigned, unsigned>{128, 6},
                      std::pair<unsigned, unsigned>{1024, 8}));
