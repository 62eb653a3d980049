/** Tests for the partitioned-BTB extension. */

#include <gtest/gtest.h>

#include "bpu/partitioned_btb.hh"

using namespace fdip;

namespace
{

PartitionedBtb::Config
tinyCfg()
{
    PartitionedBtb::Config c;
    c.tagBits = 16;
    c.partitions = {
        {8, 16, 2},
        {13, 16, 2},
        {23, 16, 2},
        {0, 8, 2},
    };
    return c;
}

} // namespace

TEST(PartitionedBtb, AllocatesToSmallestFittingPartition)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x100000;

    pbtb.insert(pc, InstClass::Jump, pc + 100 * instBytes);   // 7 bits
    pbtb.insert(pc + 4, InstClass::Jump, pc + 5000 * instBytes);  // 13
    pbtb.insert(pc + 8, InstClass::Jump, pc + 4000000 * instBytes); // 22
    pbtb.insert(pc + 12, InstClass::IndCall, 0x40000000);     // full

    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p0"), 1u);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p1"), 1u);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p2"), 1u);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_p3"), 1u);

    for (unsigned i = 0; i < 4; ++i)
        EXPECT_TRUE(pbtb.lookup(pc + i * 4).has_value()) << i;
}

TEST(PartitionedBtb, LookupSearchesAllPartitions)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x200000;
    Addr far = pc + (1 << 20) * instBytes;
    pbtb.insert(pc, InstClass::Jump, far);
    auto hit = pbtb.lookup(pc);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, far);
}

TEST(PartitionedBtb, TargetChangeMigratesPartition)
{
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x300000;
    pbtb.insert(pc, InstClass::CondBr, pc + 10 * instBytes);  // short
    pbtb.insert(pc, InstClass::CondBr, pc + 100000 * instBytes); // long
    // Exactly one entry must survive, holding the new target.
    auto hit = pbtb.lookup(pc);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, pc + 100000 * instBytes);
    unsigned valid = 0;
    for (unsigned p = 0; p < pbtb.numPartitions(); ++p)
        valid += pbtb.partition(p).validEntries();
    EXPECT_EQ(valid, 1u);
}

TEST(PartitionedBtb, DefaultConfigGeometry)
{
    auto cfg = PartitionedBtb::makeDefaultConfig(1024);
    PartitionedBtb pbtb(cfg);
    EXPECT_EQ(pbtb.numPartitions(), 4u);
    // Distribution-tuned sizing: the 8-bit partition dominates
    // (short offsets plus returns), the longer-offset partitions are
    // small, and the full-width partition serves indirects.
    EXPECT_EQ(pbtb.partition(0).numEntries(), 1536u);
    EXPECT_EQ(pbtb.partition(1).numEntries(), 256u);
    EXPECT_EQ(pbtb.partition(2).numEntries(), 256u);
    EXPECT_EQ(pbtb.partition(3).numEntries(), 384u);
}

TEST(PartitionedBtb, StorageBeatsUnifiedPerEntry)
{
    // At roughly equal storage, the partitioned design holds over 2x
    // the entries of the unified full-entry block-based design.
    auto cfg = PartitionedBtb::makeDefaultConfig(1024);
    PartitionedBtb pbtb(cfg);

    // 1K entries, full tags, one full-width target field.
    PartitionedBtb ubtb({{{0, 128, 8}}, /*tagBits=*/0});

    double pb_per_entry = static_cast<double>(pbtb.storageBits()) /
        pbtb.numEntries();
    double ub_per_entry = static_cast<double>(ubtb.storageBits()) /
        ubtb.numEntries();
    EXPECT_LT(pb_per_entry, ub_per_entry / 2.0);
    EXPECT_GT(static_cast<double>(pbtb.numEntries()),
              2.0 * ubtb.numEntries());
}

TEST(PartitionedBtb, RejectsUnencodableNever)
{
    // The full-width partition accepts everything, so inserts must
    // never be rejected.
    PartitionedBtb pbtb(tinyCfg());
    Addr pc = 0x500000;
    pbtb.insert(pc, InstClass::Jump, 0xFFFFFFFFF0ull);
    EXPECT_EQ(pbtb.stats.counter("pbtb.insert_rejected"), 0u);
    EXPECT_TRUE(pbtb.lookup(pc).has_value());
}

TEST(PartitionedBtb, UnifiedIsOnePartitionAndCountsEveryProbe)
{
    PartitionedBtb unified({{{0, 16, 2}}, /*tagBits=*/0});
    Addr pc = 0x600000;
    EXPECT_FALSE(unified.lookup(pc).has_value());
    unified.insert(pc, InstClass::IndCall, 0x40000000);
    unified.insert(pc, InstClass::IndCall, 0x50000000); // update
    auto hit = unified.lookup(pc);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->target, 0x50000000u);
    EXPECT_EQ(unified.partition(0).validEntries(), 1u);
    EXPECT_EQ(unified.partition(0).fullTagBits(), 42u);
    EXPECT_EQ(unified.stats.counter("pbtb.lookups"), 2u);
    EXPECT_EQ(unified.stats.counter("pbtb.hits"), 1u);
    EXPECT_EQ(unified.stats.counter("pbtb.misses"), 1u);
    // Fills and in-place updates both count as inserts.
    EXPECT_EQ(unified.stats.counter("pbtb.insert_p0"), 2u);
    EXPECT_EQ(unified.stats.counter("pbtb.insert_rejected"), 0u);
}

TEST(PartitionedBtbDeath, EmptyConfig)
{
    PartitionedBtb::Config c;
    EXPECT_DEATH({ PartitionedBtb p(c); }, "no partitions");
}
