/** Tests for the fetch target queue. */

#include <gtest/gtest.h>

#include "frontend/ftq.hh"

using namespace fdip;

namespace
{

FetchBlock
mkBlock(Addr start, unsigned n)
{
    FetchBlock b;
    b.startPc = start;
    b.numInsts = n;
    b.validLen = n;
    return b;
}

} // namespace

TEST(Ftq, PushPopFifo)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 4));
    EXPECT_EQ(ftq.size(), 2u);
    EXPECT_EQ(ftq.head().blk.startPc, 0x1000u);
    ftq.popHead();
    EXPECT_EQ(ftq.head().blk.startPc, 0x2000u);
}

TEST(Ftq, EntryBookkeepingStartsAtZero)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    EXPECT_EQ(ftq.head().fetchedInsts, 0u);
}

TEST(Ftq, BlockCountStoredAtPush)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000 + 5 * instBytes, 8)); // straddles: 2 blocks
    ftq.push(mkBlock(0x2000, 24));                // 3 whole blocks
    EXPECT_EQ(ftq.at(0).numBlocks, 2u);
    EXPECT_EQ(ftq.at(1).numBlocks, 3u);
    // The count travels with the entry as the queue shifts.
    ftq.popHead();
    EXPECT_EQ(ftq.numCacheBlocks(0), 3u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 2), 0x2040u);
}

TEST(Ftq, HeadSeqNumbersEntriesInPushOrder)
{
    Ftq ftq(4, 32);
    EXPECT_EQ(ftq.headSeq(), 0u);
    ftq.push(mkBlock(0x1000, 8)); // #0
    ftq.push(mkBlock(0x2000, 8)); // #1
    ftq.push(mkBlock(0x3000, 8)); // #2
    ftq.popHead();
    EXPECT_EQ(ftq.headSeq(), 1u);
    EXPECT_EQ(ftq.head().blk.startPc, 0x2000u);
    // A flush retires every queued number: the next push is #3.
    ftq.flush();
    EXPECT_EQ(ftq.headSeq(), 3u);
    ftq.push(mkBlock(0x4000, 8));
    EXPECT_EQ(ftq.headSeq(), 3u);
    ftq.flush();
    EXPECT_EQ(ftq.headSeq(), 4u);
    // Flushing an empty queue retires nothing.
    ftq.flush();
    EXPECT_EQ(ftq.headSeq(), 4u);
    ftq.push(mkBlock(0x5000, 8));
    ftq.popHead();
    EXPECT_EQ(ftq.headSeq(), 5u);
}

TEST(Ftq, CacheBlockEnumerationAligned)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8)); // exactly one 32B block
    EXPECT_EQ(ftq.numCacheBlocks(0), 1u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
}

TEST(Ftq, CacheBlockEnumerationStraddling)
{
    Ftq ftq(4, 32);
    // Starts 3 instructions before a block boundary, 8 instructions:
    // spans two cache blocks.
    ftq.push(mkBlock(0x1000 + 5 * instBytes, 8));
    EXPECT_EQ(ftq.numCacheBlocks(0), 2u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 1), 0x1020u);
}

TEST(Ftq, SingleInstructionBlock)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x101c, 1));
    EXPECT_EQ(ftq.numCacheBlocks(0), 1u);
    EXPECT_EQ(ftq.cacheBlockAddr(0, 0), 0x1000u);
}

TEST(Ftq, FlushEmptiesAndCounts)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 8));
    ftq.flush();
    EXPECT_TRUE(ftq.empty());
    EXPECT_EQ(ftq.stats.counter("ftq.flushes"), 1u);
    EXPECT_EQ(ftq.stats.counter("ftq.flushed_blocks"), 2u);
}

TEST(Ftq, OccupancySampling)
{
    Ftq ftq(8, 32);
    ftq.sampleOccupancy(); // 0
    ftq.push(mkBlock(0x1000, 8));
    ftq.sampleOccupancy(); // 1
    ftq.push(mkBlock(0x2000, 8));
    ftq.sampleOccupancy(); // 2
    ftq.sampleOccupancy(); // 2
    const Histogram &h = ftq.occupancyHist();
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 2u);
    ftq.resetOccupancy();
    EXPECT_EQ(ftq.occupancyHist().count(), 0u);
}

TEST(Ftq, FullBlocksPush)
{
    Ftq ftq(2, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 8));
    EXPECT_TRUE(ftq.full());
    EXPECT_DEATH(ftq.push(mkBlock(0x3000, 8)), "full");
}

TEST(Ftq, StatsTrackInstructionVolume)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 3));
    EXPECT_EQ(ftq.stats.counter("ftq.pushed_insts"), 11u);
    EXPECT_EQ(ftq.stats.counter("ftq.pushed_blocks"), 2u);
}
