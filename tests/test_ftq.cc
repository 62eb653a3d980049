/** Tests for the fetch target queue. */

#include <gtest/gtest.h>

#include <vector>

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

/** Scan up to @p n blocks with @p c; returns their addresses. */
std::vector<Addr>
take(FtqCursor &c, const Ftq &ftq, std::size_t n)
{
    std::vector<Addr> out;
    c.scan(ftq, [&](Addr block) {
        if (out.size() == n)
            return false;
        out.push_back(block);
        return true;
    });
    return out;
}

/** The block @p c would scan next (invalidAddr if none). */
Addr
peek(FtqCursor c, const Ftq &ftq)
{
    std::vector<Addr> next = take(c, ftq, 1);
    return next.empty() ? invalidAddr : next[0];
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

TEST(Ftq, EntryInARecycledSlotStartsAtZero)
{
    // The ring reuses a popped entry's slot: the fetch engine's
    // progress through the old block must not carry over.
    Ftq ftq(2, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.head().fetchedInsts = 5;
    ftq.popHead();
    ftq.push(mkBlock(0x2000, 8));
    ftq.push(mkBlock(0x3000, 4)); // wraps onto the popped slot
    EXPECT_EQ(ftq.at(1).blk.startPc, 0x3000u);
    EXPECT_EQ(ftq.at(1).fetchedInsts, 0u);
    EXPECT_EQ(ftq.at(1).numBlocks, 1u);
    EXPECT_EQ(ftq.at(1).pushedAt, 0u);
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

TEST(FtqCursor, ResumesMidEntryAcrossAHeadPop)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));  // #0: the fetch point
    ftq.push(mkBlock(0x2000, 8));  // #1: one block
    ftq.push(mkBlock(0x3000, 24)); // #2: three blocks
    FtqCursor c;
    EXPECT_EQ(take(c, ftq, 2), (std::vector<Addr>{0x2000, 0x3000}));
    EXPECT_EQ(peek(c, ftq), 0x3020u); // stopped on the block it refused
    // #1 becomes the fetch point and #2 shifts to index 1: the cursor
    // stays on #2's second block.
    ftq.popHead();
    EXPECT_EQ(take(c, ftq, 9), (std::vector<Addr>{0x3020, 0x3040}));
    EXPECT_TRUE(c.done(ftq));
}

TEST(FtqCursor, RestartsWhenItsEntryBecomesTheFetchPoint)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));  // #0
    ftq.push(mkBlock(0x2000, 24)); // #1: three blocks
    ftq.push(mkBlock(0x3000, 8));  // #2
    FtqCursor c;
    EXPECT_EQ(take(c, ftq, 1), (std::vector<Addr>{0x2000}));
    // #1, a third scanned, is now the fetch point: the scan restarts
    // at entry 1, which is #2.
    ftq.popHead();
    EXPECT_EQ(take(c, ftq, 9), (std::vector<Addr>{0x3000}));
}

TEST(FtqCursor, RestartsWhenItsEntryIsFlushed)
{
    Ftq ftq(4, 32);
    ftq.push(mkBlock(0x1000, 8));
    ftq.push(mkBlock(0x2000, 8));
    ftq.push(mkBlock(0x3000, 24));
    FtqCursor mid;
    take(mid, ftq, 2); // on the third entry's second block
    FtqCursor end;
    take(end, ftq, 9);
    ftq.flush();
    EXPECT_TRUE(mid.done(ftq));
    EXPECT_TRUE(end.done(ftq));
    // The refilled queue is unscanned for both, however far each got.
    ftq.push(mkBlock(0x4000, 8));
    ftq.push(mkBlock(0x5000, 24));
    for (FtqCursor *c : {&mid, &end}) {
        EXPECT_EQ(take(*c, ftq, 9),
                  (std::vector<Addr>{0x5000, 0x5020, 0x5040}));
    }
}

TEST(FtqCursor, DoneExactlyWhenNoBlockRemains)
{
    Ftq ftq(4, 32);
    FtqCursor c;
    EXPECT_TRUE(c.done(ftq)); // empty
    ftq.push(mkBlock(0x1000, 8));
    EXPECT_TRUE(c.done(ftq)); // only the fetch point
    ftq.push(mkBlock(0x2000 + 5 * instBytes, 8)); // straddles: 2 blocks
    EXPECT_FALSE(c.done(ftq));
    take(c, ftq, 1);
    EXPECT_FALSE(c.done(ftq)); // the entry's last block remains
    take(c, ftq, 1);
    EXPECT_TRUE(c.done(ftq));
    // A push adds unscanned blocks after the scanned ones.
    ftq.push(mkBlock(0x3000, 8));
    EXPECT_FALSE(c.done(ftq));
    EXPECT_EQ(peek(c, ftq), 0x3000u);
    take(c, ftq, 1);
    EXPECT_TRUE(c.done(ftq));
    // restart() forgets it all.
    c.restart();
    EXPECT_FALSE(c.done(ftq));
    EXPECT_EQ(peek(c, ftq), 0x2000u);
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
