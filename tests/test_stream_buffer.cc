/** Tests for the Jouppi streaming buffers. */

#include <gtest/gtest.h>

#include "prefetch/stream_buffer.hh"

using namespace fdip;

namespace
{

struct Rig
{
    MemHierarchy mem;

    Rig() : mem(makeCfg()) {}

    static MemConfig
    makeCfg()
    {
        MemConfig c;
        c.l1i.sizeBytes = 4096;
        c.l1i.assoc = 2;
        c.l1i.blockBytes = 32;
        c.l2.sizeBytes = 64 * 1024;
        c.l2.assoc = 4;
        c.l2.blockBytes = 32;
        c.l2BusBytesPerCycle = 32; // quick transfers for tests
        return c;
    }

    FetchAccess
    trueMiss()
    {
        FetchAccess a; // all false = true miss with retry=false
        a.readyAt = 50;
        return a;
    }

    /** Run fill completion + buffer top-up for a few cycles. */
    void
    settle(StreamBufferPrefetcher &sb, Cycle from, Cycle to)
    {
        for (Cycle t = from; t <= to; ++t) {
            mem.tick(t);
            sb.tick(t);
        }
    }
};

StreamBufferPrefetcher::Config
noFilterCfg()
{
    StreamBufferPrefetcher::Config c;
    c.numBuffers = 2;
    c.allocationFilter = false;
    return c;
}

} // namespace

TEST(StreamBuffer, AllocatesOnMissAndStreams)
{
    Rig rig;
    StreamBufferPrefetcher sb(rig.mem, noFilterCfg());
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    EXPECT_EQ(sb.stats.counter("sb.allocations"), 1u);
    rig.settle(sb, 2, 600); // one outstanding per buffer: serial fills
    // The buffer filled up to its depth with successive blocks.
    EXPECT_GE(sb.stats.counter("sb.issued"), 4u);
    EXPECT_GE(sb.stats.counter("sb.fills"), 4u);
}

TEST(StreamBuffer, ProbeConsumesAndShifts)
{
    Rig rig;
    StreamBufferPrefetcher sb(rig.mem, noFilterCfg());
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    rig.settle(sb, 2, 200);
    // 0x1020 must be sitting in the buffer now.
    EXPECT_TRUE(sb.probeAndConsume(0x1020, 201));
    EXPECT_EQ(sb.stats.counter("sb.hits"), 1u);
    // Consuming again must fail (entry gone).
    EXPECT_FALSE(sb.probeAndConsume(0x1020, 202));
}

TEST(StreamBuffer, NonHeadHitSkipsOlderSlots)
{
    Rig rig;
    StreamBufferPrefetcher sb(rig.mem, noFilterCfg());
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    rig.settle(sb, 2, 200);
    // Jump over 0x1020 straight to 0x1040: fully-associative lookup
    // hits and discards the skipped slot.
    EXPECT_TRUE(sb.probeAndConsume(0x1040, 201));
    EXPECT_EQ(sb.stats.counter("sb.skipped_slots"), 1u);
    EXPECT_FALSE(sb.probeAndConsume(0x1020, 202));
}

TEST(StreamBuffer, TwoMissFilterSuppressesRandomMisses)
{
    Rig rig;
    StreamBufferPrefetcher::Config c;
    c.numBuffers = 2;
    c.allocationFilter = true;
    StreamBufferPrefetcher sb(rig.mem, c);
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    EXPECT_EQ(sb.stats.counter("sb.allocations"), 0u);
    EXPECT_EQ(sb.stats.counter("sb.filtered_allocations"), 1u);
    // Sequential second miss allocates.
    sb.onDemandAccess(0x1020, rig.trueMiss(), 2);
    EXPECT_EQ(sb.stats.counter("sb.allocations"), 1u);
}

TEST(StreamBuffer, LruReallocationReplacesColdBuffer)
{
    Rig rig;
    StreamBufferPrefetcher::Config c = noFilterCfg();
    c.numBuffers = 2;
    StreamBufferPrefetcher sb(rig.mem, c);
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    rig.settle(sb, 2, 100);
    sb.onDemandAccess(0x8000, rig.trueMiss(), 101);
    rig.settle(sb, 102, 200);
    // Third stream: one of the two buffers must be re-aimed.
    sb.onDemandAccess(0x20000, rig.trueMiss(), 201);
    EXPECT_EQ(sb.stats.counter("sb.allocations"), 3u);
    EXPECT_EQ(sb.stats.counter("sb.reallocations"), 1u);
}

TEST(StreamBuffer, DoesNotReallocateForBlocksAlreadyStreamed)
{
    Rig rig;
    StreamBufferPrefetcher sb(rig.mem, noFilterCfg());
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    rig.settle(sb, 2, 100);
    std::uint64_t allocs = sb.stats.counter("sb.allocations");
    // A miss on a block the buffer already holds must not allocate a
    // second stream (the demand path would have consumed it anyway).
    sb.onDemandAccess(0x1020, rig.trueMiss(), 101);
    EXPECT_EQ(sb.stats.counter("sb.allocations"), allocs);
}

TEST(StreamBuffer, SkipsBlocksAlreadyCached)
{
    Rig rig;
    StreamBufferPrefetcher sb(rig.mem, noFilterCfg());
    rig.mem.l1i().insert(0x1020); // next block is already in L1
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    rig.settle(sb, 2, 400);
    EXPECT_GE(sb.stats.counter("sb.skipped_redundant"), 1u);
    // The stream continued past the cached block.
    EXPECT_TRUE(sb.probeAndConsume(0x1040, 401));
}

TEST(StreamBuffer, InFlightSlotNotConsumable)
{
    Rig rig;
    MemConfig slow = Rig::makeCfg();
    slow.dramLatency = 500;
    MemHierarchy mem(slow);
    StreamBufferPrefetcher sb(mem, noFilterCfg());
    mem.tick(1);
    sb.onDemandAccess(0x1000, FetchAccess{.readyAt = 50}, 1);
    mem.tick(2);
    sb.tick(2); // issues the first prefetch; fill is far away
    EXPECT_FALSE(sb.probeAndConsume(0x1020, 3));
    // But the MSHR knows it is in flight: a demand would merge there.
    EXPECT_NE(mem.mshrs().find(0x1020), nullptr);
}

TEST(StreamBuffer, RegistersAsHierarchyClient)
{
    Rig rig;
    StreamBufferPrefetcher sb(rig.mem, noFilterCfg());
    rig.mem.tick(1);
    sb.onDemandAccess(0x1000, rig.trueMiss(), 1);
    rig.settle(sb, 2, 200);
    // demandFetch must find the streamed block via the probe client.
    rig.mem.tick(201);
    rig.mem.reserveTagPort();
    FetchAccess a = rig.mem.demandFetch(0x1020, 201);
    EXPECT_TRUE(a.hitStreamBuffer);
    EXPECT_TRUE(rig.mem.l1i().probe(0x1020));
}
