/** Tests for the fetch engine (FTQ consumption + demand fetch). */

#include <gtest/gtest.h>

#include "core/backend.hh"
#include "frontend/fetch_engine.hh"
#include "frontend/ftq.hh"
#include "mem/hierarchy.hh"

using namespace fdip;

namespace
{

struct Rig
{
    MemConfig mcfg;
    MemHierarchy mem;
    Ftq ftq;
    Backend backend;
    FetchEngine fetch;
    Cycle now = 0;

    Rig()
        : mcfg(makeCfg()), mem(mcfg), ftq(8, 32),
          backend({.retireWidth = 8, .queueDepth = 64}),
          fetch(ftq, mem, backend, {.fetchWidth = 8})
    {}

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
        return c;
    }

    void
    tick()
    {
        ++now;
        mem.tick(now);
        backend.tick(now);
        fetch.tick(now);
    }

    FetchBlock
    blockAt(Addr pc, unsigned n, InstSeqNum first_seq = 0)
    {
        FetchBlock b;
        b.startPc = pc;
        b.numInsts = n;
        b.validLen = n;
        b.firstSeq = first_seq;
        return b;
    }
};

} // namespace

TEST(FetchEngine, DeliversWholeBlockOnHit)
{
    Rig rig;
    rig.mem.l1i().insert(0x1000);
    rig.ftq.push(rig.blockAt(0x1000, 8));
    rig.tick();
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered"), 8u);
    EXPECT_TRUE(rig.ftq.empty()); // fully fetched entries pop
}

TEST(FetchEngine, BlockSpanningTwoCacheLinesTakesTwoCycles)
{
    Rig rig;
    rig.mem.l1i().insert(0x1000);
    rig.mem.l1i().insert(0x1020);
    // 8 instructions starting 4 before the line boundary.
    rig.ftq.push(rig.blockAt(0x1010, 8));
    rig.tick();
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered"), 4u);
    EXPECT_FALSE(rig.ftq.empty());
    rig.tick();
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered"), 8u);
    EXPECT_TRUE(rig.ftq.empty());
}

TEST(FetchEngine, MissStallsUntilFill)
{
    Rig rig;
    rig.ftq.push(rig.blockAt(0x2000, 8));
    rig.tick(); // miss issued
    EXPECT_EQ(rig.fetch.stats.counter("fetch.demand_misses"), 1u);
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered"), 0u);
    // Drain until well past the memory latency.
    for (int i = 0; i < 120; ++i)
        rig.tick();
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered"), 8u);
    EXPECT_GT(rig.fetch.stats.counter("fetch.miss_stall_cycles"), 50u);
}

TEST(FetchEngine, EmptyFtqCountsStarvation)
{
    Rig rig;
    rig.tick();
    rig.tick();
    EXPECT_EQ(rig.fetch.stats.counter("fetch.ftq_empty_cycles"), 2u);
}

TEST(FetchEngine, BackendBackpressureStallsFetch)
{
    Rig rig;
    // Tiny backend queue that we keep full.
    Backend small({.retireWidth = 1, .queueDepth = 2});
    FetchEngine fe(rig.ftq, rig.mem, small, {.fetchWidth = 8});
    rig.mem.l1i().insert(0x1000);
    rig.ftq.push(rig.blockAt(0x1000, 8));
    rig.mem.tick(1);
    fe.tick(1); // delivers only 2 (queue space)
    EXPECT_EQ(small.stats.counter("backend.delivered"), 2u);
    rig.mem.tick(2);
    fe.tick(2); // queue still full: 0 delivered
    EXPECT_EQ(small.stats.counter("backend.delivered"), 2u);
    EXPECT_GT(fe.stats.counter("fetch.backend_full_cycles"), 0u);
}

TEST(FetchEngine, WrongPathInstructionsFlagged)
{
    Rig rig;
    rig.mem.l1i().insert(0x1000);
    FetchBlock blk = rig.blockAt(0x1000, 8);
    blk.validLen = 3; // diverges after instruction 2
    blk.diverges = true;
    blk.culpritIdx = 2;
    blk.decodeFixable = false;
    rig.ftq.push(blk);
    rig.tick();
    EXPECT_EQ(rig.fetch.stats.counter("fetch.wrong_path_delivered"), 5u);
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered_wrong_path"),
              5u);
}

TEST(FetchEngine, RedirectScheduledWithResolveLatency)
{
    Rig rig;
    rig.mem.l1i().insert(0x1000);
    FetchBlock blk = rig.blockAt(0x1000, 8);
    blk.diverges = true;
    blk.culpritIdx = 4;
    blk.validLen = 5;
    blk.decodeFixable = false;
    rig.ftq.push(blk);
    rig.tick(); // delivery at cycle 1
    ASSERT_TRUE(rig.fetch.redirectPending());
    EXPECT_EQ(rig.fetch.redirectTime(), 1u + 12);
    EXPECT_EQ(rig.fetch.stats.counter("fetch.resolve_redirects"), 1u);
}

TEST(FetchEngine, DecodeFixableUsesShortLatency)
{
    Rig rig;
    rig.mem.l1i().insert(0x1000);
    FetchBlock blk = rig.blockAt(0x1000, 8);
    blk.diverges = true;
    blk.culpritIdx = 7;
    blk.validLen = 8;
    blk.decodeFixable = true;
    rig.ftq.push(blk);
    rig.tick();
    ASSERT_TRUE(rig.fetch.redirectPending());
    EXPECT_EQ(rig.fetch.redirectTime(), 1u + 3);
    EXPECT_EQ(rig.fetch.stats.counter("fetch.decode_redirects"), 1u);
}

TEST(FetchEngine, SquashClearsRedirectAndStall)
{
    Rig rig;
    rig.ftq.push(rig.blockAt(0x3000, 8)); // will miss
    rig.tick();
    rig.fetch.squash();
    EXPECT_FALSE(rig.fetch.redirectPending());
    // After the squash the engine fetches fresh work immediately.
    rig.ftq.flush();
    rig.mem.l1i().insert(0x1000);
    rig.ftq.push(rig.blockAt(0x1000, 8));
    rig.tick();
    EXPECT_EQ(rig.backend.stats.counter("backend.delivered"), 8u);
}

namespace
{

struct RecordingPrefetcher : Prefetcher
{
    std::vector<Addr> accesses;
    std::vector<bool> misses;
    std::string name() const override { return "recorder"; }
    void
    onDemandAccess(Addr block, const FetchAccess &a, Cycle) override
    {
        accesses.push_back(block);
        misses.push_back(isTrueMiss(a));
    }
};

} // namespace

TEST(FetchEngine, NotifiesPrefetchersOfDemandAccesses)
{
    Rig rig;
    RecordingPrefetcher rec;
    rig.fetch.addPrefetcher(&rec);
    rig.mem.l1i().insert(0x1000);
    rig.ftq.push(rig.blockAt(0x1000, 8));
    rig.ftq.push(rig.blockAt(0x2000, 8));
    rig.tick(); // hit on 0x1000
    rig.tick(); // miss on 0x2000
    ASSERT_GE(rec.accesses.size(), 2u);
    EXPECT_EQ(rec.accesses[0], 0x1000u);
    EXPECT_FALSE(rec.misses[0]);
    EXPECT_EQ(rec.accesses[1], 0x2000u);
    EXPECT_TRUE(rec.misses[1]);
}
