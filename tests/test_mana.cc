/** Tests for MANA-style record/replay prefetching. */

#include <gtest/gtest.h>

#include "prefetch/mana.hh"

using namespace fdip;

namespace
{

// 32B blocks, 4-block regions: region bytes = 128.
constexpr Addr kRegA = 0x1000; // region 32
constexpr Addr kRegB = 0x1080; // region 33
constexpr Addr kRegC = 0x1100; // region 34
constexpr Addr kRegD = 0x1180; // region 35

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
        return c;
    }

    static ManaPrefetcher::Config
    makePfCfg()
    {
        ManaPrefetcher::Config c;
        c.regionBlocks = 4;
        c.tableSets = 4;
        c.tableWays = 2;
        c.chainLength = 1;
        return c;
    }

    FetchAccess
    missAccess()
    {
        FetchAccess a;
        a.hitL1 = false;
        a.readyAt = 100;
        return a;
    }

    FetchAccess
    hitAccess()
    {
        FetchAccess a;
        a.hitL1 = true;
        a.readyAt = 1;
        return a;
    }

    /** Run the memory system until pending candidates drain. */
    void
    drain(ManaPrefetcher &pf)
    {
        for (Cycle t = 1; t <= 600; ++t) {
            mem.tick(t);
            pf.tick(t);
        }
    }
};

} // namespace

TEST(Mana, RecordsFootprintAndReplaysOnReentry)
{
    Rig rig;
    ManaPrefetcher pf(rig.mem, Rig::makePfCfg());

    // Visit region A, missing on blocks 0, 1, and 3.
    pf.onDemandAccess(kRegA + 0x00, rig.missAccess(), 1);
    pf.onDemandAccess(kRegA + 0x20, rig.missAccess(), 1);
    pf.onDemandAccess(kRegA + 0x60, rig.missAccess(), 1);
    // Leave for region B: A's footprint is recorded.
    pf.onDemandAccess(kRegB, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("mana.records"), 1u);
    EXPECT_EQ(pf.stats.counter("mana.replays"), 0u);

    // Re-enter region A: the recorded footprint replays, minus the
    // trigger block the demand access is already fetching.
    pf.onDemandAccess(kRegA + 0x00, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("mana.lookups"), 3u);
    EXPECT_EQ(pf.stats.counter("mana.replays"), 1u);
    EXPECT_EQ(pf.stats.counter("mana.replayed_blocks"), 2u);

    rig.drain(pf);
    EXPECT_EQ(pf.stats.counter("mana.issued"), 2u);
    EXPECT_TRUE(rig.mem.pfBuffer().probe(kRegA + 0x20));
    EXPECT_TRUE(rig.mem.pfBuffer().probe(kRegA + 0x60));
    EXPECT_FALSE(rig.mem.pfBuffer().probe(kRegA + 0x00)); // trigger
    EXPECT_FALSE(rig.mem.pfBuffer().probe(kRegA + 0x40)); // never missed
}

TEST(Mana, TableBytesAndEvictionAccounting)
{
    Rig rig;
    ManaPrefetcher::Config cfg = Rig::makePfCfg();
    cfg.tableSets = 1;
    cfg.tableWays = 2; // capacity: two entries
    ManaPrefetcher pf(rig.mem, cfg);

    std::uint64_t eb = (ManaPrefetcher::entryBits(cfg) + 7) / 8;
    ASSERT_EQ(ManaPrefetcher::tableCapacityBytes(cfg), 2 * eb);

    // Walk four regions, one miss each: three records (the fourth
    // region is still open), two fresh allocations, one eviction.
    pf.onDemandAccess(kRegA, rig.missAccess(), 1);
    pf.onDemandAccess(kRegB, rig.missAccess(), 1);
    pf.onDemandAccess(kRegC, rig.missAccess(), 1);
    pf.onDemandAccess(kRegD, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("mana.records"), 3u);
    EXPECT_EQ(pf.stats.counter("mana.evictions"), 1u);
    // Live-metadata identity: bytes grow only while cold ways fill,
    // then plateau at the table's capacity.
    EXPECT_EQ(pf.stats.counter("mana.table_bytes"), 2 * eb);

    // The LRU victim was region A: re-entering it finds nothing.
    pf.onDemandAccess(kRegA, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("mana.replays"), 0u);
    EXPECT_EQ(pf.stats.counter("mana.evictions"), 2u);
    EXPECT_EQ(pf.stats.counter("mana.table_bytes"), 2 * eb);
    EXPECT_LE(pf.stats.counter("mana.table_bytes"),
              ManaPrefetcher::tableCapacityBytes(cfg));
}

TEST(Mana, MissFreeRegionsAreNotRecorded)
{
    Rig rig;
    ManaPrefetcher pf(rig.mem, Rig::makePfCfg());
    pf.onDemandAccess(kRegA + 0x00, rig.hitAccess(), 1);
    pf.onDemandAccess(kRegA + 0x20, rig.hitAccess(), 1);
    pf.onDemandAccess(kRegB, rig.hitAccess(), 1);
    EXPECT_EQ(pf.stats.counter("mana.records"), 0u);
    EXPECT_EQ(pf.stats.counter("mana.table_bytes"), 0u);
}

TEST(Mana, ChainReplayFollowsSuccessorRegion)
{
    Rig rig;
    ManaPrefetcher::Config cfg = Rig::makePfCfg();
    cfg.chainLength = 2;
    ManaPrefetcher pf(rig.mem, cfg);

    // A misses blocks 0 and 2, then the stream moves to B (miss) and
    // back to A: the replay covers A's footprint AND chases A's
    // recorded successor B.
    pf.onDemandAccess(kRegA + 0x00, rig.missAccess(), 1);
    pf.onDemandAccess(kRegA + 0x40, rig.missAccess(), 1);
    pf.onDemandAccess(kRegB + 0x00, rig.missAccess(), 1);
    pf.onDemandAccess(kRegA + 0x00, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("mana.replays"), 1u);
    EXPECT_EQ(pf.stats.counter("mana.chain_replays"), 1u);
    EXPECT_EQ(pf.stats.counter("mana.replayed_blocks"), 2u);

    rig.drain(pf);
    EXPECT_TRUE(rig.mem.pfBuffer().probe(kRegA + 0x40));
    EXPECT_TRUE(rig.mem.pfBuffer().probe(kRegB + 0x00));
}

TEST(Mana, QuiescenceContract)
{
    Rig rig;
    ManaPrefetcher pf(rig.mem, Rig::makePfCfg());
    EXPECT_EQ(pf.nextEventCycle(5), kNever);

    pf.onDemandAccess(kRegA + 0x00, rig.missAccess(), 1);
    pf.onDemandAccess(kRegA + 0x20, rig.missAccess(), 1);
    pf.onDemandAccess(kRegB, rig.missAccess(), 1);
    pf.onDemandAccess(kRegA + 0x00, rig.missAccess(), 1); // replay pends
    EXPECT_EQ(pf.nextEventCycle(5), Cycle(6));

    rig.drain(pf);
    EXPECT_EQ(pf.nextEventCycle(700), kNever);
}

TEST(ManaDeath, ZeroQueueRejectedBeforeTheQueueIsBuilt)
{
    Rig rig;
    ManaPrefetcher::Config cfg = Rig::makePfCfg();
    cfg.queueEntries = 0;
    EXPECT_DEATH(ManaPrefetcher(rig.mem, cfg),
                 "mana candidate queue needs at least one entry");
}
