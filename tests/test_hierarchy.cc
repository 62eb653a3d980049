/** Integration tests for the memory hierarchy. */

#include <gtest/gtest.h>

#include "mem/hierarchy.hh"

using namespace fdip;

namespace
{

MemConfig
smallCfg()
{
    MemConfig c;
    c.l1i.sizeBytes = 1024; // small so eviction is easy to force
    c.l1i.assoc = 2;
    c.l1i.blockBytes = 32;
    c.l2.sizeBytes = 64 * 1024;
    c.l2.assoc = 4;
    c.l2.blockBytes = 32;
    c.l2HitLatency = 12;
    c.dramLatency = 70;
    c.l2BusBytesPerCycle = 8;  // 4 cycles per 32B block
    c.memBusBytesPerCycle = 4; // 8 cycles per block
    c.l1TagPorts = 2;
    c.prefetchBufferEntries = 4;
    return c;
}

/** Advance until the hierarchy's pending fills (if any) land. */
void
drain(MemHierarchy &mem, Cycle upto)
{
    for (Cycle t = 0; t <= upto; ++t)
        mem.tick(t);
}

} // namespace

TEST(Hierarchy, ColdMissGoesToMemoryWithBothBusLatencies)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    mem.reserveTagPort();
    FetchAccess a = mem.demandFetch(0x10000, 0);
    EXPECT_FALSE(a.hitL1);
    EXPECT_FALSE(a.retry);
    // L2 miss path: l2 lat (12) + dram (70) + mem bus (8) + l2 bus (4).
    EXPECT_EQ(a.readyAt, 0u + 12 + 70 + 8 + 4);
}

TEST(Hierarchy, L2HitPathLatency)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    mem.reserveTagPort();
    FetchAccess a = mem.demandFetch(0x10000, 0);
    drain(mem, a.readyAt); // fills L1 and L2
    // Evict it from the tiny L1 with conflicting fills.
    Addr conflict = 0x10000;
    for (int i = 1; i <= 2; ++i) {
        conflict += 1024; // same L1 set
        mem.l1i().insert(conflict);
    }
    EXPECT_FALSE(mem.l1i().probe(0x10000));

    mem.tick(2000);
    mem.reserveTagPort();
    FetchAccess b = mem.demandFetch(0x10000, 2000);
    EXPECT_FALSE(b.hitL1);
    EXPECT_EQ(b.readyAt, 2000u + 12 + 4); // L2 hit + l2 bus
}

TEST(Hierarchy, HitIsOneCycleLatency)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    mem.l1i().insert(0x10000);
    mem.reserveTagPort();
    FetchAccess a = mem.demandFetch(0x10000, 5);
    EXPECT_TRUE(a.hitL1);
    EXPECT_EQ(a.readyAt, 5u + 1);
}

TEST(Hierarchy, PrefetchFillsBufferThenPromotesOnDemand)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    auto r = mem.issuePrefetch(0x20000, 0, FillDest::PrefetchBuffer);
    EXPECT_EQ(r, MemHierarchy::PfIssue::Issued);
    drain(mem, 200);
    EXPECT_TRUE(mem.pfBuffer().probe(0x20000));
    EXPECT_FALSE(mem.l1i().probe(0x20000));

    mem.tick(300);
    mem.reserveTagPort();
    FetchAccess a = mem.demandFetch(0x20000, 300);
    EXPECT_TRUE(a.hitPrefetchBuffer);
    EXPECT_EQ(a.readyAt, 300u + 1);
    EXPECT_TRUE(mem.l1i().probe(0x20000));   // promoted
    EXPECT_FALSE(mem.pfBuffer().probe(0x20000)); // freed
}

TEST(Hierarchy, DemandMergesWithInflightPrefetch)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    auto r = mem.issuePrefetch(0x30000, 0, FillDest::PrefetchBuffer);
    ASSERT_EQ(r, MemHierarchy::PfIssue::Issued);
    Cycle pf_ready = mem.mshrs().find(0x30000)->readyAt;

    // Demand arrives halfway through the fill.
    mem.tick(10);
    mem.reserveTagPort();
    FetchAccess a = mem.demandFetch(0x30000, 10);
    EXPECT_TRUE(a.mergedInflight);
    EXPECT_TRUE(a.mergedInflightPrefetch);
    EXPECT_EQ(a.readyAt, pf_ready); // inherits the fill's timing
    // The fill is retargeted straight into the L1.
    EXPECT_EQ(mem.mshrs().find(0x30000)->dest, FillDest::DemandL1);
    drain(mem, pf_ready);
    EXPECT_TRUE(mem.l1i().probe(0x30000));
    EXPECT_FALSE(mem.pfBuffer().probe(0x30000));
}

TEST(Hierarchy, RedundantPrefetchSuppressed)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    ASSERT_EQ(mem.issuePrefetch(0x40000, 0, FillDest::PrefetchBuffer),
              MemHierarchy::PfIssue::Issued);
    // Same block while in flight: redundant.
    EXPECT_EQ(mem.issuePrefetch(0x40000, 1, FillDest::PrefetchBuffer),
              MemHierarchy::PfIssue::Redundant);
    drain(mem, 200);
    // Now it sits in the prefetch buffer: still redundant.
    EXPECT_EQ(mem.issuePrefetch(0x40000, 300, FillDest::PrefetchBuffer),
              MemHierarchy::PfIssue::Redundant);
}

TEST(Hierarchy, PrefetchDeniedWhenBusBusy)
{
    MemConfig cfg = smallCfg();
    MemHierarchy mem(cfg);
    mem.tick(0);
    mem.reserveTagPort();
    // A demand miss occupies the L2 bus (after L2 latency).
    mem.demandFetch(0x50000, 0);
    // The L2 data transfer occupies the bus; a prefetch that needs the
    // same bus in that window is denied.
    auto r = mem.issuePrefetch(0x51000, 0, FillDest::PrefetchBuffer);
    EXPECT_EQ(r, MemHierarchy::PfIssue::NoResource);
}

TEST(Hierarchy, PrefetchBudgetEnforced)
{
    MemConfig cfg = smallCfg();
    cfg.l2BusBytesPerCycle = 1024; // effectively infinite bandwidth
    cfg.memBusBytesPerCycle = 1024;
    cfg.maxOutstandingPrefetches = 2;
    MemHierarchy mem(cfg);
    mem.tick(0);
    EXPECT_EQ(mem.issuePrefetch(0x60000, 0, FillDest::PrefetchBuffer),
              MemHierarchy::PfIssue::Issued);
    mem.tick(1);
    EXPECT_EQ(mem.issuePrefetch(0x61000, 1, FillDest::PrefetchBuffer),
              MemHierarchy::PfIssue::Issued);
    mem.tick(2);
    EXPECT_EQ(mem.issuePrefetch(0x62000, 2, FillDest::PrefetchBuffer),
              MemHierarchy::PfIssue::NoResource);
}

TEST(Hierarchy, TagPortsResetEachCycle)
{
    MemHierarchy mem(smallCfg()); // 2 ports
    mem.tick(0);
    EXPECT_TRUE(mem.reserveTagPort());
    EXPECT_TRUE(mem.reserveTagPort());
    EXPECT_FALSE(mem.reserveTagPort());
    EXPECT_EQ(mem.freeTagPorts(), 0u);
    mem.tick(1);
    EXPECT_EQ(mem.freeTagPorts(), 2u);
    EXPECT_TRUE(mem.reserveTagPort());
}

namespace
{

struct RecordingFillClient : StreamFillClient
{
    std::vector<std::tuple<std::uint32_t, std::uint32_t, Addr>> fills;
    void
    streamFill(std::uint32_t sid, std::uint32_t slot, Addr addr) override
    {
        fills.emplace_back(sid, slot, addr);
    }
};

} // namespace

TEST(Hierarchy, StreamFillsDispatchToClient)
{
    MemHierarchy mem(smallCfg());
    RecordingFillClient client;
    mem.setStreamFillClient(&client);
    mem.tick(0);
    ASSERT_EQ(mem.issuePrefetch(0x70000, 0, FillDest::StreamBuffer,
                                /*stream_id=*/3, /*slot_id=*/1),
              MemHierarchy::PfIssue::Issued);
    drain(mem, 200);
    ASSERT_EQ(client.fills.size(), 1u);
    EXPECT_EQ(std::get<0>(client.fills[0]), 3u);
    EXPECT_EQ(std::get<1>(client.fills[0]), 1u);
    EXPECT_EQ(std::get<2>(client.fills[0]), 0x70000u);
}

TEST(Hierarchy, MissFillsBothLevels)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    mem.reserveTagPort();
    FetchAccess a = mem.demandFetch(0x80000, 0);
    EXPECT_FALSE(mem.l2().probe(0x80000));
    drain(mem, a.readyAt);
    EXPECT_TRUE(mem.l1i().probe(0x80000));
    EXPECT_TRUE(mem.l2().probe(0x80000));
}

TEST(Hierarchy, CollectStatsAggregatesComponents)
{
    MemHierarchy mem(smallCfg());
    mem.tick(0);
    mem.reserveTagPort();
    mem.demandFetch(0x90000, 0);
    StatSet all;
    mem.collectStats(all);
    EXPECT_GT(all.counter("mem.demand_accesses"), 0u);
    EXPECT_GT(all.counter("l1i.cache.misses"), 0u);
    EXPECT_GT(all.counter("l2bus.bus.busy_cycles"), 0u);
    EXPECT_GT(all.counter("dram.reads"), 0u);
}
