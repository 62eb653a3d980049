/** Tests for shadow-branch BTB/FTB prefill. */

#include <gtest/gtest.h>

#include "bpu/ftb.hh"
#include "bpu/partitioned_btb.hh"
#include "prefetch/shadow_btb.hh"
#include "test_helpers.hh"

using namespace fdip;

namespace
{

struct Rig
{
    std::unique_ptr<Program> prog = testutil::makeCallPattern();
    Ftb ftb;
    MemHierarchy mem;

    Rig() : ftb(Ftb::Config{16, 2}), mem(makeCfg()) {}

    static MemConfig
    makeCfg()
    {
        MemConfig c;
        c.l1i.sizeBytes = 4096;
        c.l1i.assoc = 2;
        c.l1i.blockBytes = 32; // 8 inst slots per line
        c.l2.sizeBytes = 64 * 1024;
        c.l2.assoc = 4;
        c.l2.blockBytes = 32;
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

    /** Scan everything queued (one line per tick is plenty). */
    void
    drain(ShadowBtbPrefetcher &pf)
    {
        for (Cycle t = 1; t <= 50; ++t) {
            mem.tick(t);
            pf.tick(t);
        }
    }
};

} // namespace

TEST(ShadowBtb, FindsPlantedBranchesAndPrefillsFtb)
{
    Rig rig;
    ShadowBtbPrefetcher pf(&rig.ftb, nullptr, rig.mem, rig.prog.get(), {});

    // makeCallPattern lays f0 (Call@base+4, Jump@base+12) and f1's
    // CondBr@base+24 inside the first 32B line.
    Addr base = rig.prog->base;
    pf.onDemandAccess(base, rig.missAccess(), 1);
    rig.drain(pf);

    EXPECT_EQ(pf.stats.counter("shadow.lines_scanned"), 1u);
    EXPECT_EQ(pf.stats.counter("shadow.branches_found"), 3u);
    EXPECT_EQ(pf.stats.counter("shadow.prefill_correct"), 3u);
    EXPECT_EQ(pf.stats.counter("shadow.prefill_bogus"), 0u);
    EXPECT_EQ(pf.stats.counter("shadow.out_of_range_dropped"), 0u);

    // The reconstructed blocks carry the true targets.
    auto call_blk = rig.ftb.lookup(base);
    ASSERT_TRUE(call_blk.has_value());
    EXPECT_EQ(call_blk->termCls, InstClass::Call);
    EXPECT_EQ(call_blk->numInsts, 2u);
    EXPECT_EQ(call_blk->target, rig.prog->funcs[1].entry);

    auto cond_blk = rig.ftb.lookup(rig.prog->funcs[1].entry);
    ASSERT_TRUE(cond_blk.has_value());
    EXPECT_EQ(cond_blk->termCls, InstClass::CondBr);
    EXPECT_EQ(cond_blk->target, rig.prog->funcs[1].blocks[2].start);
}

TEST(ShadowBtb, PrefillsConventionalBtbByBranchPc)
{
    Rig rig;
    PartitionedBtb btb({{{0, 16, 2}}, /*tagBits=*/0}); // unified
    ShadowBtbPrefetcher pf(nullptr, &btb, rig.mem, rig.prog.get(), {});

    Addr base = rig.prog->base;
    pf.onDemandAccess(base, rig.missAccess(), 1);
    rig.drain(pf);

    auto call_hit = btb.lookup(base + 1 * instBytes);
    ASSERT_TRUE(call_hit.has_value());
    EXPECT_EQ(call_hit->cls, InstClass::Call);
    EXPECT_EQ(call_hit->target, rig.prog->funcs[1].entry);
}

TEST(ShadowBtb, SkipsReturnsAndNeverPrefillsOutsideImage)
{
    Rig rig;
    ShadowBtbPrefetcher::Config cfg;
    cfg.bogusNoiseDenom = 1; // every non-CF slot looks like a branch
    ShadowBtbPrefetcher pf(&rig.ftb, nullptr, rig.mem, rig.prog.get(), cfg);

    // The second line holds f1's tail (plain insts + Return) and runs
    // past the end of the 48-byte image into "data" slots.
    Addr base = rig.prog->base;
    pf.onDemandAccess(base + 32, rig.missAccess(), 1);
    rig.drain(pf);

    EXPECT_EQ(pf.stats.counter("shadow.indirect_skipped"), 1u);
    EXPECT_GT(pf.stats.counter("shadow.prefill_bogus"), 0u);
    // Every synthesized target is clamped into [base, end): the
    // out-of-range guard must never have fired.
    EXPECT_EQ(pf.stats.counter("shadow.out_of_range_dropped"), 0u);
}

TEST(ShadowBtb, DoesNotOverwriteTrainedEntries)
{
    Rig rig;
    ShadowBtbPrefetcher pf(&rig.ftb, nullptr, rig.mem, rig.prog.get(), {});

    // The front-end already learned a (different) geometry for the
    // first block; shadow prefill must leave it alone.
    Addr base = rig.prog->base;
    rig.ftb.insert(base, 7, InstClass::CondBr, base + 0x100);
    pf.onDemandAccess(base, rig.missAccess(), 1);
    rig.drain(pf);

    EXPECT_GT(pf.stats.counter("shadow.already_known"), 0u);
    auto blk = rig.ftb.lookup(base);
    ASSERT_TRUE(blk.has_value());
    EXPECT_EQ(blk->numInsts, 7u);
    EXPECT_EQ(blk->target, base + 0x100);
}

TEST(ShadowBtb, RecentFilterAndQueueBoundTheScanner)
{
    Rig rig;
    ShadowBtbPrefetcher pf(&rig.ftb, nullptr, rig.mem, rig.prog.get(), {});

    Addr base = rig.prog->base;
    const std::size_t lines = ShadowBtbPrefetcher::kQueueEntries;
    for (std::size_t i = 0; i <= lines; ++i) // the last finds it full
        pf.onDemandAccess(base + 32 * i, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("shadow.queue_drops"), 1u);

    rig.drain(pf);
    pf.onDemandAccess(base, rig.missAccess(), 60); // already scanned
    EXPECT_EQ(pf.stats.counter("shadow.filtered"), 1u);
    EXPECT_EQ(pf.stats.counter("shadow.lines_scanned"), lines);
}

TEST(ShadowBtb, NoImageMeansNoScanning)
{
    Rig rig;
    ShadowBtbPrefetcher pf(&rig.ftb, nullptr, rig.mem, nullptr, {});
    pf.onDemandAccess(0x4000, rig.missAccess(), 1);
    EXPECT_EQ(pf.stats.counter("shadow.no_image"), 1u);
    EXPECT_EQ(pf.nextEventCycle(1), kNever);
    rig.drain(pf);
    EXPECT_EQ(pf.stats.counter("shadow.lines_scanned"), 0u);
}

TEST(ShadowBtb, QuiescenceContract)
{
    Rig rig;
    ShadowBtbPrefetcher pf(&rig.ftb, nullptr, rig.mem, rig.prog.get(), {});
    EXPECT_EQ(pf.nextEventCycle(5), kNever);
    pf.onDemandAccess(rig.prog->base, rig.missAccess(), 1);
    EXPECT_EQ(pf.nextEventCycle(5), Cycle(6));
    rig.drain(pf);
    EXPECT_EQ(pf.nextEventCycle(60), kNever);
}
