/**
 * Contract tests for the quiescence protocol: every ticked component's
 * nextEventCycle(now)
 *   - returns kNever when the component is idle,
 *   - returns the pending ready/completion cycle when one is in
 *     flight,
 *   - never returns a cycle <= now.
 */

#include <gtest/gtest.h>

#include "core/backend.hh"
#include "frontend/fetch_engine.hh"
#include "frontend/ftq.hh"
#include "mem/hierarchy.hh"
#include "prefetch/fdp.hh"
#include "prefetch/nlp.hh"
#include "sim/presets.hh"
#include "sim/simulator.hh"
#include "vm/mmu.hh"
#include "vm/tlb_prefetcher.hh"

using namespace fdip;

namespace
{

MemConfig
smallMemCfg()
{
    MemConfig c;
    c.l1i.sizeBytes = 4096;
    c.l2.sizeBytes = 64 * 1024;
    return c;
}

VmConfig
smallVmCfg()
{
    VmConfig c;
    c.enable = true;
    c.itlbEntries = 4;
    c.itlbAssoc = 4;
    c.walkLatency = 25;
    return c;
}

} // namespace

TEST(NextEvent, MemHierarchyIdleIsNever)
{
    MemHierarchy mem(smallMemCfg());
    mem.tick(1);
    EXPECT_EQ(mem.nextEventCycle(1), kNever);
}

TEST(NextEvent, MemHierarchyReportsPendingFill)
{
    MemHierarchy mem(smallMemCfg());
    Cycle now = 1;
    mem.tick(now);
    ASSERT_TRUE(mem.reserveTagPort());
    FetchAccess acc = mem.demandFetch(0x1000, now);
    ASSERT_FALSE(acc.hitL1);
    ASSERT_NE(acc.readyAt, neverCycle);
    // A DRAM fill has two bus legs; the memory bus frees before the
    // fill lands, so the event is in (now, readyAt].
    EXPECT_GT(mem.nextEventCycle(now), now);
    EXPECT_LE(mem.nextEventCycle(now), acc.readyAt);

    // Completing the fill returns the hierarchy to quiescence.
    mem.tick(acc.readyAt);
    EXPECT_EQ(mem.nextEventCycle(acc.readyAt), kNever);
}

TEST(NextEvent, MemHierarchyL2HitFillIsExactReadyCycle)
{
    // Evict 0x1000 from the 2-way L1 set with two same-set fills, then
    // re-fetch it: an L2 hit whose only leg is the L1<->L2 bus, so the
    // MSHR ready time IS the next event.
    MemHierarchy mem(smallMemCfg());
    Cycle now = 1;
    std::uint64_t set_stride =
        smallMemCfg().l1i.sizeBytes / smallMemCfg().l1i.assoc;
    for (Addr a : {Addr(0x1000), Addr(0x1000) + set_stride,
                   Addr(0x1000) + 2 * set_stride}) {
        mem.tick(now);
        ASSERT_TRUE(mem.reserveTagPort());
        FetchAccess acc = mem.demandFetch(a, now);
        ASSERT_FALSE(acc.hitL1);
        now = acc.readyAt;
        mem.tick(now);
    }
    ASSERT_TRUE(mem.reserveTagPort());
    FetchAccess acc = mem.demandFetch(0x1000, now);
    ASSERT_FALSE(acc.hitL1);
    EXPECT_EQ(mem.nextEventCycle(now), acc.readyAt);
}

TEST(NextEvent, MemHierarchyNeverAtOrBeforeNow)
{
    MemHierarchy mem(smallMemCfg());
    Cycle now = 1;
    mem.tick(now);
    ASSERT_TRUE(mem.reserveTagPort());
    FetchAccess acc = mem.demandFetch(0x2000, now);
    // Even when probed *past* the fill's ready time without a tick,
    // the protocol clamps to the future.
    EXPECT_GT(mem.nextEventCycle(acc.readyAt + 10), acc.readyAt + 10);
}

TEST(NextEvent, MmuIdleAndPendingWalk)
{
    Mmu mmu(smallVmCfg(), /*code_base=*/0x1000, /*code_end=*/0x40000);
    EXPECT_EQ(mmu.nextEventCycle(5), kNever);

    TlbAccess tr = mmu.demandTranslate(0x1000, 5);
    ASSERT_FALSE(tr.hit);
    EXPECT_EQ(mmu.nextEventCycle(5), tr.readyAt);
    EXPECT_GT(mmu.nextEventCycle(5), 5u);

    mmu.tick(tr.readyAt);
    EXPECT_EQ(mmu.nextEventCycle(tr.readyAt), kNever);
}

TEST(NextEvent, MmuDisabledIsNever)
{
    VmConfig off;
    off.enable = false;
    Mmu mmu(off, 0x1000, 0x40000);
    EXPECT_EQ(mmu.nextEventCycle(0), kNever);
}

TEST(NextEvent, MmuQueuedWalkIsCoveredByTheActiveCompletion)
{
    // A queued walk has no known completion, so it must not need an
    // event of its own: the active walk's completion (at which the
    // queued walk starts) is the reported event, and after that tick
    // the now-active walk reports its own completion.
    VmConfig vcfg = smallVmCfg();
    vcfg.prefetchPolicy = TlbPrefetchPolicy::Wait;
    vcfg.numWalkers = 1;
    Mmu mmu(vcfg, /*code_base=*/0x1000, /*code_end=*/0x40000);

    PfTranslation active = mmu.prefetchTranslate(0x1000, 5);
    ASSERT_EQ(active.status, PfTranslation::Status::Walking);
    PfTranslation queued = mmu.prefetchTranslate(0x1000 + 4096, 6);
    ASSERT_EQ(queued.status, PfTranslation::Status::Walking);
    ASSERT_EQ(queued.readyAt, kNever);
    EXPECT_EQ(mmu.walksQueued(), 1u);

    // Only the active walk's completion is the next event.
    EXPECT_EQ(mmu.nextEventCycle(6), active.readyAt);

    // Ticking at that event starts the queued walk, whose completion
    // becomes the new next event.
    mmu.tick(active.readyAt);
    EXPECT_EQ(mmu.walksQueued(), 0u);
    EXPECT_EQ(mmu.nextEventCycle(active.readyAt),
              active.readyAt + vcfg.walkLatency);
    EXPECT_EQ(mmu.walkReadyCycle(queued.vpn, queued.walkId),
              active.readyAt + vcfg.walkLatency);

    mmu.tick(active.readyAt + vcfg.walkLatency);
    EXPECT_EQ(mmu.nextEventCycle(active.readyAt + vcfg.walkLatency),
              kNever);
}

TEST(NextEvent, MmuL2RefillReportsItsCompletion)
{
    VmConfig vcfg = smallVmCfg();
    vcfg.l2TlbEntries = 16;
    vcfg.l2TlbAssoc = 4;
    vcfg.l2TlbLatency = 6;
    Mmu mmu(vcfg, /*code_base=*/0x1000, /*code_end=*/0x40000);
    ASSERT_NE(mmu.l2Tlb(), nullptr);
    mmu.l2Tlb()->insert(mmu.pageTable().vpn(0x1000));

    TlbAccess tr = mmu.demandTranslate(0x1000, 9);
    ASSERT_FALSE(tr.hit);
    ASSERT_EQ(tr.readyAt, 15u); // 9 + 6-cycle refill
    EXPECT_EQ(mmu.nextEventCycle(9), tr.readyAt);
    mmu.tick(tr.readyAt);
    EXPECT_EQ(mmu.nextEventCycle(tr.readyAt), kNever);
}

TEST(NextEvent, BackendStates)
{
    Backend be({.retireWidth = 4, .queueDepth = 8});
    // Drained: only a delivery can wake it.
    EXPECT_EQ(be.nextEventCycle(3), kNever);

    // Correct-path head: retires next cycle.
    be.deliver({.seq = 1, .wrongPath = false});
    EXPECT_EQ(be.nextEventCycle(3), 4u);

    // Wrong-path head: blocked until a redirect squashes it.
    Backend be2({.retireWidth = 4, .queueDepth = 8});
    be2.deliver({.seq = 0, .wrongPath = true});
    EXPECT_EQ(be2.nextEventCycle(3), kNever);
}

TEST(NextEvent, BackendIdleChargeMatchesTicking)
{
    Backend ticked({.retireWidth = 4, .queueDepth = 8});
    Backend charged({.retireWidth = 4, .queueDepth = 8});
    for (Cycle c = 1; c <= 7; ++c)
        ticked.tick(c);
    charged.chargeIdleCycles(0, 7);
    EXPECT_EQ(ticked.stats.dump(), charged.stats.dump());
}

TEST(NextEvent, FtqAndBpuArePassive)
{
    Ftq ftq(8, 32);
    EXPECT_EQ(ftq.nextEventCycle(0), kNever);
    EXPECT_EQ(ftq.nextEventCycle(12345), kNever);

    SimConfig cfg = makeBaselineConfig("li", PrefetchScheme::None);
    Simulator sim(cfg);
    EXPECT_EQ(sim.bpu().nextEventCycle(sim.now()), kNever);
}

TEST(NextEvent, FetchEngineBlockedVsActing)
{
    MemConfig mcfg = smallMemCfg();
    MemHierarchy mem(mcfg);
    Ftq ftq(8, 32);
    Backend backend({.retireWidth = 4, .queueDepth = 8});
    FetchEngine fetch(ftq, mem, backend, {});

    // Empty FTQ: fetch can only be woken by a BPU push.
    EXPECT_EQ(fetch.nextEventCycle(1), kNever);

    FetchBlock b;
    b.startPc = 0x1000;
    b.numInsts = 4;
    b.validLen = 4;
    ftq.push(b);
    // Work available and backend space: fetch acts next cycle.
    EXPECT_EQ(fetch.nextEventCycle(1), 2u);

    // Full backend of wrong-path slots: blocked again.
    for (int i = 0; i < 8; ++i)
        backend.deliver({.seq = 0, .wrongPath = true});
    EXPECT_EQ(fetch.nextEventCycle(1), kNever);
}

TEST(NextEvent, FetchEngineReportsStallExpiry)
{
    MemConfig mcfg = smallMemCfg();
    MemHierarchy mem(mcfg);
    Ftq ftq(8, 32);
    Backend backend({.retireWidth = 4, .queueDepth = 32});
    FetchEngine fetch(ftq, mem, backend, {});

    FetchBlock b;
    b.startPc = 0x1000;
    b.numInsts = 4;
    b.validLen = 4;
    ftq.push(b);

    // Cold caches: the first fetch misses and stalls until the fill.
    // A mirror hierarchy reproduces the fill's deterministic ready
    // time so we can assert the stall expiry exactly.
    MemHierarchy mirror(mcfg);
    Cycle now = 1;
    mem.tick(now);
    mirror.tick(now);
    fetch.tick(now);
    ASSERT_TRUE(mirror.reserveTagPort());
    FetchAccess acc = mirror.demandFetch(0x1000, now);
    ASSERT_FALSE(acc.hitL1);
    EXPECT_EQ(fetch.nextEventCycle(now), acc.readyAt);
    EXPECT_GT(fetch.nextEventCycle(now), now);
}

TEST(NextEvent, PrefetcherDefaultsAndNlp)
{
    MemConfig mcfg = smallMemCfg();
    MemHierarchy mem(mcfg);
    NlpPrefetcher nlp(mem, {});
    // Nothing pending: idle.
    EXPECT_EQ(nlp.nextEventCycle(7), kNever);

    // A true miss queues next-line candidates: acts next cycle.
    FetchAccess miss;
    miss.hitL1 = false;
    nlp.onDemandAccess(0x1000, miss, 7);
    EXPECT_EQ(nlp.nextEventCycle(7), 8u);
}

TEST(NextEvent, FdpIdleWithEmptyFtq)
{
    MemConfig mcfg = smallMemCfg();
    MemHierarchy mem(mcfg);
    Ftq ftq(8, 32);
    FdpPrefetcher fdp(ftq, mem, CpfMode::Remove, {});
    EXPECT_EQ(fdp.nextEventCycle(3), kNever);

    // Entry 0 is the fetch point — never scanned — so one entry keeps
    // the FDP idle; a second gives it candidates to scan.
    FetchBlock b;
    b.startPc = 0x1000;
    b.numInsts = 4;
    b.validLen = 4;
    ftq.push(b);
    EXPECT_EQ(fdp.nextEventCycle(3), kNever);
    b.startPc = 0x2000;
    ftq.push(b);
    EXPECT_EQ(fdp.nextEventCycle(3), 4u);
}

TEST(NextEvent, WaitPolicyHeadOfLineReportsWalkCompletion)
{
    // An NLP candidate under the Wait policy parks on its page walk;
    // the prefetcher must report the walk completion as its event.
    MemConfig mcfg = smallMemCfg();
    MemHierarchy mem(mcfg);
    VmConfig vcfg = smallVmCfg();
    vcfg.prefetchPolicy = TlbPrefetchPolicy::Wait;
    Mmu mmu(vcfg, 0x0, 0x100000);
    NlpPrefetcher nlp(mem, {});
    nlp.setMmu(&mmu);

    FetchAccess miss;
    miss.hitL1 = false;
    Cycle now = 9;
    nlp.onDemandAccess(0x4000, miss, now);
    nlp.tick(now); // translates the head; ITLB is cold, walk starts
    Cycle ev = nlp.nextEventCycle(now);
    EXPECT_EQ(ev, now + vcfg.walkLatency);
    EXPECT_GT(ev, now);

    // Charging a quiescent window counts what ticking through it
    // would: one head-of-line wait per cycle while the walk pends.
    EXPECT_EQ(nlp.stats.counter("nlp.tlb_wait_stalls"), 1u);
    nlp.chargeIdleCycles(now, 5);
    EXPECT_EQ(nlp.stats.counter("nlp.tlb_wait_stalls"), 6u);
    for (Cycle c = now + 1; c <= now + 5; ++c)
        nlp.tick(c); // the MMU is not ticked: the walk stays pending
    EXPECT_EQ(nlp.stats.counter("nlp.tlb_wait_stalls"), 11u);
}

TEST(NextEvent, SharedMemIdleIsNeverAndBusyReportsBusRelease)
{
    // The shared L2/buses/DRAM block is passive when no transfer is
    // scheduled; a transfer makes its release the next event.
    MemConfig mcfg = smallMemCfg();
    SharedMem shared(mcfg);
    EXPECT_EQ(shared.nextEventCycle(1), kNever);

    Cycle done = shared.memBus.transfer(5, mcfg.l2.blockBytes);
    ASSERT_GT(done, 5u);
    EXPECT_EQ(shared.nextEventCycle(5), shared.memBus.freeAtCycle());
    EXPECT_GT(shared.nextEventCycle(5), 5u);
    // Probed at/after the release, the event has passed: idle again.
    EXPECT_EQ(shared.nextEventCycle(shared.memBus.freeAtCycle()),
              kNever);
}

TEST(NextEvent, MultiCoreHierarchiesShareQuiescence)
{
    // Two per-core hierarchies on one SharedMem. Core 1's fill is
    // core 1's event; core 0 (nothing in flight) may conservatively
    // report the shared-bus release but must never report a cycle at
    // or before now — and both go quiescent once the fill lands.
    MemConfig mcfg = smallMemCfg();
    SharedMem shared(mcfg);
    MemHierarchy c0(mcfg, shared, /*core_id=*/0, /*num_cores=*/2);
    MemHierarchy c1(mcfg, shared, /*core_id=*/1, /*num_cores=*/2);

    Cycle now = 1;
    c0.tick(now);
    c1.tick(now);
    EXPECT_EQ(c0.nextEventCycle(now), kNever);
    EXPECT_EQ(c1.nextEventCycle(now), kNever);

    ASSERT_TRUE(c1.reserveTagPort());
    FetchAccess acc = c1.demandFetch(0x1000, now);
    ASSERT_FALSE(acc.hitL1);
    ASSERT_NE(acc.readyAt, neverCycle);
    EXPECT_GT(c1.nextEventCycle(now), now);
    EXPECT_LE(c1.nextEventCycle(now), acc.readyAt);
    EXPECT_GT(c0.nextEventCycle(now), now);

    c0.tick(acc.readyAt);
    c1.tick(acc.readyAt);
    EXPECT_EQ(c1.nextEventCycle(acc.readyAt), kNever);
    EXPECT_EQ(c0.nextEventCycle(acc.readyAt), kNever);
}

TEST(NextEvent, MultiCoreRequestsAreDistinctLinesInTheSharedL2)
{
    // Private address spaces: the same block number fetched by two
    // cores must MISS separately in the shared L2 (per-core request
    // tagging), not constructively share a line.
    MemConfig mcfg = smallMemCfg();
    SharedMem shared(mcfg);
    MemHierarchy c0(mcfg, shared, 0, 2);
    MemHierarchy c1(mcfg, shared, 1, 2);

    Cycle now = 1;
    c0.tick(now);
    c1.tick(now);
    ASSERT_TRUE(c0.reserveTagPort());
    FetchAccess a0 = c0.demandFetch(0x1000, now);
    ASSERT_FALSE(a0.hitL1);

    // Land core 0's fill (DRAM -> L2 -> L1), then fetch the same
    // block number on core 1: its tagged address is a different L2
    // line, so it must go to DRAM, not hit core 0's line.
    now = a0.readyAt;
    c0.tick(now);
    c1.tick(now);
    ASSERT_TRUE(c1.reserveTagPort());
    FetchAccess a1 = c1.demandFetch(0x1000, now);
    ASSERT_FALSE(a1.hitL1);
    EXPECT_GE(a1.readyAt - now, mcfg.dramLatency)
        << "core 1 constructively hit core 0's L2 line";
}

TEST(NextEvent, MultiCoreWholeMachinePropertyNeverAtOrBeforeNow)
{
    // The aggregated protocol: on a ticked 2-core machine every
    // component of EVERY core honours the strictly-future contract,
    // and the shared memory block does too.
    SimConfig cfg = makeBaselineConfig("li", PrefetchScheme::FdpRemove);
    applyMultiCore(cfg, 2);
    cfg.mem.l2.sizeBytes = 128 * 1024;
    cfg.forceTick = true;
    Simulator sim(cfg);
    for (int i = 0; i < 2000; ++i) {
        sim.step();
        Cycle now = sim.now();
        EXPECT_GT(sim.sharedMem().nextEventCycle(now), now);
        for (std::size_t c = 0; c < sim.numCores(); ++c) {
            EXPECT_GT(sim.mem(c).nextEventCycle(now), now);
            EXPECT_GT(sim.backend(c).nextEventCycle(now), now);
            EXPECT_GT(sim.fetchEngine(c).nextEventCycle(now), now);
            EXPECT_GT(sim.ftq(c).nextEventCycle(now), now);
            EXPECT_GT(sim.bpu(c).nextEventCycle(now), now);
            for (const auto &pf : sim.core(c).prefetchers)
                EXPECT_GT(pf->nextEventCycle(now), now);
        }
    }
}

TEST(NextEvent, WholeMachinePropertyNeverAtOrBeforeNow)
{
    // Step a few real machines (forced per-cycle ticking so the walk
    // is exhaustive) and check the contract for every component at
    // every cycle.
    for (const char *wl : {"li", "gcc"}) {
        SimConfig cfg = makeBaselineConfig(wl, PrefetchScheme::FdpRemove);
        applyVmConfig(cfg, TlbPrefetchPolicy::Wait,
                      PageMapKind::Scrambled, /*itlb_entries=*/16);
        // The second workload runs the full hierarchy: L2 TLB,
        // bounded walkers, and the FTQ TLB prefetcher.
        if (std::string(wl) == "gcc")
            applyTlbHierarchy(cfg, /*l2_entries=*/64,
                              /*num_walkers=*/1, /*tlb_prefetch=*/true);
        cfg.forceTick = true;
        Simulator sim(cfg);
        for (int i = 0; i < 3000; ++i) {
            sim.step();
            Cycle now = sim.now();
            EXPECT_GT(sim.mem().nextEventCycle(now), now);
            EXPECT_GT(sim.mmu().nextEventCycle(now), now);
            EXPECT_GT(sim.backend().nextEventCycle(now), now);
            EXPECT_GT(sim.fetchEngine().nextEventCycle(now), now);
            EXPECT_GT(sim.ftq().nextEventCycle(now), now);
            EXPECT_GT(sim.bpu().nextEventCycle(now), now);
            if (sim.tlbPrefetcher() != nullptr) {
                EXPECT_GT(sim.tlbPrefetcher()->nextEventCycle(now), now);
            }
            for (std::size_t p = 0; p < sim.numPrefetchers(); ++p)
                EXPECT_GT(sim.prefetcher(p).nextEventCycle(now), now);
        }
    }
}
