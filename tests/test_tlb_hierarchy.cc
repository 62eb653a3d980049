/**
 * Tests for the two-level TLB hierarchy and bounded page-walk
 * bandwidth (the vm/mmu.hh walk queue) and the decoupled FTQ TLB
 * prefetcher (vm/tlb_prefetcher.hh); the Tlb class itself is tested
 * under both level names in test_itlb.cc:
 *  - the L2-TLB hit ITLB-refill path,
 *  - demand walks queueing ahead of (and upgrading) prefetch walks at
 *    walker saturation, with exact demand completion times,
 *  - walk-id freshness for the prefetchers' live-polling contract,
 *  - translation lookahead warming the TLBs from the FTQ, and its
 *    cursor probing exactly what a full rescan of the FTQ probes.
 */

#include <gtest/gtest.h>

#include "common/fnv.hh"
#include "common/random.hh"
#include "common/recent_filter.hh"
#include "frontend/ftq.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "vm/mmu.hh"
#include "vm/tlb_prefetcher.hh"

using namespace fdip;

namespace
{

constexpr Addr kBase = 0x400000;
constexpr unsigned kPage = 4096;

VmConfig
hierVm(TlbPrefetchPolicy policy, unsigned l2_entries,
       unsigned num_walkers)
{
    VmConfig vm;
    vm.enable = true;
    vm.pageBytes = kPage;
    vm.itlbEntries = 8;
    vm.itlbAssoc = 2;
    vm.walkLatency = 30;
    vm.prefetchPolicy = policy;
    vm.mapping = PageMapKind::Identity;
    vm.l2TlbEntries = l2_entries;
    vm.l2TlbAssoc = l2_entries >= 4 ? 4 : l2_entries;
    vm.l2TlbLatency = 8;
    vm.numWalkers = num_walkers;
    return vm;
}

Addr
page(unsigned i)
{
    return kBase + Addr(i) * kPage;
}

/**
 * The TLB prefetcher's algorithm without a cursor: tick() and
 * nextEventCycle() rescan every block past the fetch point, every
 * time. TlbPrefetcher must probe exactly what this probes.
 */
class RescanTlbPrefetcher
{
  public:
    RescanTlbPrefetcher(const Ftq &ftq, Mmu &mmu,
                        const TlbPrefetcher::Config &cfg)
        : ftq(ftq), mmu(mmu), width(cfg.width), recent(cfg.filterEntries)
    {}

    void
    tick(Cycle now)
    {
        unsigned started = 0;
        for (std::size_t i = 1; i < ftq.size(); ++i) {
            for (unsigned k = 0; k < ftq.numCacheBlocks(i); ++k) {
                Addr vaddr = ftq.cacheBlockAddr(i, k);
                Addr vpn = mmu.pageTable().vpn(vaddr);
                if (recent.contains(vpn))
                    continue;
                recent.insert(vpn);
                ++probes;
                if (mmu.tlbPrefetchTranslate(vaddr, now).status ==
                    PfTranslation::Status::Ready) {
                    ++tlbHot;
                    continue;
                }
                ++requests;
                if (++started >= width)
                    return;
            }
        }
    }

    Cycle
    nextEventCycle(Cycle now) const
    {
        for (std::size_t i = 1; i < ftq.size(); ++i) {
            for (unsigned k = 0; k < ftq.numCacheBlocks(i); ++k) {
                Addr vpn = mmu.pageTable().vpn(ftq.cacheBlockAddr(i, k));
                if (!recent.contains(vpn))
                    return now + 1;
            }
        }
        return kNever;
    }

    std::uint64_t probes = 0;
    std::uint64_t tlbHot = 0;
    std::uint64_t requests = 0;

  private:
    const Ftq &ftq;
    Mmu &mmu;
    unsigned width;
    RecentFilter recent;
};

struct Differential
{
    /** First cycle the two prefetchers disagreed on; 0 if none. */
    Cycle firstMismatch = 0;
    /** Pages the reference probed. */
    std::uint64_t probes = 0;
};

/**
 * Drive a TlbPrefetcher and a RescanTlbPrefetcher, each on its own
 * FTQ and MMU, through one random sequence of pushes, pops and
 * flushes over twelve pages, comparing nextEventCycle() and the
 * tlbpf counters every cycle. Pops demand-translate the fetch point,
 * so the ITLB churns and probes find it both hot and cold.
 */
Differential
runDifferential(const VmConfig &vm, const TlbPrefetcher::Config &cfg,
                std::uint64_t seed, Cycle cycles)
{
    constexpr unsigned kPages = 12;
    Addr code_end = kBase + (kPages + 2) * vm.pageBytes;
    Mmu cur_mmu(vm, kBase, code_end);
    Mmu ref_mmu(vm, kBase, code_end);
    Ftq cur_ftq(8, 32);
    Ftq ref_ftq(8, 32);
    TlbPrefetcher cur(cur_ftq, cur_mmu, cfg);
    RescanTlbPrefetcher ref(ref_ftq, ref_mmu, cfg);
    Rng rng(seed);
    auto agree = [&](Cycle now) {
        return cur.nextEventCycle(now) == ref.nextEventCycle(now) &&
               cur.stats.counter("tlbpf.probes") == ref.probes &&
               cur.stats.counter("tlbpf.tlb_hot") == ref.tlbHot &&
               cur.stats.counter("tlbpf.requests") == ref.requests;
    };
    Differential d;
    for (Cycle now = 1; now <= cycles && d.firstMismatch == 0; ++now) {
        std::uint64_t op = rng.below(100);
        if (op < 45 && !cur_ftq.full()) {
            FetchBlock b;
            b.startPc = kBase + rng.below(kPages * vm.pageBytes / instBytes) *
                                    instBytes;
            b.numInsts = unsigned(rng.range(1, 16));
            b.validLen = b.numInsts;
            cur_ftq.push(b);
            ref_ftq.push(b);
        } else if (op < 85 && !cur_ftq.empty()) {
            Addr pc = cur_ftq.head().blk.startPc;
            cur_mmu.demandTranslate(pc, now);
            ref_mmu.demandTranslate(pc, now);
            cur_ftq.popHead();
            ref_ftq.popHead();
        } else if (op < 87) {
            cur_ftq.flush();
            ref_ftq.flush();
        }
        bool before = agree(now);
        cur.tick(now);
        ref.tick(now);
        cur_mmu.tick(now);
        ref_mmu.tick(now);
        if (!before || !agree(now))
            d.firstMismatch = now;
    }
    d.probes = ref.probes;
    return d;
}

} // namespace

TEST(MmuHierarchy, L2DisabledByDefault)
{
    VmConfig vm = hierVm(TlbPrefetchPolicy::Drop, 0, 0);
    Mmu mmu(vm, kBase, kBase + 16 * kPage);
    EXPECT_EQ(mmu.l2Tlb(), nullptr);
}

TEST(MmuHierarchy, DemandL2HitRefillsItlbWithoutAWalk)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Drop, 16, 0), kBase,
            kBase + 16 * kPage);
    ASSERT_NE(mmu.l2Tlb(), nullptr);
    mmu.l2Tlb()->insert(mmu.pageTable().vpn(page(0)));

    TlbAccess tr = mmu.demandTranslate(page(0), 100);
    EXPECT_FALSE(tr.hit);
    EXPECT_EQ(tr.readyAt, 108u); // 100 + 8-cycle L2 latency, not 130
    EXPECT_EQ(mmu.stats.counter("mmu.l2tlb_hit_fills"), 1u);
    EXPECT_EQ(mmu.stats.counter("mmu.walks"), 0u);
    EXPECT_EQ(mmu.l2Tlb()->stats.counter("l2tlb.hits"), 1u);

    mmu.tick(108);
    EXPECT_TRUE(mmu.tlbHolds(page(0)));
    TlbAccess retry = mmu.demandTranslate(page(0), 108);
    EXPECT_TRUE(retry.hit);
}

TEST(MmuHierarchy, DemandWalkFillsBothLevels)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Drop, 16, 0), kBase,
            kBase + 16 * kPage);
    TlbAccess tr = mmu.demandTranslate(page(1), 100);
    EXPECT_FALSE(tr.hit);
    EXPECT_EQ(tr.readyAt, 130u); // full walk: L2 missed too
    EXPECT_EQ(mmu.stats.counter("mmu.demand_walks"), 1u);
    EXPECT_EQ(mmu.l2Tlb()->stats.counter("l2tlb.misses"), 1u);

    mmu.tick(130);
    EXPECT_TRUE(mmu.tlbHolds(page(1)));
    EXPECT_TRUE(mmu.l2Tlb()->lookup(mmu.pageTable().vpn(page(1))));
}

TEST(MmuHierarchy, DropPolicyRidesTheL2ButNeverAWalk)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Drop, 16, 0), kBase,
            kBase + 16 * kPage);
    mmu.l2Tlb()->insert(mmu.pageTable().vpn(page(2)));

    // L2-resident page: a short refill, not a walk, so Drop proceeds.
    PfTranslation warm = mmu.prefetchTranslate(page(2), 100);
    EXPECT_EQ(warm.status, PfTranslation::Status::Walking);
    EXPECT_EQ(warm.readyAt, 108u);
    EXPECT_EQ(mmu.stats.counter("mmu.pf_l2tlb_hits"), 1u);
    // Drop never pollutes the ITLB.
    mmu.tick(108);
    EXPECT_FALSE(mmu.tlbHolds(page(2)));

    // Cold page: a full walk would be needed — dropped.
    PfTranslation cold = mmu.prefetchTranslate(page(3), 100);
    EXPECT_EQ(cold.status, PfTranslation::Status::Dropped);
    EXPECT_EQ(mmu.stats.counter("mmu.pf_dropped"), 1u);
}

TEST(MmuHierarchy, FillPolicyL2HitWarmsTheItlb)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Fill, 16, 0), kBase,
            kBase + 16 * kPage);
    mmu.l2Tlb()->insert(mmu.pageTable().vpn(page(4)));
    PfTranslation pf = mmu.prefetchTranslate(page(4), 100);
    EXPECT_EQ(pf.status, PfTranslation::Status::Walking);
    EXPECT_EQ(pf.readyAt, 108u);
    mmu.tick(108);
    EXPECT_TRUE(mmu.tlbHolds(page(4)));
}

TEST(MmuHierarchy, WaitPolicyWalkFillsNeitherLevel)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Wait, 16, 0), kBase,
            kBase + 16 * kPage);
    PfTranslation pf = mmu.prefetchTranslate(page(5), 100);
    EXPECT_EQ(pf.status, PfTranslation::Status::Walking);
    EXPECT_EQ(pf.readyAt, 130u);
    mmu.tick(130);
    EXPECT_FALSE(mmu.tlbHolds(page(5)));
    EXPECT_FALSE(mmu.l2Tlb()->lookup(mmu.pageTable().vpn(page(5))));
}

TEST(MmuWalkers, UnlimitedByDefaultRunsWalksConcurrently)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Wait, 0, 0), kBase,
            kBase + 16 * kPage);
    EXPECT_EQ(mmu.demandTranslate(page(0), 100).readyAt, 130u);
    EXPECT_EQ(mmu.demandTranslate(page(1), 100).readyAt, 130u);
    EXPECT_EQ(mmu.demandTranslate(page(2), 100).readyAt, 130u);
    EXPECT_EQ(mmu.walksQueued(), 0u);
}

TEST(MmuWalkers, DemandQueuesAheadOfQueuedPrefetchWalks)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Wait, 0, 1), kBase,
            kBase + 16 * kPage);

    // Walker saturated by a prefetch walk...
    PfTranslation a = mmu.prefetchTranslate(page(0), 100);
    EXPECT_EQ(a.readyAt, 130u);
    // ...a second prefetch walk queues with an unknown completion...
    PfTranslation b = mmu.prefetchTranslate(page(1), 101);
    EXPECT_EQ(b.readyAt, kNever);
    EXPECT_TRUE(mmu.walkPending(b.vpn, b.walkId));
    EXPECT_EQ(mmu.walkReadyCycle(b.vpn, b.walkId), kNever);
    // ...and a later demand walk jumps the queue with an exact time.
    TlbAccess c = mmu.demandTranslate(page(2), 102);
    EXPECT_FALSE(c.hit);
    EXPECT_EQ(c.readyAt, 160u); // starts at 130 when walk A completes
    EXPECT_EQ(mmu.walksQueued(), 2u);
    EXPECT_EQ(mmu.stats.counter("mmu.walks_queued"), 2u);

    // Walk A completes at 130: the demand starts, not prefetch B.
    mmu.tick(130);
    EXPECT_EQ(mmu.walksQueued(), 1u);
    EXPECT_EQ(mmu.walkReadyCycle(b.vpn, b.walkId), kNever);
    EXPECT_EQ(mmu.stats.counter("mmu.demand_queue_cycles"), 28u);

    // The demand completes at its promised cycle and fills the ITLB;
    // only then does prefetch B get the walker.
    mmu.tick(160);
    EXPECT_TRUE(mmu.tlbHolds(page(2)));
    EXPECT_EQ(mmu.walkReadyCycle(b.vpn, b.walkId), 190u);
    mmu.tick(190);
    EXPECT_FALSE(mmu.walkPending(b.vpn, b.walkId));
    // Queue-wait accounting: 28 (demand) + 59 (prefetch B, 101->160).
    EXPECT_EQ(mmu.stats.counter("mmu.walk_queue_cycles"), 87u);
}

TEST(MmuWalkers, DemandJoiningAQueuedPrefetchWalkUpgradesIt)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Wait, 0, 1), kBase,
            kBase + 16 * kPage);
    mmu.prefetchTranslate(page(0), 100);          // active walk
    PfTranslation b = mmu.prefetchTranslate(page(1), 101); // queued
    EXPECT_EQ(b.readyAt, kNever);

    TlbAccess demand = mmu.demandTranslate(page(1), 105);
    EXPECT_FALSE(demand.hit);
    EXPECT_EQ(demand.readyAt, 160u); // starts at 130, exact again
    EXPECT_EQ(mmu.stats.counter("mmu.walk_upgrades"), 1u);
    EXPECT_EQ(mmu.stats.counter("mmu.walk_merges"), 1u);

    mmu.tick(130);
    EXPECT_EQ(mmu.walkReadyCycle(b.vpn, b.walkId), 160u);
    mmu.tick(160);
    // The joining demand upgraded the Wait walk to fill the ITLB.
    EXPECT_TRUE(mmu.tlbHolds(page(1)));
    EXPECT_FALSE(mmu.walkPending(b.vpn, b.walkId));
}

TEST(MmuWalkers, QueuedDemandsServeFifoWithExactTimes)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Wait, 0, 2), kBase,
            kBase + 16 * kPage);
    EXPECT_EQ(mmu.demandTranslate(page(0), 100).readyAt, 130u);
    EXPECT_EQ(mmu.demandTranslate(page(1), 102).readyAt, 132u);
    // Both walkers busy: the third and fourth demands queue behind
    // the earliest completions, in order.
    EXPECT_EQ(mmu.demandTranslate(page(2), 104).readyAt, 160u);
    EXPECT_EQ(mmu.demandTranslate(page(3), 105).readyAt, 162u);
    for (Cycle c = 105; c <= 162; ++c)
        mmu.tick(c);
    EXPECT_TRUE(mmu.tlbHolds(page(2)));
    EXPECT_TRUE(mmu.tlbHolds(page(3)));
    EXPECT_EQ(mmu.walksInFlight(), 0u);
}

TEST(MmuWalkers, WalkIdsStayFreshAcrossReWalks)
{
    Mmu mmu(hierVm(TlbPrefetchPolicy::Wait, 0, 0), kBase,
            kBase + 16 * kPage);
    PfTranslation first = mmu.prefetchTranslate(page(0), 100);
    EXPECT_TRUE(mmu.walkPending(first.vpn, first.walkId));
    mmu.tick(130); // Wait policy: no fill, walk simply retires

    // A later walk for the same page gets a new id; the old handle
    // must read as completed, not as pending on the new walk.
    PfTranslation second = mmu.prefetchTranslate(page(0), 140);
    EXPECT_NE(second.walkId, first.walkId);
    EXPECT_FALSE(mmu.walkPending(first.vpn, first.walkId));
    EXPECT_EQ(mmu.walkReadyCycle(first.vpn, first.walkId), 0u);
    EXPECT_TRUE(mmu.walkPending(second.vpn, second.walkId));
}

TEST(TlbPrefetcher, WarmsFtqPagesPastTheFetchPoint)
{
    VmConfig vm = hierVm(TlbPrefetchPolicy::Drop, 0, 0);
    Mmu mmu(vm, kBase, kBase + 64 * kPage);
    Ftq ftq(8, 32);
    TlbPrefetcher pf(ftq, mmu, {/*width=*/2, /*filterEntries=*/16});

    // Nothing to scan: idle.
    EXPECT_EQ(pf.nextEventCycle(4), kNever);

    FetchBlock b;
    b.numInsts = 4;
    b.validLen = 4;
    for (unsigned i = 0; i < 3; ++i) {
        b.startPc = page(i); // one distinct page per entry
        ftq.push(b);
    }
    // Entry 0 is the fetch point; entries 1 and 2 are lookahead.
    EXPECT_EQ(pf.nextEventCycle(4), 5u);
    pf.tick(5);
    EXPECT_EQ(mmu.stats.counter("mmu.tlbpf_walks"), 2u);
    EXPECT_EQ(pf.stats.counter("tlbpf.probes"), 2u);
    EXPECT_EQ(pf.stats.counter("tlbpf.requests"), 2u);
    EXPECT_FALSE(mmu.tlbHolds(page(1)));

    // Probed pages are filtered: the prefetcher reaches a fixed point
    // (this is what keeps idle-cycle skipping exact).
    EXPECT_EQ(pf.nextEventCycle(5), kNever);
    pf.tick(6);
    EXPECT_EQ(pf.stats.counter("tlbpf.probes"), 2u);

    // The walks fill the ITLB ahead of the demand.
    mmu.tick(35);
    EXPECT_TRUE(mmu.tlbHolds(page(1)));
    EXPECT_TRUE(mmu.tlbHolds(page(2)));
}

TEST(TlbPrefetcher, L2ResidentPagesRefillInsteadOfWalking)
{
    VmConfig vm = hierVm(TlbPrefetchPolicy::Drop, 16, 0);
    Mmu mmu(vm, kBase, kBase + 64 * kPage);
    mmu.l2Tlb()->insert(mmu.pageTable().vpn(page(1)));
    Ftq ftq(8, 32);
    TlbPrefetcher pf(ftq, mmu, {2, 16});

    FetchBlock b;
    b.numInsts = 4;
    b.validLen = 4;
    b.startPc = page(0);
    ftq.push(b);
    b.startPc = page(1);
    ftq.push(b);

    pf.tick(5);
    EXPECT_EQ(mmu.stats.counter("mmu.tlbpf_walks"), 0u);
    EXPECT_EQ(pf.stats.counter("tlbpf.requests"), 1u);
    mmu.tick(13); // 5 + 8-cycle L2 refill
    EXPECT_TRUE(mmu.tlbHolds(page(1)));
}

TEST(TlbPrefetcher, CursorProbesWhatAFullRescanProbes)
{
    // Filters of 1-6 entries over twelve pages: probes evict, and an
    // eviction may re-expose a page the cursor has passed. Odd seeds
    // use pages of two cache blocks, so most entries span several
    // pages and a block the cursor skips in error changes a verdict.
    for (unsigned filter = 1; filter <= 6; ++filter) {
        for (unsigned width = 1; width <= 3; ++width) {
            for (unsigned l2 : {0u, 16u}) {
                for (unsigned walkers = 0; walkers <= 2; ++walkers) {
                    VmConfig vm =
                        hierVm(TlbPrefetchPolicy::Wait, l2, walkers);
                    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                        vm.pageBytes = seed % 2 != 0 ? 64 : kPage;
                        Differential d =
                            runDifferential(vm, {width, filter}, seed, 3000);
                        EXPECT_EQ(d.firstMismatch, 0u)
                            << "filter " << filter << " width " << width
                            << " l2 " << l2 << " walkers " << walkers
                            << " seed " << seed;
                        EXPECT_GT(d.probes, filter); // some evicted
                    }
                }
            }
        }
    }
}

TEST(TlbPrefetcher, SmallFilterMachineSkipsAsItTicks)
{
    // perfbench's walk_replay machine (vortex, scheme none, 16-entry
    // ITLB, 200-cycle walks), live rather than replayed, with core
    // 0's TLB prefetcher rebuilt around an 8-entry filter so that
    // probes evict and the cursor restarts. Skipping idle cycles must
    // not change a byte, and the digest and probe count are those of
    // the full-rescan prefetcher the cursor replaced.
    auto run = [](bool force_tick) {
        SimConfig cfg = makeBaselineConfig("vortex", PrefetchScheme::None);
        applyVmConfig(cfg, TlbPrefetchPolicy::Wait, PageMapKind::Scrambled,
                      /*itlb_entries=*/16);
        cfg.vm.walkLatency = 200;
        applyTlbHierarchy(cfg, /*l2_entries=*/0, /*num_walkers=*/0,
                          /*tlb_prefetch=*/true);
        cfg.warmupInsts = 10 * 1000;
        cfg.measureInsts = 60 * 1000;
        cfg.forceTick = force_tick;
        Simulator sim(cfg);
        Simulator::Core &c = sim.core(0);
        c.tlbPf = std::make_unique<TlbPrefetcher>(
            *c.ftq, *c.mmu,
            TlbPrefetcher::Config{.filterEntries = 8});
        return sim.run();
    };
    SimResults skipped = run(false);
    SimResults ticked = run(true);
    std::string text = serializeResults(skipped);
    EXPECT_EQ(text, serializeResults(ticked));
    EXPECT_EQ(skipped.stats.value("tlbpf.probes"), 113.0);
    EXPECT_EQ(fnv1aHash(text), 0x4e3632d07e8464b6ull)
        << std::hex << fnv1aHash(text);
}

TEST(TlbHierarchy, SimulatorRunsTranslatedWithHierarchyAndPrefetch)
{
    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
    cfg.warmupInsts = 5 * 1000;
    cfg.measureInsts = 20 * 1000;
    applyVmConfig(cfg, TlbPrefetchPolicy::Wait, PageMapKind::Scrambled,
                  /*itlb_entries=*/8);
    applyTlbHierarchy(cfg, /*l2_entries=*/64, /*num_walkers=*/1,
                      /*tlb_prefetch=*/true);
    SimResults r = simulate(cfg);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.stats.value("tlbpf.probes"), 0.0);
    EXPECT_GT(r.stats.value("l2tlb.accesses"), 0.0);
    EXPECT_GT(r.stats.value("mmu.walks"), 0.0);
}

TEST(TlbHierarchy, MoreWalkersAndBiggerL2NeverSlowTheMachine)
{
    // Monotonicity smoke: widening either hierarchy axis must not
    // lose IPC (the full sweep is R-X16).
    auto run = [](unsigned l2, unsigned walkers) {
        SimConfig cfg =
            makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
        cfg.warmupInsts = 5 * 1000;
        cfg.measureInsts = 20 * 1000;
        applyVmConfig(cfg, TlbPrefetchPolicy::Wait,
                      PageMapKind::Scrambled, /*itlb_entries=*/8);
        cfg.vm.walkLatency = 60;
        applyTlbHierarchy(cfg, l2, walkers);
        return simulate(cfg).ipc;
    };
    EXPECT_LE(run(0, 1), run(256, 1) * 1.0001);
    EXPECT_LE(run(64, 1), run(64, 0) * 1.0001);
}

TEST(TlbHierarchyDeath, ZeroL2LatencyRejectedByTheMmu)
{
    VmConfig vm = hierVm(TlbPrefetchPolicy::Drop, 16, 0);
    vm.l2TlbLatency = 0;
    EXPECT_DEATH({ Mmu mmu(vm, kBase, kBase + 16 * kPage); }, "latency");
}

TEST(TlbHierarchyDeath, BadKnobsRejected)
{
    // Each bad geometry dies naming the component that rejects it.
    // Every simulation builds the page table, the ITLB and (when it
    // has entries) the L2 TLB, so their own checks guard every run.
    struct Case
    {
        const char *error;
        void (*spoil)(VmConfig &);
    };
    const Case cases[] = {
        {"page size must be a power of two",
         [](VmConfig &vm) { vm.pageBytes = 3000; }},
        {"[Ii][Tt][Ll][Bb]:? needs at least one entry",
         [](VmConfig &vm) { vm.itlbEntries = 0; }},
        {"[Ii][Tt][Ll][Bb]:? entries must divide evenly into ways",
         [](VmConfig &vm) {
             vm.itlbEntries = 8;
             vm.itlbAssoc = 3;
         }},
        {"[Ii][Tt][Ll][Bb]:? set count must be a power of two",
         [](VmConfig &vm) {
             vm.itlbEntries = 48;
             vm.itlbAssoc = 4; // 12 sets
         }},
        {"(L2 TLB|l2tlb:) set count must be a power of two",
         [](VmConfig &vm) {
             vm.l2TlbEntries = 24;
             vm.l2TlbAssoc = 2; // 12 sets
         }},
        {"(L2 TLB|l2tlb:) entries must divide evenly into ways",
         [](VmConfig &vm) {
             vm.l2TlbEntries = 24;
             vm.l2TlbAssoc = 5;
         }},
        {"L2 TLB hit latency must be nonzero",
         [](VmConfig &vm) {
             vm.l2TlbEntries = 16;
             vm.l2TlbAssoc = 4;
             vm.l2TlbLatency = 0;
         }},
        {"L2 TLB hit latency must beat a full page walk",
         [](VmConfig &vm) {
             vm.l2TlbEntries = 16;
             vm.l2TlbAssoc = 4;
             vm.l2TlbLatency = vm.walkLatency;
         }},
    };
    for (const Case &c : cases) {
        SimConfig cfg = makeBaselineConfig("li", PrefetchScheme::None);
        applyVmConfig(cfg);
        c.spoil(cfg.vm);
        EXPECT_DEATH({ Simulator s(cfg); }, c.error);
    }

    VmConfig vm = hierVm(TlbPrefetchPolicy::Drop, 0, 0);
    Mmu mmu(vm, kBase, kBase + 16 * kPage);
    Ftq ftq(8, 32);
    EXPECT_DEATH({ TlbPrefetcher pf(ftq, mmu, {.width = 0}); },
                 "TLB-prefetch width must be nonzero");
}
