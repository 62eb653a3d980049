/** Tests for the virtual-memory subsystem: page table, TLBs, MMU. */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "vm/mmu.hh"

#include "test_helpers.hh"

using namespace fdip;

namespace
{

constexpr Addr kBase = 0x400000;
constexpr unsigned kPage = 4096;

VmConfig
smallVm(TlbPrefetchPolicy policy = TlbPrefetchPolicy::Drop,
        PageMapKind mapping = PageMapKind::Identity)
{
    VmConfig vm;
    vm.enable = true;
    vm.pageBytes = kPage;
    vm.itlbEntries = 8;
    vm.itlbAssoc = 2;
    vm.walkLatency = 30;
    vm.prefetchPolicy = policy;
    vm.mapping = mapping;
    return vm;
}

} // namespace

TEST(PageTable, IdentityMapsEverythingToItself)
{
    PageTable pt(kBase, kBase + 16 * kPage, kPage,
                 PageMapKind::Identity, 1);
    EXPECT_EQ(pt.numPages(), 16u);
    for (Addr a : {kBase, kBase + 123u * instBytes, kBase + 15 * kPage})
        EXPECT_EQ(pt.translate(a), a);
}

TEST(PageTable, ScrambledIsABijectionOverTheCodeFrames)
{
    PageTable pt(kBase, kBase + 64 * kPage, kPage,
                 PageMapKind::Scrambled, 7);
    std::set<Addr> seen;
    bool moved_any = false;
    for (std::size_t i = 0; i < pt.numPages(); ++i) {
        Addr v = kBase + Addr(i) * kPage;
        Addr p = pt.translate(v);
        // Frames stay inside the code's own page pool.
        EXPECT_GE(p, kBase);
        EXPECT_LT(p, kBase + 64 * kPage);
        EXPECT_EQ(p % kPage, 0u);
        seen.insert(p);
        moved_any |= p != v;
    }
    EXPECT_EQ(seen.size(), pt.numPages()); // no two pages collide
    EXPECT_TRUE(moved_any);
}

TEST(PageTable, ScrambledPreservesPageOffsets)
{
    PageTable pt(kBase, kBase + 8 * kPage, kPage,
                 PageMapKind::Scrambled, 3);
    Addr v = kBase + 2 * kPage + 0x64;
    EXPECT_EQ(pt.translate(v) % kPage, 0x64u);
}

TEST(PageTable, OutOfRangePagesIdentityMapped)
{
    PageTable pt(kBase, kBase + 4 * kPage, kPage,
                 PageMapKind::Scrambled, 9);
    Addr past = kBase + 10 * kPage + 0x40; // wrong-path runoff
    EXPECT_EQ(pt.translate(past), past);
    EXPECT_EQ(pt.translate(0x1000u), 0x1000u);
}

TEST(PageTable, DeterministicForAGivenSeed)
{
    PageTable a(kBase, kBase + 32 * kPage, kPage,
                PageMapKind::Scrambled, 42);
    PageTable b(kBase, kBase + 32 * kPage, kPage,
                PageMapKind::Scrambled, 42);
    for (std::size_t i = 0; i < a.numPages(); ++i) {
        Addr v = kBase + Addr(i) * kPage;
        EXPECT_EQ(a.translate(v), b.translate(v));
    }
}

/**
 * The ITLB and the L2 TLB are one class, Tlb; every case runs under
 * both names, which prefix the stats and label geometry errors.
 */
class TlbLevel : public ::testing::TestWithParam<const char *>
{
  protected:
    Tlb
    make(unsigned entries, unsigned assoc) const
    {
        return Tlb(GetParam(), {entries, assoc});
    }

    std::string
    stat(const char *counter) const
    {
        return std::string(GetParam()) + "." + counter;
    }
};

using TlbLevelDeathTest = TlbLevel;

TEST_P(TlbLevel, GeometryDerived)
{
    Tlb tlb = make(8, 2);
    EXPECT_EQ(tlb.numEntries(), 8u);
    EXPECT_EQ(tlb.numSets(), 4u);
    EXPECT_EQ(tlb.validEntries(), 0u);
}

TEST_P(TlbLevel, MissFillHit)
{
    Tlb tlb = make(8, 2);
    EXPECT_FALSE(tlb.access(5));
    tlb.insert(5);
    EXPECT_TRUE(tlb.access(5));
    EXPECT_EQ(tlb.stats.counter(stat("accesses")), 2u);
    EXPECT_EQ(tlb.stats.counter(stat("misses")), 1u);
    EXPECT_EQ(tlb.stats.counter(stat("hits")), 1u);
    EXPECT_EQ(tlb.stats.counter(stat("fills")), 1u);
}

TEST_P(TlbLevel, LookupHasNoSideEffects)
{
    Tlb tlb = make(8, 2);
    tlb.insert(5);
    std::uint64_t accesses = tlb.stats.counter(stat("accesses"));
    EXPECT_TRUE(tlb.lookup(5));
    EXPECT_FALSE(tlb.lookup(6));
    EXPECT_EQ(tlb.stats.counter(stat("accesses")), accesses);
}

TEST_P(TlbLevel, LruEvictionWithinSet)
{
    Tlb tlb = make(8, 2); // 4 sets x 2 ways; same set stride = 4
    tlb.insert(0);
    tlb.insert(4);
    EXPECT_TRUE(tlb.access(0)); // 0 is MRU, 4 is LRU
    tlb.insert(8);              // evicts 4
    EXPECT_TRUE(tlb.lookup(0));
    EXPECT_FALSE(tlb.lookup(4));
    EXPECT_TRUE(tlb.lookup(8));
    EXPECT_EQ(tlb.stats.counter(stat("evictions")), 1u);
}

TEST_P(TlbLevel, ReinsertRefreshesInsteadOfDuplicating)
{
    Tlb tlb = make(8, 2);
    tlb.insert(0);
    tlb.insert(0);
    EXPECT_EQ(tlb.validEntries(), 1u);
    EXPECT_EQ(tlb.stats.counter(stat("fills")), 1u);
}

TEST_P(TlbLevelDeathTest, BadGeometryRejected)
{
    std::string name = GetParam();
    EXPECT_DEATH({ make(0, 1); }, name + ": needs at least one entry");
    EXPECT_DEATH({ make(8, 3); }, name + ": .*divide evenly");
    EXPECT_DEATH({ make(24, 2); }, name + ": .*power of two");
}

INSTANTIATE_TEST_SUITE_P(Names, TlbLevel,
                         ::testing::Values("itlb", "l2tlb"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });
INSTANTIATE_TEST_SUITE_P(Names, TlbLevelDeathTest,
                         ::testing::Values("itlb", "l2tlb"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

TEST(Mmu, DisabledIsAZeroCostPassthrough)
{
    VmConfig vm; // enable = false
    Mmu mmu(vm, kBase, kBase + 4 * kPage);
    TlbAccess tr = mmu.demandTranslate(kBase + 0x10, 100);
    EXPECT_TRUE(tr.hit);
    EXPECT_EQ(tr.paddr, kBase + 0x10);
    EXPECT_EQ(tr.readyAt, 100u);
    PfTranslation pf = mmu.prefetchTranslate(kBase + 0x20, 100);
    EXPECT_EQ(pf.status, PfTranslation::Status::Ready);
    EXPECT_EQ(pf.paddr, kBase + 0x20);
}

TEST(Mmu, DemandMissChargesWalkLatencyThenHits)
{
    Mmu mmu(smallVm(), kBase, kBase + 4 * kPage);
    TlbAccess miss = mmu.demandTranslate(kBase, 100);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.readyAt, 130u); // 100 + 30-cycle walk
    EXPECT_EQ(mmu.walksInFlight(), 1u);

    mmu.tick(129);
    EXPECT_EQ(mmu.walksInFlight(), 1u); // not done yet
    mmu.tick(130);
    EXPECT_EQ(mmu.walksInFlight(), 0u);

    TlbAccess hit = mmu.demandTranslate(kBase, 130);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.readyAt, 130u);
    EXPECT_EQ(mmu.stats.counter("mmu.walks"), 1u);
    EXPECT_EQ(mmu.stats.counter("mmu.demand_walks"), 1u);
}

TEST(Mmu, ConcurrentWalksForOnePageMerge)
{
    Mmu mmu(smallVm(), kBase, kBase + 4 * kPage);
    TlbAccess a = mmu.demandTranslate(kBase, 100);
    TlbAccess b = mmu.demandTranslate(kBase + 0x40, 105); // same page
    EXPECT_EQ(a.readyAt, b.readyAt); // joined the in-flight walk
    EXPECT_EQ(mmu.stats.counter("mmu.walks"), 1u);
    EXPECT_EQ(mmu.stats.counter("mmu.walk_merges"), 1u);
}

TEST(Mmu, DropPolicyDiscardsWithoutWalking)
{
    Mmu mmu(smallVm(TlbPrefetchPolicy::Drop), kBase, kBase + 4 * kPage);
    PfTranslation pf = mmu.prefetchTranslate(kBase, 100);
    EXPECT_EQ(pf.status, PfTranslation::Status::Dropped);
    EXPECT_EQ(mmu.walksInFlight(), 0u);
    EXPECT_EQ(mmu.stats.counter("mmu.pf_dropped"), 1u);
}

TEST(Mmu, WaitPolicyWalksButDoesNotFillTheTlb)
{
    Mmu mmu(smallVm(TlbPrefetchPolicy::Wait), kBase, kBase + 4 * kPage);
    PfTranslation pf = mmu.prefetchTranslate(kBase, 100);
    EXPECT_EQ(pf.status, PfTranslation::Status::Walking);
    EXPECT_EQ(pf.readyAt, 130u);
    EXPECT_EQ(pf.paddr, kBase); // translation resolved for the issue

    mmu.tick(130);
    // No speculative TLB pollution: the demand still misses.
    EXPECT_FALSE(mmu.tlbHolds(kBase));
    TlbAccess demand = mmu.demandTranslate(kBase, 130);
    EXPECT_FALSE(demand.hit);
}

TEST(Mmu, FillPolicyPreWarmsTheTlbForTheDemand)
{
    Mmu mmu(smallVm(TlbPrefetchPolicy::Fill), kBase, kBase + 4 * kPage);
    PfTranslation pf = mmu.prefetchTranslate(kBase, 100);
    EXPECT_EQ(pf.status, PfTranslation::Status::Walking);
    EXPECT_EQ(mmu.stats.counter("mmu.pf_fills"), 1u);

    mmu.tick(130);
    EXPECT_TRUE(mmu.tlbHolds(kBase));
    TlbAccess demand = mmu.demandTranslate(kBase, 130);
    EXPECT_TRUE(demand.hit);
    EXPECT_EQ(demand.readyAt, 130u);
}

TEST(Mmu, DemandJoiningAWaitWalkUpgradesItToFill)
{
    Mmu mmu(smallVm(TlbPrefetchPolicy::Wait), kBase, kBase + 4 * kPage);
    mmu.prefetchTranslate(kBase, 100);          // wait-walk, no fill
    TlbAccess demand = mmu.demandTranslate(kBase, 110);
    EXPECT_FALSE(demand.hit);
    EXPECT_EQ(demand.readyAt, 130u); // merged into the earlier walk
    mmu.tick(130);
    EXPECT_TRUE(mmu.tlbHolds(kBase)); // the demand's fill won
}

TEST(Mmu, ScrambledTranslationsFlowThroughEveryPath)
{
    Mmu mmu(smallVm(TlbPrefetchPolicy::Fill, PageMapKind::Scrambled),
            kBase, kBase + 64 * kPage);
    Addr v = kBase + 17 * kPage + 0x80;
    Addr p = mmu.pageTable().translate(v);
    EXPECT_EQ(mmu.translateFunctional(v), p);
    TlbAccess demand = mmu.demandTranslate(v, 0);
    EXPECT_EQ(demand.paddr, p);
    PfTranslation pf = mmu.prefetchTranslate(v, 0);
    EXPECT_EQ(pf.paddr, p);
}

TEST(Mmu, BuildsFromAProgram)
{
    auto prog = testutil::makeLongStraightLoop(256);
    Mmu mmu(smallVm(), *prog);
    EXPECT_GE(mmu.pageTable().numPages(), 1u);
    EXPECT_EQ(mmu.translateFunctional(prog->base), prog->base);
}
