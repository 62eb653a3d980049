/** Tests for the fetch-directed prefetcher and its CPF variants. */

#include <gtest/gtest.h>

#include "frontend/ftq.hh"
#include "mem/hierarchy.hh"
#include "prefetch/fdp.hh"
#include "vm/mmu.hh"

using namespace fdip;

namespace
{

struct Rig
{
    MemHierarchy mem;
    Ftq ftq;

    Rig()
        : mem(makeCfg()), ftq(16, 32)
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
        c.l1TagPorts = 2;
        return c;
    }

    void
    pushBlock(Addr pc, unsigned n = 8)
    {
        FetchBlock b;
        b.startPc = pc;
        b.numInsts = n;
        b.validLen = n;
        ftq.push(b);
    }

    FdpPrefetcher
    makeFdp(CpfMode mode)
    {
        return FdpPrefetcher(ftq, mem, mode, {});
    }
};

} // namespace

TEST(Fdp, ScansBeyondFetchPointOnly)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.pushBlock(0x1000); // entry 0 = fetch point: not scanned
    rig.mem.tick(1);
    fdp.tick(1);
    EXPECT_EQ(fdp.piq().size(), 0u);

    rig.pushBlock(0x2000); // entry 1: scanned
    rig.mem.tick(2);
    fdp.tick(2); // scan enqueues the candidate
    EXPECT_EQ(fdp.piq().size(), 1u);
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 1u);
    rig.mem.tick(3);
    fdp.tick(3); // issue happens the next cycle
    EXPECT_EQ(fdp.piq().size(), 0u);
    EXPECT_GT(rig.mem.stats.counter("mem.prefetches_issued"), 0u);
}

TEST(Fdp, NoFilterPrefetchesCachedBlocksToo)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.mem.l1i().insert(0x2000); // candidate already cached
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    fdp.tick(1);
    // Without CPF the cached block is still enqueued (waste).
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 1u);
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_probes"), 0u);
}

TEST(Fdp, IdealCpfFiltersCachedBlocks)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::Ideal);
    rig.mem.l1i().insert(0x2000);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000); // cached: must be filtered
    rig.pushBlock(0x3000); // not cached: must survive
    rig.mem.tick(1);
    fdp.tick(1); // scan: filter 0x2000, enqueue 0x3000
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_filtered"), 1u);
    rig.mem.tick(2);
    fdp.tick(2); // issue the survivor
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 1u);
    EXPECT_TRUE(rig.mem.mshrs().find(0x3000) != nullptr);
    EXPECT_TRUE(rig.mem.mshrs().find(0x2000) == nullptr);
}

TEST(Fdp, EnqueueCpfNeedsIdleTagPort)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::Enqueue);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    // Exhaust both tag ports (as a busy fetch engine would).
    rig.mem.reserveTagPort();
    rig.mem.reserveTagPort();
    fdp.tick(1);
    EXPECT_EQ(fdp.stats.counter("fdp.enqueue_no_port"), 1u);
    EXPECT_EQ(fdp.piq().size(), 0u);
    // Next cycle a port is free: the candidate goes through.
    rig.mem.tick(2);
    fdp.tick(2);
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_probes"), 1u);
}

TEST(Fdp, RemoveCpfProbesWaitingEntries)
{
    Rig rig;
    FdpPrefetcher::Config c;
    c.issueWidth = 1;
    FdpPrefetcher fdp(rig.ftq, rig.mem, CpfMode::Remove, c);

    rig.mem.l1i().insert(0x3000); // will be enqueued then removed
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x3000);
    rig.mem.tick(1);
    fdp.tick(1);
    // Both candidates enqueued; one issued (issueWidth 1); remove-CPF
    // probes the remaining entries with idle ports over the cycles.
    rig.mem.tick(2);
    fdp.tick(2);
    EXPECT_GE(fdp.stats.counter("fdp.cpf_probes"), 1u);
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_filtered"), 1u);
    // The cached block must never be issued.
    EXPECT_EQ(rig.mem.mshrs().find(0x3000), nullptr);
}

TEST(Fdp, DedupAcrossScans)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x2000); // same block again
    rig.mem.tick(1);
    fdp.tick(1);
    rig.mem.tick(2);
    fdp.tick(2);
    EXPECT_GE(fdp.stats.counter("fdp.dedup_dropped"), 1u);
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 1u);
}

TEST(Fdp, MultiBlockEntryYieldsAllBlocks)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2010, 8); // straddles 0x2000 and 0x2020
    rig.mem.tick(1);
    fdp.tick(1);
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 2u);
}

TEST(Fdp, RedirectFlushesPiq)
{
    Rig rig;
    FdpPrefetcher::Config c;
    c.issueWidth = 1;
    c.scanWidth = 4;
    FdpPrefetcher fdp(rig.ftq, rig.mem, CpfMode::None, c);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x3000);
    rig.pushBlock(0x4000);
    rig.mem.tick(1);
    fdp.tick(1); // 3 candidates enqueued, 1 issued, 2 remain
    EXPECT_GT(fdp.piq().size(), 0u);
    fdp.onRedirect(1);
    EXPECT_EQ(fdp.piq().size(), 0u);
}

TEST(Fdp, IssueRespectsBusOccupancy)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::None);
    // Saturate the L2 bus with a demand transfer.
    rig.mem.l2Bus().transfer(1, 3200); // long transfer
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    fdp.tick(1);
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 0u);
    EXPECT_GT(fdp.piq().size(), 0u); // candidate waits in the PIQ
}

TEST(Fdp, AggressiveEnqueuesUnprobedWithoutPort)
{
    Rig rig;
    auto fdp = rig.makeFdp(CpfMode::EnqueueAggressive);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    rig.mem.reserveTagPort();
    rig.mem.reserveTagPort(); // all ports gone
    fdp.tick(1);
    // Unlike the conservative variant, the candidate still enters the
    // PIQ (unprobed).
    EXPECT_EQ(fdp.stats.counter("fdp.enqueue_no_port"), 1u);
    EXPECT_EQ(fdp.piq().size(), 1u);
}

TEST(Fdp, FillIntoL1AblationSkipsBuffer)
{
    Rig rig;
    FdpPrefetcher::Config c;
    c.fillIntoL1 = true;
    FdpPrefetcher fdp(rig.ftq, rig.mem, CpfMode::None, c);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.mem.tick(1);
    fdp.tick(1); // enqueue
    rig.mem.tick(2);
    fdp.tick(2); // issue
    MshrEntry *e = rig.mem.mshrs().find(0x2000);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->dest, FillDest::DemandL1);
    // Drain the fill: the block lands in the L1, not the buffer.
    for (Cycle t = 3; t < 200; ++t)
        rig.mem.tick(t);
    EXPECT_TRUE(rig.mem.l1i().probe(0x2000));
    EXPECT_FALSE(rig.mem.pfBuffer().probe(0x2000));
}

namespace
{

/** One-candidate-per-cycle FDP for stepping the scan position. */
FdpPrefetcher
makeNarrowFdp(Rig &rig, CpfMode mode)
{
    FdpPrefetcher::Config c;
    c.scanWidth = 1;
    return FdpPrefetcher(rig.ftq, rig.mem, mode, c);
}

std::vector<Addr>
piqBlocks(const FdpPrefetcher &fdp)
{
    std::vector<Addr> out;
    for (std::size_t i = 0; i < fdp.piq().size(); ++i)
        out.push_back(fdp.piq().at(i).blockAddr);
    return out;
}

} // namespace

TEST(FdpScan, EntryShiftingTowardHeadResumesMidEntry)
{
    Rig rig;
    auto fdp = makeNarrowFdp(rig, CpfMode::None);
    rig.mem.l2Bus().transfer(1, 3200); // hold issue: the PIQ keeps all
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2000);
    rig.pushBlock(0x3010, 16); // 0x3000 0x3020 0x3040
    fdp.tick(1); // 0x2000
    fdp.tick(2); // 0x3000
    rig.ftq.popHead(); // 0x3010 is now entry 1, still mid-scan
    fdp.tick(3);
    EXPECT_EQ(piqBlocks(fdp),
              (std::vector<Addr>{0x2000, 0x3000, 0x3020}));
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 3u);
}

TEST(FdpScan, EntryReachingFetchPointIsAbandoned)
{
    Rig rig;
    auto fdp = makeNarrowFdp(rig, CpfMode::None);
    rig.mem.l2Bus().transfer(1, 3200);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2010, 16); // 0x2000 0x2020 0x2040
    rig.pushBlock(0x5010, 16); // 0x5000 0x5020 0x5040
    fdp.tick(1); // 0x2000
    fdp.tick(2); // 0x2020
    rig.ftq.popHead(); // 0x2010 becomes the fetch point mid-scan
    fdp.tick(3); // the new entry 1 from its first block
    fdp.tick(4);
    EXPECT_EQ(piqBlocks(fdp),
              (std::vector<Addr>{0x2000, 0x2020, 0x5000, 0x5020}));
    EXPECT_EQ(fdp.stats.counter("fdp.candidates"), 4u);
}

TEST(FdpScan, RedirectRestartsAtFirstNewEntry)
{
    Rig rig;
    auto fdp = makeNarrowFdp(rig, CpfMode::None);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2010, 16); // 0x2000 0x2020 0x2040
    fdp.tick(1); // 0x2000, then the redirect squashes all
    rig.ftq.flush();
    fdp.onRedirect(1);
    rig.pushBlock(0x7000); // new fetch point
    rig.pushBlock(0x8010, 16); // 0x8000 0x8020 0x8040
    fdp.tick(2);
    EXPECT_EQ(piqBlocks(fdp), (std::vector<Addr>{0x8000}));

    // Same again with the scan caught up (position past the tail).
    fdp.tick(3);
    fdp.tick(4); // 0x8040: entry 1 done, nothing left
    rig.ftq.flush();
    fdp.onRedirect(4);
    rig.pushBlock(0x9000);
    rig.pushBlock(0xa000);
    fdp.tick(5);
    EXPECT_EQ(piqBlocks(fdp), (std::vector<Addr>{0xa000}));
}

TEST(FdpScan, NextEventWhileUnscannedBlocksRemain)
{
    // Ideal CPF with every candidate already cached: the PIQ stays
    // empty, so the scan alone decides nextEventCycle.
    Rig rig;
    auto fdp = makeNarrowFdp(rig, CpfMode::Ideal);
    for (Addr a : {0x2000, 0x2020, 0x2040, 0x6000})
        rig.mem.l1i().insert(a);
    rig.pushBlock(0x1000);
    EXPECT_EQ(fdp.nextEventCycle(0), kNever); // fetch point only
    rig.pushBlock(0x2010, 16); // 0x2000 0x2020 0x2040
    EXPECT_EQ(fdp.nextEventCycle(0), 1u);
    fdp.tick(1);
    EXPECT_EQ(fdp.nextEventCycle(1), 2u);
    fdp.tick(2);
    EXPECT_EQ(fdp.nextEventCycle(2), 3u);
    fdp.tick(3); // last block of the last entry
    EXPECT_EQ(fdp.stats.counter("fdp.cpf_filtered"), 3u);
    EXPECT_EQ(fdp.nextEventCycle(3), kNever);
    rig.ftq.popHead();
    EXPECT_EQ(fdp.nextEventCycle(3), kNever);
    rig.pushBlock(0x6000);
    EXPECT_EQ(fdp.nextEventCycle(3), 4u);
    fdp.tick(4);
    EXPECT_EQ(fdp.nextEventCycle(4), kNever);

    // An entry that reaches the fetch point mid-scan leaves nothing
    // to scan behind it.
    rig.pushBlock(0x2010, 16);
    fdp.tick(5); // 0x2000 of 3
    EXPECT_EQ(fdp.nextEventCycle(5), 6u);
    rig.ftq.popHead();
    rig.ftq.popHead();
    EXPECT_EQ(fdp.nextEventCycle(5), kNever);
}

TEST(FdpScan, FullPiqSilencesUnscannedBlocks)
{
    // The PIQ's only slot holds a candidate parked on its page walk:
    // the blocks still unscanned cannot enter, so the FDP sleeps until
    // the walk completes instead of waking every cycle.
    Rig rig;
    VmConfig vcfg;
    vcfg.enable = true;
    vcfg.itlbEntries = 4;
    vcfg.itlbAssoc = 4;
    vcfg.walkLatency = 25;
    vcfg.prefetchPolicy = TlbPrefetchPolicy::Wait;
    Mmu mmu(vcfg, 0x0, 0x100000);
    FdpPrefetcher::Config c;
    c.scanWidth = 1;
    c.piqEntries = 1;
    FdpPrefetcher fdp(rig.ftq, rig.mem, CpfMode::None, c);
    fdp.setMmu(&mmu);
    rig.pushBlock(0x1000);
    rig.pushBlock(0x2010, 16); // 0x2000 0x2020 0x2040
    fdp.tick(1); // 0x2000 fills the PIQ
    EXPECT_EQ(fdp.nextEventCycle(1), 2u); // head not yet translated
    fdp.tick(2); // head walks; the scan is blocked
    EXPECT_TRUE(fdp.piq().full());
    EXPECT_EQ(fdp.nextEventCycle(2), 2 + vcfg.walkLatency);
}
