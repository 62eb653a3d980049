/**
 * @file tlb_prefetcher.hh
 * Decoupled TLB prefetching: translation lookahead over the FTQ,
 * independent of the block prefetcher's data lookahead.
 *
 * Every cycle the TLB prefetcher scans the FTQ past the fetch point
 * (entry 0 is being demand-fetched; its walk is the fetch engine's
 * problem), extracts the virtual pages the predicted fetch stream
 * will touch, and asks the MMU to warm their translations — an L2-TLB
 * refill when the page is L2-resident, a prefetch-priority page walk
 * otherwise, filling both TLB levels on completion. By the time the
 * demand fetch (or a block prefetcher's translation probe) reaches
 * the page, the ITLB already holds it.
 *
 * The prefetcher is fire-and-forget: it never waits on the walks it
 * starts, so it charges no per-cycle stall counters and its
 * chargeIdleCycles() is a no-op. A recently-probed-page ring filter
 * keeps it from re-requesting the same FTQ pages every cycle; pages
 * are marked probed whatever the outcome.
 *
 * The scan is an FtqCursor, as FDP's is, with one invariant: every
 * block before the cursor has its page in the filter. tick() resumes
 * at the cursor, and nextEventCycle() checks forward from a copy of
 * it, so a static FTQ costs nothing to rescan. Pages leave the filter
 * only when a probe evicts one, and that may make a passed block
 * eligible again: a tick that evicts restarts the cursor at entry 1.
 * Each tick therefore probes exactly the pages a full rescan of the
 * lookahead would, and a quiescent machine (static FTQ, no probes)
 * reaches the fixed point nextEventCycle() reports as kNever, which
 * keeps event-driven idle-cycle skipping bit-identical.
 */

#ifndef FDIP_VM_TLB_PREFETCHER_HH
#define FDIP_VM_TLB_PREFETCHER_HH

#include "common/recent_filter.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "frontend/ftq.hh"

namespace fdip
{

class Mmu;

class TlbPrefetcher
{
  public:
    struct Config
    {
        /** Translation requests (walks/refills) started per cycle. */
        unsigned width = 2;
        /**
         * Recently-probed-VPN ring filter size. A page is probed again
         * only once it leaves the filter, whatever the ITLB holds: a
         * filter that outlives the ITLB stops re-warming pages the
         * ITLB has since evicted, and a smaller one re-probes more.
         */
        unsigned filterEntries = 64;
    };

    TlbPrefetcher(const Ftq &ftq, Mmu &mmu, const Config &config);

    /** Scan the FTQ and warm translations; once a cycle. */
    void tick(Cycle now);

    /**
     * Quiescence protocol: now + 1 while any FTQ page past the fetch
     * point is not yet in the probe filter (tick() would probe it),
     * kNever otherwise. The filter only changes when tick() probes,
     * so a kNever verdict is stable across a skipped window.
     */
    Cycle nextEventCycle(Cycle now) const;

    StatSet stats;

  private:
    StatSet::Counter stProbes = stats.registerCounter("tlbpf.probes");
    StatSet::Counter stTlbHot = stats.registerCounter("tlbpf.tlb_hot");
    StatSet::Counter stRequests = stats.registerCounter("tlbpf.requests");

    const Ftq &ftq;
    Mmu &mmu;
    Config cfg;
    RecentFilter recentVpns;
    /** A page known to be in recentVpns: the last one a check found
     *  there or tick() inserted. Pages leave the filter only on an
     *  insert, which holds the inserted page, so most blocks, being in
     *  the previous block's page, skip the filter's scan. */
    Addr heldVpn = invalidAddr;
    /** The next block to check: every block before it has its page
     *  in recentVpns. */
    FtqCursor cursor;
};

} // namespace fdip

#endif // FDIP_VM_TLB_PREFETCHER_HH
