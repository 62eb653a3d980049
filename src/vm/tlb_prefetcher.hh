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
 * (with an O(1) membership mirror) keeps it from re-requesting the
 * same FTQ pages every cycle; pages are marked probed whatever the
 * outcome, so a quiescent machine (static FTQ, no fills) reaches a
 * fixed point where tick() provably does nothing — which is exactly
 * what nextEventCycle() reports, keeping event-driven idle-cycle
 * skipping bit-identical. The fixed-point verdict is memoized
 * against Ftq::version() so steady-state cycles cost O(1) instead of
 * a full rescan.
 */

#ifndef FDIP_VM_TLB_PREFETCHER_HH
#define FDIP_VM_TLB_PREFETCHER_HH

#include <unordered_set>

#include "common/recent_filter.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

class Ftq;
class Mmu;

class TlbPrefetcher
{
  public:
    struct Config
    {
        /** Translation requests (walks/refills) started per cycle. */
        unsigned width = 2;
        /** Recently-probed-VPN ring filter size; must comfortably
         *  exceed the FTQ's distinct-page footprint or the prefetcher
         *  re-probes in a loop. */
        unsigned filterEntries = 64;
    };

    TlbPrefetcher(const Ftq &ftq, Mmu &mmu, const Config &config);

    /** Scan the FTQ and warm translations; once a cycle. */
    void tick(Cycle now);

    /**
     * Quiescence protocol: now + 1 while any FTQ page past the fetch
     * point is not yet in the probe filter (tick() would probe it),
     * kNever otherwise. The filter only changes when tick() probes,
     * so a kNever verdict is stable across a skipped window (and is
     * memoized until the FTQ's content version changes).
     */
    Cycle nextEventCycle(Cycle now) const;

    StatSet stats;

  private:
    StatSet::Counter stProbes = stats.registerCounter("tlbpf.probes");
    StatSet::Counter stTlbHot = stats.registerCounter("tlbpf.tlb_hot");
    StatSet::Counter stRequests = stats.registerCounter("tlbpf.requests");

    bool recentlyProbed(Addr vpn) const;
    void markProbed(Addr vpn);
    /** Pure scan: is every FTQ page past the fetch point filtered? */
    bool atFixedPoint() const;

    const Ftq &ftq;
    Mmu &mmu;
    Config cfg;
    RecentFilter recentVpns;
    /** O(1) membership mirror of the ring (which never holds a VPN
     *  twice, so erasing each evicted VPN keeps the mirror exact). */
    std::unordered_set<Addr> recentSet;
    /** Memoized "nothing left to probe" verdict, valid while the FTQ
     *  version is unchanged (probing invalidates it). */
    mutable bool idleValid = false;
    mutable std::uint64_t idleVersion = 0;
};

} // namespace fdip

#endif // FDIP_VM_TLB_PREFETCHER_HH
