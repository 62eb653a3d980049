#include "vm/tlb_prefetcher.hh"

#include "common/logging.hh"
#include "vm/mmu.hh"

namespace fdip
{

TlbPrefetcher::TlbPrefetcher(const Ftq &ftq_ref, Mmu &mmu_ref,
                             const Config &config)
    : ftq(ftq_ref), mmu(mmu_ref), cfg(config),
      recentVpns(cfg.filterEntries)
{
    fatal_if(cfg.width == 0, "TLB-prefetch width must be nonzero");
    fatal_if(cfg.filterEntries == 0,
             "TLB-prefetch filter needs at least one entry");
}

void
TlbPrefetcher::tick(Cycle now)
{
    unsigned started = 0;
    bool evicted = false;
    // Entry 0 is the fetch point (its translation is the demand
    // fetch's own walk); deeper entries are the lookahead.
    cursor.scan(ftq, [&](Addr vaddr) {
        if (started >= cfg.width)
            return false;
        Addr vpn = mmu.pageTable().vpn(vaddr);
        if (vpn == heldVpn)
            return true;
        if (recentVpns.contains(vpn)) {
            heldVpn = vpn;
            return true;
        }
        evicted |= recentVpns.insert(vpn) != invalidAddr;
        heldVpn = vpn;
        stProbes.inc();
        PfTranslation tr = mmu.tlbPrefetchTranslate(vaddr, now);
        if (tr.status == PfTranslation::Status::Ready) {
            stTlbHot.inc();
        } else {
            stRequests.inc();
            ++started;
        }
        return true;
    });
    // The evicted page may be one the cursor has passed.
    if (evicted)
        cursor.restart();
}

Cycle
TlbPrefetcher::nextEventCycle(Cycle now) const
{
    // Blocks before the cursor are filtered: check on from a copy.
    FtqCursor from = cursor;
    bool unfiltered = false;
    from.scan(ftq, [&](Addr vaddr) {
        Addr vpn = mmu.pageTable().vpn(vaddr);
        unfiltered = vpn != heldVpn && !recentVpns.contains(vpn);
        return !unfiltered;
    });
    return unfiltered ? now + 1 : kNever;
}

} // namespace fdip
