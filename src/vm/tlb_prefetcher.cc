#include "vm/tlb_prefetcher.hh"

#include "common/logging.hh"
#include "frontend/ftq.hh"
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
    recentSet.reserve(cfg.filterEntries);
}

bool
TlbPrefetcher::recentlyProbed(Addr vpn) const
{
    return recentSet.count(vpn) != 0;
}

void
TlbPrefetcher::markProbed(Addr vpn)
{
    Addr evicted = recentVpns.insert(vpn);
    if (evicted != invalidAddr)
        recentSet.erase(evicted);
    recentSet.insert(vpn);
    // Evicting a page may re-expose an FTQ page: drop the memo.
    idleValid = false;
}

bool
TlbPrefetcher::atFixedPoint() const
{
    if (idleValid && idleVersion == ftq.version())
        return true;
    for (std::size_t i = 1; i < ftq.size(); ++i) {
        unsigned n_blocks = ftq.numCacheBlocks(i);
        for (unsigned k = 0; k < n_blocks; ++k) {
            Addr vpn = mmu.pageTable().vpn(ftq.cacheBlockAddr(i, k));
            if (!recentlyProbed(vpn))
                return false;
        }
    }
    // Every page filtered: the verdict holds until the FTQ changes
    // (only probing mutates the filter, and there is nothing left to
    // probe).
    idleValid = true;
    idleVersion = ftq.version();
    return true;
}

void
TlbPrefetcher::tick(Cycle now)
{
    if (atFixedPoint())
        return;
    unsigned started = 0;
    // Entry 0 is the fetch point (its translation is the demand
    // fetch's own walk); deeper entries are the lookahead.
    for (std::size_t i = 1; i < ftq.size(); ++i) {
        unsigned n_blocks = ftq.numCacheBlocks(i);
        for (unsigned k = 0; k < n_blocks; ++k) {
            Addr vaddr = ftq.cacheBlockAddr(i, k);
            Addr vpn = mmu.pageTable().vpn(vaddr);
            if (recentlyProbed(vpn))
                continue;
            markProbed(vpn);
            stProbes.inc();
            PfTranslation tr = mmu.tlbPrefetchTranslate(vaddr, now);
            if (tr.status == PfTranslation::Status::Ready) {
                stTlbHot.inc();
                continue;
            }
            stRequests.inc();
            if (++started >= cfg.width)
                return;
        }
    }
}

Cycle
TlbPrefetcher::nextEventCycle(Cycle now) const
{
    return atFixedPoint() ? kNever : now + 1;
}

} // namespace fdip
