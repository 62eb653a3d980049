#include "prefetch/fdp.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace fdip
{

const char *
cpfModeName(CpfMode mode)
{
    switch (mode) {
      case CpfMode::None: return "none";
      case CpfMode::Enqueue: return "enqueue";
      case CpfMode::EnqueueAggressive: return "enqueue-aggr";
      case CpfMode::Remove: return "remove";
      case CpfMode::Ideal: return "ideal";
    }
    return "?";
}

FdpPrefetcher::FdpPrefetcher(Ftq &ftq_ref, MemHierarchy &mem_ref,
                             const Config &config)
    : ftq(ftq_ref), mem(mem_ref), cfg(config), piq_(cfg.piqEntries),
      recentFilter(cfg.recentFilterEntries, invalidAddr)
{
    fatal_if(cfg.scanWidth == 0, "FDP scan width must be nonzero");
    fatal_if(cfg.issueWidth == 0, "FDP issue width must be nonzero");
}

std::string
FdpPrefetcher::name() const
{
    return strprintf("fdp-%s", cpfModeName(cfg.mode));
}

bool
FdpPrefetcher::recentlyRequested(Addr block_addr) const
{
    return std::find(recentFilter.begin(), recentFilter.end(),
                     block_addr) != recentFilter.end();
}

void
FdpPrefetcher::markRequested(Addr block_addr)
{
    if (recentFilter.empty())
        return;
    recentFilter[recentNext] = block_addr;
    recentNext = (recentNext + 1) % recentFilter.size();
}

void
FdpPrefetcher::probeWaitingEntries(Cycle now)
{
    if (cfg.mode != CpfMode::Remove)
        return;
    // Opportunistically probe unverified PIQ entries with whatever tag
    // ports the demand fetch left idle this cycle.
    std::size_t i = 0;
    while (i < piq_.size()) {
        PiqEntry &e = piq_.at(i);
        if (e.probed) {
            ++i;
            continue;
        }
        if (!mem.reserveTagPort())
            return; // out of ports; try again next cycle
        stCpfProbes.inc();
        if (mem.tagProbe(translateFunctional(e.blockAddr))) {
            piq_.removeAt(i);
            stCpfFiltered.inc();
            continue; // entry i replaced by its successor
        }
        e.probed = true;
        ++i;
    }
}

void
FdpPrefetcher::issuePrefetches(Cycle now)
{
    unsigned issued = 0;
    while (issued < cfg.issueWidth && !piq_.empty()) {
        PiqEntry &head = piq_.front();
        switch (resolveTranslation(head.tr, head.blockAddr, now)) {
          case TrResolve::Dropped:
            piq_.popFront();
            stTlbDropped.inc();
            continue;
          case TrResolve::Waiting:
            // Head-of-line wait for the page walk (Wait/Fill).
            stTlbWaitStalls.inc();
            return;
          case TrResolve::Ready:
            break;
        }
        Addr addr = head.tr.paddr;
        FillDest dest = cfg.fillIntoL1 ? FillDest::DemandL1
                                       : FillDest::PrefetchBuffer;
        auto result = mem.issuePrefetch(addr, now, dest);
        if (result == MemHierarchy::PfIssue::NoResource) {
            stIssueStalls.inc();
            return; // bus/MSHR busy: keep the entry, retry next cycle
        }
        piq_.popFront();
        if (result == MemHierarchy::PfIssue::Issued) {
            stIssued.inc();
            ++issued;
        } else {
            stIssueRedundant.inc();
        }
    }
}

void
FdpPrefetcher::scanFtq(Cycle now)
{
    unsigned examined = 0;
    Tracer *tr = mem.tracer();
    auto traceEnqueue = [tr](Addr block) {
        if (tr != nullptr)
            tr->instant("pf_enqueue", kTidPrefetch, "block", block);
    };
    // Entry 0 is the fetch point (being demand fetched); deeper
    // entries are the prefetch candidates.
    for (std::size_t i = 1; i < ftq.size(); ++i) {
        FtqEntry &e = ftq.at(i);
        unsigned n_blocks = ftq.numCacheBlocks(i);
        while (e.nextScanBlock < n_blocks) {
            if (examined >= cfg.scanWidth || piq_.full())
                return;
            Addr cand = ftq.cacheBlockAddr(i, e.nextScanBlock);
            // Candidates are virtual; physically-tagged filter probes
            // (L1 tags, MSHRs) peek the page table functionally.
            Addr pcand = translateFunctional(cand);
            ++examined;
            stCandidates.inc();

            if (recentlyRequested(cand) || piq_.contains(cand) ||
                mem.prefetchRedundant(pcand)) {
                stDedupDropped.inc();
                ++e.nextScanBlock;
                continue;
            }

            switch (cfg.mode) {
              case CpfMode::None:
              case CpfMode::Remove:
                piq_.push(cand);
                markRequested(cand);
                traceEnqueue(cand);
                break;
              case CpfMode::Enqueue:
              case CpfMode::EnqueueAggressive:
                if (!mem.reserveTagPort()) {
                    stEnqueueNoPort.inc();
                    if (cfg.mode == CpfMode::Enqueue) {
                        // Conservative: no idle port, no enqueue.
                        return;
                    }
                    // Aggressive: enqueue unprobed.
                    piq_.push(cand);
                    markRequested(cand);
                    traceEnqueue(cand);
                    break;
                }
                stCpfProbes.inc();
                if (mem.tagProbe(pcand)) {
                    stCpfFiltered.inc();
                } else {
                    piq_.push(cand);
                    markRequested(cand);
                    traceEnqueue(cand);
                }
                break;
              case CpfMode::Ideal:
                stCpfProbes.inc();
                if (mem.tagProbe(pcand)) {
                    stCpfFiltered.inc();
                } else {
                    piq_.push(cand);
                    markRequested(cand);
                    traceEnqueue(cand);
                }
                break;
            }
            ++e.nextScanBlock;
        }
    }
}

void
FdpPrefetcher::tick(Cycle now)
{
    probeWaitingEntries(now);
    issuePrefetches(now);
    scanFtq(now);
}

Cycle
FdpPrefetcher::nextEventCycle(Cycle now) const
{
    // Remove-CPF: an unprobed PIQ entry is probed with next cycle's
    // leftover tag ports.
    if (cfg.mode == CpfMode::Remove) {
        for (std::size_t i = 0; i < piq_.size(); ++i) {
            if (!piq_.at(i).probed)
                return now + 1;
        }
    }
    Cycle next = kNever;
    if (!piq_.empty()) {
        const PiqEntry &head = piq_.front();
        // An untranslated or ready head means a translate or an issue
        // attempt next cycle; a waiting head wakes at walk completion
        // (kNever while its walk is queued for a walker — the MMU's
        // own events cover the start).
        if (!head.tr.translated)
            return now + 1;
        Cycle wake = translationWakeCycle(head.tr, now);
        if (wake <= now + 1)
            return now + 1;
        next = wake;
    }
    if (!piq_.full()) {
        for (std::size_t i = 1; i < ftq.size(); ++i) {
            if (ftq.at(i).nextScanBlock < ftq.numCacheBlocks(i))
                return now + 1; // unscanned candidates remain
        }
    }
    return next;
}

void
FdpPrefetcher::chargeIdleCycles(Cycle now, Cycle cycles)
{
    // The only per-cycle charge of a quiescent tick: the head-of-line
    // candidate waiting on its page walk (no walk completes inside a
    // charged window, so pending-now means pending throughout).
    if (!piq_.empty() && piq_.front().tr.translated &&
        translationWaiting(piq_.front().tr)) {
        stTlbWaitStalls.inc(cycles);
    }
}

void
FdpPrefetcher::onRedirect(Cycle now)
{
    piq_.flush();
    stRedirects.inc();
}

} // namespace fdip
