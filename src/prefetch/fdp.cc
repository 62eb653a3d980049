#include "prefetch/fdp.hh"

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace fdip
{

FdpPrefetcher::FdpPrefetcher(Ftq &ftq_ref, MemHierarchy &mem_ref,
                             CpfMode mode, const Config &config)
    : ftq(ftq_ref), mem(mem_ref), mode_(mode), cfg(config),
      piq_("fdp", cfg.piqEntries), recentlyRequested(cfg.recentFilterEntries)
{
    fatal_if(cfg.scanWidth == 0, "FDP scan width must be nonzero");
    fatal_if(cfg.issueWidth == 0, "FDP issue width must be nonzero");
}

void
FdpPrefetcher::probeWaitingEntries(Cycle now)
{
    if (mode_ != CpfMode::Remove)
        return;
    // Opportunistically probe unverified PIQ entries with whatever tag
    // ports the demand fetch left idle this cycle. Probes go in queue
    // order, so the unverified entries are exactly those past the
    // probed prefix.
    while (piq_.probedPrefix() < piq_.size()) {
        if (!mem.reserveTagPort())
            return; // out of ports; try again next cycle
        stCpfProbes.inc();
        std::size_t i = piq_.probedPrefix();
        if (mem.tagProbe(translateFunctional(piq_.at(i).blockAddr))) {
            piq_.removeAt(i); // entry i replaced by its successor
            stCpfFiltered.inc();
        } else {
            piq_.extendProbedPrefix();
        }
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
    auto enqueue = [this, tr](Addr block) {
        piq_.push(block);
        recentlyRequested.insert(block);
        if (tr != nullptr)
            tr->instant("pf_enqueue", kTidPrefetch, "block", block);
    };
    // Entry 0 is the fetch point (being demand fetched); deeper
    // entries are the prefetch candidates. The cursor resumes where
    // the last cycle stopped, or at entry 1 once its entry has become
    // the fetch point or been flushed.
    cursor.scan(ftq, [&](Addr cand) {
        if (examined >= cfg.scanWidth || piq_.full())
            return false;
        // Candidates are virtual; physically-tagged filter probes
        // (L1 tags, MSHRs) peek the page table functionally.
        Addr pcand = translateFunctional(cand);
        ++examined;
        stCandidates.inc();

        if (recentlyRequested.contains(cand) || piq_.contains(cand) ||
            mem.prefetchRedundant(pcand)) {
            stDedupDropped.inc();
            return true;
        }

        switch (mode_) {
          case CpfMode::None:
          case CpfMode::Remove:
            enqueue(cand);
            break;
          case CpfMode::Enqueue:
          case CpfMode::EnqueueAggressive:
            if (!mem.reserveTagPort()) {
                stEnqueueNoPort.inc();
                if (mode_ == CpfMode::Enqueue) {
                    // Conservative: no idle port, no enqueue.
                    return false;
                }
                enqueue(cand); // aggressive: enqueue unprobed
                break;
            }
            [[fallthrough]]; // probe on the reserved port
          case CpfMode::Ideal:
            stCpfProbes.inc();
            if (mem.tagProbe(pcand))
                stCpfFiltered.inc();
            else
                enqueue(cand);
            break;
        }
        return true;
    });
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
    if (mode_ == CpfMode::Remove && piq_.probedPrefix() < piq_.size())
        return now + 1;
    // Unscanned candidates remain.
    if (!piq_.full() && !cursor.done(ftq))
        return now + 1;
    // The head translates or issues next cycle, or waits on its walk.
    return piq_.empty() ? kNever : translationWakeCycle(piq_.front().tr, now);
}

void
FdpPrefetcher::chargeIdleCycles(Cycle now, Cycle cycles)
{
    // The only per-cycle charge of a quiescent tick: the head-of-line
    // candidate waiting on its page walk (no walk completes inside a
    // charged window, so pending-now means pending throughout).
    if (!piq_.empty() && translationWaiting(piq_.front().tr))
        stTlbWaitStalls.inc(cycles);
}

void
FdpPrefetcher::onRedirect(Cycle now)
{
    piq_.flush();
    stRedirects.inc();
}

} // namespace fdip
