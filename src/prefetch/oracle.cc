#include "prefetch/oracle.hh"

#include "common/logging.hh"

namespace fdip
{

OraclePrefetcher::OraclePrefetcher(TraceWindow &trace_ref,
                                   const Bpu &bpu_ref,
                                   MemHierarchy &mem_ref,
                                   const Config &config)
    : trace(trace_ref), bpu(bpu_ref), mem(mem_ref), cfg(config),
      recentlyRequested(kRecentFilterEntries)
{
    fatal_if(cfg.lookaheadInsts == 0, "oracle needs lookahead");
}

Cycle
OraclePrefetcher::nextEventCycle(Cycle now) const
{
    // Pending candidates mean an issue attempt next cycle; otherwise
    // the scan acts whenever the lookahead window is not exhausted.
    // The oracle never waits on walks (perfect ITLB) and charges no
    // per-cycle stall counters.
    if (!pending.empty())
        return now + 1;
    InstSeqNum base = bpu.nextVerifySeq();
    InstSeqNum from = scanSeq < base ? base : scanSeq;
    if (from < base + cfg.lookaheadInsts)
        return now + 1;
    return kNever;
}

void
OraclePrefetcher::tick(Cycle now)
{
    // Issue pending candidates over the idle bus.
    unsigned issued = 0;
    while (issued < kIssueWidth && !pending.empty()) {
        // The oracle is an upper bound: assume a perfect ITLB and
        // translate functionally instead of paying walk latency.
        Addr cand = translateFunctional(pending.front());
        auto result = mem.issuePrefetch(cand, now,
                                        FillDest::PrefetchBuffer);
        if (result == MemHierarchy::PfIssue::NoResource) {
            stIssueStalls.inc();
            break;
        }
        pending.erase(pending.begin());
        if (result == MemHierarchy::PfIssue::Issued) {
            stIssued.inc();
            ++issued;
        }
    }

    // Scan the true future for new candidate blocks. The window of
    // interest trails the BPU's verified position.
    InstSeqNum base = bpu.nextVerifySeq();
    if (scanSeq < base)
        scanSeq = base;
    InstSeqNum limit = base + cfg.lookaheadInsts;
    unsigned examined = 0;
    while (scanSeq < limit && examined < kScanWidth &&
           pending.size() < 2 * kScanWidth) {
        Addr block = mem.l1i().blockAlign(trace.at(scanSeq).pc);
        Addr pblock = translateFunctional(block);
        ++scanSeq;
        if (recentlyRequested.contains(block) ||
            mem.prefetchRedundant(pblock) || mem.tagProbe(pblock)) {
            continue;
        }
        ++examined;
        pending.push_back(block);
        recentlyRequested.insert(block);
        stCandidates.inc();
    }
}

} // namespace fdip
