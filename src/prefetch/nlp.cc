#include "prefetch/nlp.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fdip
{

NlpPrefetcher::NlpPrefetcher(MemHierarchy &mem_ref, const Config &config)
    : mem(mem_ref), cfg(config)
{
    fatal_if(cfg.degree == 0, "NLP degree must be nonzero");
}

void
NlpPrefetcher::onDemandAccess(Addr block_addr, const FetchAccess &access,
                              Cycle now)
{
    // Trigger on a true miss or on first use of a prefetched block
    // (the "tag" of tagged next-line prefetching).
    bool trigger = isTrueMiss(access) || access.hitPrefetchBuffer;
    if (!trigger)
        return;
    stTriggers.inc();
    unsigned bb = mem.l1i().config().blockBytes;
    for (unsigned d = 1; d <= cfg.degree; ++d) {
        Addr cand = block_addr + Addr(d) * bb;
        bool queued = std::any_of(
            pending.begin(), pending.end(),
            [cand](const Cand &c) { return c.vaddr == cand; });
        if (queued)
            continue;
        if (pending.size() >= cfg.queueEntries)
            pending.pop_front();
        Cand c;
        c.vaddr = cand;
        pending.push_back(c);
    }
}

Cycle
NlpPrefetcher::nextEventCycle(Cycle now) const
{
    if (pending.empty())
        return kNever;
    const Cand &head = pending.front();
    // An untranslated or ready head acts next cycle; a waiting head
    // wakes at its page-walk completion (kNever while the walk is
    // queued for a walker — the MMU's events cover the start).
    if (!head.tr.translated)
        return now + 1;
    Cycle wake = translationWakeCycle(head.tr, now);
    return wake <= now + 1 ? now + 1 : wake;
}

void
NlpPrefetcher::chargeIdleCycles(Cycle now, Cycle cycles)
{
    if (!pending.empty() && pending.front().tr.translated &&
        translationWaiting(pending.front().tr)) {
        stTlbWaitStalls.inc(cycles);
    }
}

void
NlpPrefetcher::tick(Cycle now)
{
    while (!pending.empty()) {
        Cand &c = pending.front();
        switch (resolveTranslation(c.tr, c.vaddr, now)) {
          case TrResolve::Dropped:
            pending.pop_front();
            stTlbDropped.inc();
            continue;
          case TrResolve::Waiting:
            stTlbWaitStalls.inc();
            return; // head-of-line wait for the page walk
          case TrResolve::Ready:
            break;
        }
        // Next-line prefetch should not waste bandwidth on blocks the
        // cache already holds; the sequential-within-line case makes
        // this check nearly free in hardware (same row as the trigger).
        if (mem.tagProbe(c.tr.paddr)) {
            pending.pop_front();
            stAlreadyCached.inc();
            continue;
        }
        auto result = mem.issuePrefetch(c.tr.paddr, now,
                                        FillDest::PrefetchBuffer);
        if (result == MemHierarchy::PfIssue::NoResource) {
            stIssueStalls.inc();
            return;
        }
        pending.pop_front();
        if (result == MemHierarchy::PfIssue::Issued)
            stIssued.inc();
        else
            stRedundant.inc();
    }
}

} // namespace fdip
