#include "prefetch/stream_buffer.hh"

#include "common/logging.hh"

namespace fdip
{

StreamBufferPrefetcher::StreamBufferPrefetcher(MemHierarchy &mem_ref,
                                               const Config &config)
    : mem(mem_ref), cfg(config), buffers(cfg.numBuffers),
      missHistory(kMissHistoryEntries)
{
    fatal_if(cfg.numBuffers == 0, "need at least one stream buffer");
    mem.setStreamFillClient(this);
    mem.setStreamProbeClient(this);
}

void
StreamBufferPrefetcher::allocate(Addr miss_addr)
{
    unsigned bb = mem.l1i().config().blockBytes;

    // A buffer already streaming this region needs no re-allocation.
    for (const Buffer &b : buffers) {
        if (!b.active)
            continue;
        for (const Slot &s : b.slots) {
            if (s.vaddr == miss_addr)
                return;
        }
        if (b.nextAddr == miss_addr + bb)
            return;
    }

    Buffer *victim = &buffers[0];
    for (Buffer &b : buffers) {
        if (!b.active) {
            victim = &b;
            break;
        }
        if (b.lruStamp < victim->lruStamp)
            victim = &b;
    }
    if (victim->active)
        stReallocations.inc();
    // Filled slots die unused here; in-flight ones classify later via
    // the orphan-fill path.
    for (const Slot &s : victim->slots) {
        if (s.filled)
            mem.prefetchAttribution().onEvictUnused(s.paddr);
    }
    victim->active = true;
    victim->slots.clear();
    victim->nextAddr = miss_addr + bb;
    victim->tr = PfTranslationState{};
    victim->lruStamp = ++lruClock;
    victim->requestInFlight = false;
    stAllocations.inc();
}

void
StreamBufferPrefetcher::onDemandAccess(Addr block_addr,
                                       const FetchAccess &access,
                                       Cycle now)
{
    if (!isTrueMiss(access))
        return;
    if (cfg.allocationFilter) {
        unsigned bb = mem.l1i().config().blockBytes;
        bool sequential = missHistory.contains(block_addr - bb);
        missHistory.insert(block_addr);
        if (!sequential) {
            stFilteredAllocations.inc();
            return;
        }
    }
    allocate(block_addr);
}

bool
StreamBufferPrefetcher::probeAndConsume(Addr block_addr, Cycle now)
{
    for (std::uint32_t bi = 0; bi < buffers.size(); ++bi) {
        Buffer &b = buffers[bi];
        if (!b.active)
            continue;
        for (std::size_t si = 0; si < b.slots.size(); ++si) {
            if (b.slots[si].paddr != block_addr)
                continue;
            if (!b.slots[si].filled)
                return false; // in flight: demand merges via the MSHR
            // Hit: consume this slot and everything older. Skipped
            // older filled slots die unused; skipped in-flight ones
            // classify later via the orphan-fill path.
            for (std::size_t j = 0; j < si; ++j) {
                if (b.slots[j].filled)
                    mem.prefetchAttribution().onEvictUnused(b.slots[j].paddr);
            }
            b.slots.erase(b.slots.begin(),
                          b.slots.begin() + static_cast<long>(si) + 1);
            b.lruStamp = ++lruClock;
            stHits.inc();
            if (si > 0)
                stSkippedSlots.inc(si);
            return true;
        }
    }
    return false;
}

void
StreamBufferPrefetcher::streamFill(std::uint32_t stream_id, Addr block_addr)
{
    if (stream_id >= buffers.size()) {
        stOrphanFills.inc();
        mem.prefetchAttribution().onEvictUnused(block_addr);
        return;
    }
    Buffer &b = buffers[stream_id];
    b.requestInFlight = false;
    if (!b.active) {
        stOrphanFills.inc();
        mem.prefetchAttribution().onEvictUnused(block_addr);
        return;
    }
    for (Slot &s : b.slots) {
        if (s.paddr == block_addr && !s.filled) {
            s.filled = true;
            stFills.inc();
            return;
        }
    }
    // The buffer was re-aimed while the request was in flight.
    stOrphanFills.inc();
    mem.prefetchAttribution().onEvictUnused(block_addr);
}

void
StreamBufferPrefetcher::advanceHead(Buffer &b)
{
    unsigned bb = mem.l1i().config().blockBytes;
    Addr next = b.nextAddr + bb;
    // The head's translation register covers a whole page: advance the
    // physical side in step while the stream stays inside it, and only
    // re-translate (possibly re-walking) on a page crossing.
    if (b.tr.translated && mmu_ != nullptr && mmu_->enabled() &&
        mmu_->pageTable().vpn(next) ==
            mmu_->pageTable().vpn(b.nextAddr)) {
        b.tr.paddr += bb;
    } else {
        b.tr = PfTranslationState{};
    }
    b.nextAddr = next;
}

Cycle
StreamBufferPrefetcher::nextEventCycle(Cycle now) const
{
    Cycle next = kNever;
    for (const Buffer &b : buffers) {
        // Inactive, topped-up, or in-flight buffers do nothing; a
        // stream with an untranslated or ready head tops up next
        // cycle; a waiting one wakes at its page-walk completion
        // (kNever while the walk is queued for a walker — the MMU's
        // events cover the start).
        if (!b.active || b.requestInFlight || b.slots.size() >= kDepth)
            continue;
        Cycle wake = translationWakeCycle(b.tr, now);
        if (wake == now + 1)
            return wake;
        if (wake < next)
            next = wake;
    }
    return next;
}

void
StreamBufferPrefetcher::chargeIdleCycles(Cycle now, Cycle cycles)
{
    // Every stream waiting on a page walk charges one wait cycle per
    // tick (tick() continues past Waiting buffers; no walk completes
    // inside a charged window).
    std::uint64_t waiting = 0;
    for (const Buffer &b : buffers) {
        if (b.active && !b.requestInFlight && b.slots.size() < kDepth &&
            translationWaiting(b.tr)) {
            ++waiting;
        }
    }
    if (waiting > 0)
        stTlbWaitCycles.inc(waiting * cycles);
}

void
StreamBufferPrefetcher::tick(Cycle now)
{
    // Top up each buffer, one outstanding request per buffer.
    for (std::uint32_t bi = 0; bi < buffers.size(); ++bi) {
        Buffer &b = buffers[bi];
        if (!b.active || b.requestInFlight ||
            b.slots.size() >= kDepth) {
            continue;
        }
        switch (resolveTranslation(b.tr, b.nextAddr, now)) {
          case TrResolve::Dropped:
            // The stream crossed into an untranslated page: stop
            // streaming rather than prefetch blind.
            b.active = false;
            stTlbStopped.inc();
            continue;
          case TrResolve::Waiting:
            stTlbWaitCycles.inc();
            continue; // this stream waits; others may proceed
          case TrResolve::Ready:
            break;
        }
        // Stream past blocks the cache already holds (the stream
        // buffer sits beside the L1 and can see its tags).
        if (mem.tagProbe(b.tr.paddr)) {
            advanceHead(b);
            stSkippedRedundant.inc();
            continue;
        }
        auto result = mem.issuePrefetch(b.tr.paddr, now,
                                        FillDest::StreamBuffer, bi);
        switch (result) {
          case MemHierarchy::PfIssue::Issued:
            b.slots.push_back({b.nextAddr, b.tr.paddr, false});
            advanceHead(b);
            b.requestInFlight = true;
            stIssued.inc();
            break;
          case MemHierarchy::PfIssue::Redundant:
            // Already cached or in flight elsewhere: stream past it.
            advanceHead(b);
            stSkippedRedundant.inc();
            break;
          case MemHierarchy::PfIssue::NoResource:
            stIssueStalls.inc();
            return; // shared buses: no point trying other buffers
        }
    }
}

} // namespace fdip
