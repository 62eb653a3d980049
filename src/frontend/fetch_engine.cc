#include "frontend/fetch_engine.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

FetchEngine::FetchEngine(Ftq &ftq_ref, MemHierarchy &mem_ref,
                         Backend &backend_ref, const Config &config)
    : ftq(ftq_ref), mem(mem_ref), backend(backend_ref), cfg(config)
{
    fatal_if(cfg.fetchWidth == 0, "fetch width must be nonzero");
}

void
FetchEngine::tick(Cycle now)
{
    if (now < stallUntil) {
        (stalledOnWalk ? stItlbStallCycles : stMissStallCycles).inc();
        return;
    }
    stalledOnWalk = false;
    if (ftq.empty()) {
        stFtqEmptyCycles.inc();
        return;
    }
    if (backend.freeSlots() == 0) {
        stBackendFullCycles.inc();
        return;
    }

    FtqEntry &e = ftq.head();
    Addr pc = e.blk.pcOf(e.fetchedInsts);
    Addr block = mem.l1i().blockAlign(pc);

    // Address translation precedes the cache access. An ITLB miss
    // stalls fetch for the L2-TLB refill or page walk (a demand walk
    // queues ahead of any prefetch walks when the walkers are
    // saturated, so readyAt is exact); the refill/walk fills the
    // ITLB, so the retry at readyAt translates without further delay.
    Addr fetch_pc = pc;
    if (mmu != nullptr && mmu->enabled()) {
        TlbAccess tr = mmu->demandTranslate(pc, now);
        if (!tr.hit) {
            stallUntil = tr.readyAt;
            stalledOnWalk = true;
            stItlbMisses.inc();
            return;
        }
        fetch_pc = tr.paddr;
    }

    // The demand fetch owns the first tag port of every cycle; the
    // fetch engine ticks before any prefetcher, so this cannot fail.
    bool port = mem.reserveTagPort();
    panic_if(!port, "demand fetch found no tag port");

    FetchAccess acc = mem.demandFetch(fetch_pc, now);

    // Prefetchers see the virtual block: candidate generation follows
    // the predicted fetch stream and translates at issue time.
    for (Prefetcher *pf : prefetchers)
        pf->onDemandAccess(block, acc, now);

    if (acc.retry) {
        stMshrRetryCycles.inc();
        return;
    }

    bool ready_now = acc.hitL1 || acc.hitPrefetchBuffer ||
        acc.hitStreamBuffer;
    if (!ready_now) {
        panic_if(acc.readyAt == neverCycle, "miss without a fill time");
        stallUntil = acc.readyAt;
        stDemandMisses.inc();
        if (e.blk.wrongPath || e.fetchedInsts >= e.blk.validLen)
            stWrongPathMisses.inc();
        return;
    }

    // Deliver this cycle: bounded by fetch width, the entry, the cache
    // block boundary, and backend queue space.
    unsigned to_block_end = static_cast<unsigned>(
        (block + mem.l1i().config().blockBytes - pc) / instBytes);
    unsigned n = std::min({cfg.fetchWidth,
                           e.blk.numInsts - e.fetchedInsts,
                           to_block_end,
                           static_cast<unsigned>(backend.freeSlots())});
    panic_if(n == 0, "fetch delivered nothing on a hit");

    for (unsigned k = 0; k < n; ++k) {
        unsigned idx = e.fetchedInsts + k;
        DeliveredInst di;
        di.wrongPath = e.blk.wrongPath || idx >= e.blk.validLen;
        di.seq = di.wrongPath ? 0 : e.blk.firstSeq + idx;
        backend.deliver(di);
        if (di.wrongPath)
            stWrongPathDelivered.inc();

        if (e.blk.diverges && idx == e.blk.culpritIdx) {
            panic_if(redirectPending(), "two outstanding redirects");
            Cycle lat = e.blk.decodeFixable ? kDecodeRedirectLatency
                                            : kResolveRedirectLatency;
            redirectAt = now + lat;
            stRedirectsScheduled.inc();
            if (e.blk.decodeFixable)
                stDecodeRedirects.inc();
            else
                stResolveRedirects.inc();
        }
    }

    e.fetchedInsts += n;
    stDelivered.inc(n);
    if (e.fetchedInsts == e.blk.numInsts)
        ftq.popHead();
}

Cycle
FetchEngine::nextEventCycle(Cycle now) const
{
    Cycle next = kNever;
    if (redirectPending())
        next = redirectAt > now ? redirectAt : now + 1;
    if (now + 1 < stallUntil)
        return stallUntil < next ? stallUntil : next;
    // Not stalled next cycle: fetch acts unless the FTQ is empty or
    // the backend queue is full.
    if (!ftq.empty() && backend.freeSlots() > 0)
        return now + 1;
    return next;
}

void
FetchEngine::chargeIdleCycles(Cycle now, Cycle cycles)
{
    if (now + 1 < stallUntil) {
        panic_if(now + cycles >= stallUntil,
                 "idle charge crosses a fetch stall expiry");
        (stalledOnWalk ? stItlbStallCycles : stMissStallCycles)
            .inc(cycles);
        return;
    }
    stalledOnWalk = false;
    if (ftq.empty()) {
        stFtqEmptyCycles.inc(cycles);
    } else if (backend.freeSlots() == 0) {
        stBackendFullCycles.inc(cycles);
    } else {
        panic("idle-charging a fetch engine that would act");
    }
}

void
FetchEngine::squash()
{
    stallUntil = 0;
    stalledOnWalk = false;
    redirectAt = neverCycle;
    stSquashes.inc();
}

} // namespace fdip
