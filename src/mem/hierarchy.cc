#include "mem/hierarchy.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

/** Cycles from an L1-I (or buffer) hit to instructions streaming. */
constexpr Cycle kL1HitLatency = 1;

} // namespace

MemHierarchy::MemHierarchy(const MemConfig &config)
    : cfg(config), ownedShared(std::make_unique<SharedMem>(cfg)),
      l1i_(cfg.l1i), l2_(ownedShared->l2),
      vc(cfg.victimCacheEntries),
      pfBuf(cfg.prefetchBufferEntries),
      l2Bus_(ownedShared->l2Bus),
      memBus_(ownedShared->memBus),
      mshrFile(cfg.mshrs), dram(ownedShared->dram)
{
    fatal_if(cfg.l1TagPorts == 0, "L1-I needs at least one tag port");
    fatal_if(cfg.l1i.blockBytes != cfg.l2.blockBytes,
             "L1/L2 block size mismatch not supported");
}

MemHierarchy::MemHierarchy(const MemConfig &config, SharedMem &shared,
                           unsigned core_id, unsigned num_cores)
    : cfg(config), l1i_(cfg.l1i), l2_(shared.l2),
      vc(cfg.victimCacheEntries),
      pfBuf(cfg.prefetchBufferEntries),
      l2Bus_(shared.l2Bus),
      memBus_(shared.memBus),
      mshrFile(cfg.mshrs), dram(shared.dram),
      coreId_(core_id), multiCore_(num_cores > 1)
{
    fatal_if(cfg.l1TagPorts == 0, "L1-I needs at least one tag port");
    fatal_if(cfg.l1i.blockBytes != cfg.l2.blockBytes,
             "L1/L2 block size mismatch not supported");
    fatal_if(core_id >= num_cores, "core id out of range");
}

void
MemHierarchy::tick(Cycle now)
{
    portsUsed = 0;
    for (MshrEntry *e : mshrFile.ready(now)) {
        if (e->fillL2) {
            auto victim = l2_.insert(sharedTag(e->blockAddr));
            attr_.onL2Fill(sharedTag(e->blockAddr), victim,
                           e->isPrefetch);
        }
        switch (e->dest) {
          case FillDest::DemandL1:
            installL1(e->blockAddr);
            if (e->isPrefetch)
                attr_.onFill(e->blockAddr, now);
            break;
          case FillDest::PrefetchBuffer:
            if (auto evicted = pfBuf.insert(e->blockAddr))
                attr_.onEvictUnused(*evicted);
            attr_.onFill(e->blockAddr, now);
            break;
          case FillDest::StreamBuffer:
            // Fill attribution first, so an orphaned fill (stream
            // reallocated meanwhile) evict-classifies with a complete
            // lifecycle inside the client callback.
            attr_.onFill(e->blockAddr, now);
            if (streamFill) {
                streamFill->streamFill(e->streamId, e->slotId,
                                       e->blockAddr);
            }
            break;
        }
        mshrFile.free(*e);
    }
}

Cycle
MemHierarchy::nextEventCycle(Cycle now) const
{
    Cycle next = mshrFile.nextReadyCycle();
    // Bus releases are subsumed by the fills they belong to today, but
    // fold them in so the protocol stays correct if that ever changes.
    for (const Bus *bus : {&l2Bus_, &memBus_}) {
        Cycle free_at = bus->freeAtCycle();
        if (free_at > now && free_at < next)
            next = free_at;
    }
    return next <= now ? now + 1 : next;
}

void
MemHierarchy::installL1(Addr block_addr)
{
    auto evicted = l1i_.insert(block_addr);
    if (evicted && vc.enabled())
        vc.insert(*evicted);
}

bool
MemHierarchy::reserveTagPort()
{
    if (portsUsed >= cfg.l1TagPorts)
        return false;
    ++portsUsed;
    return true;
}

unsigned
MemHierarchy::freeTagPorts() const
{
    return cfg.l1TagPorts - portsUsed;
}

bool
MemHierarchy::tagProbe(Addr addr) const
{
    return l1i_.probe(l1i_.blockAlign(addr));
}

bool
MemHierarchy::prefetchRedundant(Addr addr) const
{
    Addr block = l1i_.blockAlign(addr);
    return pfBuf.probe(block) || mshrFile.find(block) != nullptr;
}

Cycle
MemHierarchy::fillLatency(Addr block_addr, Cycle now, bool is_prefetch,
                          bool &fills_l2, bool &granted)
{
    granted = true;
    fills_l2 = false;
    bool idle_only = is_prefetch && !cfg.prefetchMayQueueOnBus;
    // The per-core bus-share counters stay silent on a single-core
    // machine so its stat output is unchanged.
    auto charge_l2bus = [this] {
        if (multiCore_) {
            stL2BusShareCycles.inc(
                divCeil(cfg.l1i.blockBytes, cfg.l2BusBytesPerCycle));
            stL2BusShareTransfers.inc();
        }
    };
    auto charge_membus = [this] {
        if (multiCore_) {
            stMemBusShareCycles.inc(
                divCeil(cfg.l2.blockBytes, cfg.memBusBytesPerCycle));
            stMemBusShareTransfers.inc();
        }
    };
    if (l2_.access(sharedTag(block_addr))) {
        // L2 hit: pay L2 latency plus the L1<->L2 transfer.
        if (idle_only) {
            auto done = l2Bus_.tryTransfer(now + cfg.l2HitLatency,
                                           cfg.l1i.blockBytes);
            if (!done) {
                granted = false;
                return neverCycle;
            }
            charge_l2bus();
            return *done;
        }
        charge_l2bus();
        return l2Bus_.transfer(now + cfg.l2HitLatency,
                               cfg.l1i.blockBytes);
    }
    // L2 miss: memory access plus both bus transfers.
    fills_l2 = true;
    if (!is_prefetch)
        attr_.onL2DemandMiss(sharedTag(block_addr));
    Cycle dram_lat = dram.accessLatency(now, is_prefetch);
    Cycle mem_done;
    if (idle_only) {
        auto done = memBus_.tryTransfer(now + cfg.l2HitLatency + dram_lat,
                                        cfg.l2.blockBytes);
        if (!done) {
            granted = false;
            return neverCycle;
        }
        mem_done = *done;
        auto l1_done = l2Bus_.tryTransfer(mem_done, cfg.l1i.blockBytes);
        if (!l1_done) {
            granted = false;
            return neverCycle;
        }
        charge_membus();
        charge_l2bus();
        return *l1_done;
    }
    charge_membus();
    charge_l2bus();
    mem_done = memBus_.transfer(now + cfg.l2HitLatency + dram_lat,
                                cfg.l2.blockBytes);
    return l2Bus_.transfer(mem_done, cfg.l1i.blockBytes);
}

FetchAccess
MemHierarchy::demandFetch(Addr addr, Cycle now)
{
    FetchAccess res;
    Addr block = l1i_.blockAlign(addr);
    stDemandAccesses.inc();

    if (l1i_.access(block)) {
        res.hitL1 = true;
        res.readyAt = now + kL1HitLatency;
        return res;
    }

    // Victim cache: catches recent conflict evictions; a hit swaps
    // the block back into the L1 with one extra cycle of latency.
    if (vc.enabled() && vc.extract(block)) {
        installL1(block);
        res.hitL1 = true;
        res.readyAt = now + kL1HitLatency + 1;
        stVictimHits.inc();
        return res;
    }

    // Probed in parallel with the L1 tags: the prefetch buffer.
    if (pfBuf.consume(block)) {
        installL1(block);
        res.hitPrefetchBuffer = true;
        res.readyAt = now + kL1HitLatency;
        stPfbufHits.inc();
        attr_.onConsume(block, now);
        return res;
    }

    // Stream buffers (when configured) are probed next.
    if (streamProbe && streamProbe->probeAndConsume(block, now)) {
        installL1(block);
        res.hitStreamBuffer = true;
        res.readyAt = now + kL1HitLatency;
        stStreambufHits.inc();
        attr_.onConsume(block, now);
        return res;
    }

    stDemandMisses.inc();

    // Merge with an in-flight fill: the demand inherits its timing.
    if (MshrEntry *e = mshrFile.find(block)) {
        res.mergedInflight = true;
        res.mergedInflightPrefetch = e->isPrefetch;
        res.readyAt = e->readyAt > now ? e->readyAt : now + 1;
        if (e->dest != FillDest::DemandL1) {
            // Retarget the fill straight into the L1.
            e->dest = FillDest::DemandL1;
            stInflightRetargets.inc();
        }
        stInflightMerges.inc();
        if (e->isPrefetch) {
            stInflightPrefetchMerges.inc();
            attr_.onDemandMerge(block, now);
        }
        return res;
    }

    if (mshrFile.full()) {
        // MSHR pressure: the fetch engine retries next cycle.
        res.retry = true;
        stDemandMshrStalls.inc();
        return res;
    }

    bool fills_l2 = false;
    bool granted = false;
    Cycle ready = fillLatency(block, now, /*is_prefetch=*/false,
                              fills_l2, granted);
    panic_if(!granted, "demand fill must always be granted");

    MshrEntry *e = mshrFile.allocate(block, ready, /*is_prefetch=*/false,
                                     FillDest::DemandL1);
    panic_if(e == nullptr, "MSHR availability checked above");
    e->fillL2 = fills_l2;
    res.readyAt = ready;
    return res;
}

MemHierarchy::PfIssue
MemHierarchy::issuePrefetch(Addr addr, Cycle now, FillDest dest,
                            std::uint32_t stream_id, std::uint32_t slot_id)
{
    Addr block = l1i_.blockAlign(addr);
    stPrefetchAttempts.inc();

    if (prefetchRedundant(block)) {
        stPrefetchRedundant.inc();
        return PfIssue::Redundant;
    }
    if (mshrFile.prefetchesInFlight() >= cfg.maxOutstandingPrefetches ||
        mshrFile.full()) {
        stPrefetchMshrStalls.inc();
        return PfIssue::NoResource;
    }

    bool fills_l2 = false;
    bool granted = false;
    Cycle ready = fillLatency(block, now, /*is_prefetch=*/true,
                              fills_l2, granted);
    if (!granted) {
        stPrefetchBusStalls.inc();
        return PfIssue::NoResource;
    }

    MshrEntry *e = mshrFile.allocate(block, ready, /*is_prefetch=*/true,
                                     dest);
    panic_if(e == nullptr, "MSHR availability checked above");
    e->fillL2 = fills_l2;
    e->streamId = stream_id;
    e->slotId = slot_id;
    stPrefetchesIssued.inc();
    attr_.onIssue(block, now);
    return PfIssue::Issued;
}

void
MemHierarchy::collectStats(StatSet &out, bool include_shared) const
{
    out.merge(stats);
    out.merge(l1i_.stats, "l1i.");
    if (include_shared)
        out.merge(l2_.stats, "l2.");
    out.merge(vc.stats);
    out.merge(pfBuf.stats);
    if (include_shared) {
        out.merge(l2Bus_.stats, "l2bus.");
        out.merge(memBus_.stats, "membus.");
    }
    out.merge(mshrFile.stats);
    if (include_shared)
        out.merge(dram.stats);
    out.merge(attr_.stats);
}

} // namespace fdip
