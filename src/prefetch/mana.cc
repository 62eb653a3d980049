#include "prefetch/mana.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

ManaPrefetcher::ManaPrefetcher(MemHierarchy &mem_ref, const Config &config)
    : mem(mem_ref), cfg(config)
{
    fatal_if(cfg.regionBlocks == 0 || cfg.regionBlocks > 64 ||
                 !isPowerOf2(cfg.regionBlocks),
             "MANA region size must be a power-of-two block count <= 64");
    fatal_if(!isPowerOf2(cfg.tableSets),
             "MANA table set count must be a power of two");
    fatal_if(cfg.tableWays == 0, "MANA table needs at least one way");
    fatal_if(cfg.queueEntries == 0,
             "MANA replay queue needs at least one entry");
    fatal_if(cfg.chainLength == 0,
             "MANA chain length must be at least 1 (the entered region)");
    table.resize(std::size_t(cfg.tableSets) * cfg.tableWays);
}

unsigned
ManaPrefetcher::entryBits(const Config &config)
{
    unsigned block_bits = 5; // 32B blocks; geometry-independent estimate
    unsigned region_bits =
        config.vaBits - block_bits - floorLog2(config.regionBlocks);
    unsigned tag_bits = region_bits - floorLog2(config.tableSets);
    // tag + footprint bitmap + successor region pointer + entry-valid
    // and successor-valid bits.
    return tag_bits + config.regionBlocks + region_bits + 2;
}

std::uint64_t
ManaPrefetcher::tableCapacityBytes(const Config &config)
{
    std::uint64_t entries =
        std::uint64_t(config.tableSets) * config.tableWays;
    return entries * ((entryBits(config) + 7) / 8);
}

std::uint64_t
ManaPrefetcher::regionBytes() const
{
    return std::uint64_t(mem.l1i().config().blockBytes) *
        cfg.regionBlocks;
}

std::size_t
ManaPrefetcher::setBase(std::uint64_t region) const
{
    return std::size_t(region & (cfg.tableSets - 1)) * cfg.tableWays;
}

std::uint64_t
ManaPrefetcher::tagOf(std::uint64_t region) const
{
    return region >> floorLog2(cfg.tableSets);
}

ManaPrefetcher::Entry *
ManaPrefetcher::find(std::uint64_t region)
{
    std::size_t base = setBase(region);
    std::uint64_t tag = tagOf(region);
    for (unsigned w = 0; w < cfg.tableWays; ++w) {
        Entry &e = table[base + w];
        if (e.valid && e.tag == tag) {
            e.lruStamp = ++lruClock;
            return &e;
        }
    }
    return nullptr;
}

void
ManaPrefetcher::recordRegion(std::uint64_t region,
                             std::uint64_t footprint,
                             std::uint64_t successor)
{
    // Regions the stream walked through without a single miss carry no
    // replayable information; recording them would only thrash the
    // table.
    if (footprint == 0)
        return;
    stRecords.inc();
    if (Entry *e = find(region)) {
        e->footprint = footprint;
        e->successor = successor;
        e->hasSuccessor = true;
        stRecordUpdates.inc();
        return;
    }
    std::size_t base = setBase(region);
    Entry *victim = &table[base];
    for (unsigned w = 0; w < cfg.tableWays; ++w) {
        Entry &e = table[base + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (e.lruStamp < victim->lruStamp)
            victim = &e;
    }
    if (victim->valid) {
        stEvictions.inc();
    } else {
        // Live-metadata accounting: bytes grow only while cold ways
        // fill, then plateau at tableCapacityBytes() (a counter, not a
        // gauge, so the warmup-window subtraction stays meaningful).
        stTableBytes.inc((entryBits(cfg) + 7) / 8);
    }
    victim->valid = true;
    victim->tag = tagOf(region);
    victim->footprint = footprint;
    victim->successor = successor;
    victim->hasSuccessor = true;
    victim->lruStamp = ++lruClock;
}

void
ManaPrefetcher::enqueue(Addr vaddr)
{
    bool queued = std::any_of(
        pending.begin(), pending.end(),
        [vaddr](const Cand &c) { return c.vaddr == vaddr; });
    if (queued)
        return;
    if (pending.size() >= cfg.queueEntries) {
        pending.pop_front();
        stQueueDrops.inc();
    }
    Cand c;
    c.vaddr = vaddr;
    pending.push_back(c);
    stReplayedBlocks.inc();
}

void
ManaPrefetcher::replayRegion(std::uint64_t region, Addr trigger_block)
{
    stLookups.inc();
    Entry *e = find(region);
    if (e == nullptr)
        return;
    stReplays.inc();
    unsigned bb = mem.l1i().config().blockBytes;
    std::uint64_t r = region;
    for (unsigned depth = 0; depth < cfg.chainLength; ++depth) {
        Addr base = Addr(r) * regionBytes();
        for (unsigned b = 0; b < cfg.regionBlocks; ++b) {
            if ((e->footprint & (std::uint64_t(1) << b)) == 0)
                continue;
            Addr cand = base + Addr(b) * bb;
            if (depth == 0 && cand == trigger_block)
                continue; // the demand access already fetched it
            enqueue(cand);
        }
        if (!e->hasSuccessor || depth + 1 == cfg.chainLength)
            break;
        r = e->successor;
        e = find(r);
        if (e == nullptr)
            break;
        stChainReplays.inc();
    }
}

void
ManaPrefetcher::onDemandAccess(Addr block_addr, const FetchAccess &access,
                               Cycle now)
{
    std::uint64_t region = block_addr / regionBytes();
    unsigned bb = mem.l1i().config().blockBytes;
    unsigned block_idx =
        unsigned(block_addr / bb) & (cfg.regionBlocks - 1);

    if (region != curRegion) {
        // Leaving a region finalizes its footprint; entering one
        // replays whatever an earlier visit recorded for it.
        if (curRegion != kNoRegion)
            recordRegion(curRegion, curFootprint, region);
        curRegion = region;
        curFootprint = 0;
        replayRegion(region, block_addr);
    }
    // The footprint records blocks the cache could not serve: true
    // misses plus first uses of prefetched blocks (so a region's
    // record stays stable once its own replays start hitting).
    if (isTrueMiss(access) || access.hitPrefetchBuffer)
        curFootprint |= std::uint64_t(1) << block_idx;
}

Cycle
ManaPrefetcher::nextEventCycle(Cycle now) const
{
    if (pending.empty())
        return kNever;
    const Cand &head = pending.front();
    if (!head.tr.translated)
        return now + 1;
    Cycle wake = translationWakeCycle(head.tr, now);
    return wake <= now + 1 ? now + 1 : wake;
}

void
ManaPrefetcher::chargeIdleCycles(Cycle now, Cycle cycles)
{
    if (!pending.empty() && pending.front().tr.translated &&
        translationWaiting(pending.front().tr)) {
        stTlbWaitStalls.inc(cycles);
    }
}

void
ManaPrefetcher::tick(Cycle now)
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
