#include "prefetch/mana.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

ManaPrefetcher::ManaPrefetcher(MemHierarchy &mem_ref, const Config &config)
    : QueuedPrefetcher(mem_ref, "mana", config.queueEntries), cfg(config),
      table("MANA table", cfg.tableSets, cfg.tableWays)
{
    fatal_if(cfg.regionBlocks == 0 || cfg.regionBlocks > 64 ||
                 !isPowerOf2(cfg.regionBlocks),
             "MANA region size must be a power-of-two block count <= 64");
    fatal_if(cfg.chainLength == 0,
             "MANA chain length must be at least 1 (the entered region)");
}

unsigned
ManaPrefetcher::entryBits(const Config &config)
{
    unsigned block_bits = 5; // 32B blocks; geometry-independent estimate
    unsigned region_bits =
        vaBits - block_bits - floorLog2(config.regionBlocks);
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

ManaPrefetcher::Region *
ManaPrefetcher::find(std::uint64_t region)
{
    auto *e = table.find(region);
    if (e == nullptr)
        return nullptr;
    table.touch(*e);
    return &e->payload;
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
    if (Region *e = find(region)) {
        *e = {footprint, successor};
        stRecordUpdates.inc();
        return;
    }
    auto &victim = table.victim(table.setOf(region));
    if (victim.valid()) {
        stEvictions.inc();
    } else {
        // Live-metadata accounting: bytes grow only while cold ways
        // fill, then plateau at tableCapacityBytes() (a counter, not a
        // gauge, so the warmup-window subtraction stays meaningful).
        stTableBytes.inc((entryBits(cfg) + 7) / 8);
    }
    table.fill(victim, table.tagOf(region));
    victim.payload = {footprint, successor};
}

void
ManaPrefetcher::replayRegion(std::uint64_t region, Addr trigger_block)
{
    stLookups.inc();
    Region *e = find(region);
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
            Enqueued res = enqueue(cand);
            if (res == Enqueued::DisplacedOldest)
                stQueueDrops.inc();
            if (res != Enqueued::Duplicate)
                stReplayedBlocks.inc();
        }
        if (depth + 1 == cfg.chainLength)
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

} // namespace fdip
