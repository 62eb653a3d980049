#include "bpu/partitioned_btb.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

PartitionedBtb::PartitionedBtb(const Config &config)
{
    fatal_if(config.partitions.empty(), "partitioned BTB with no partitions");
    // Sort ascending by offset width so partitionFor picks the
    // smallest adequate one; a zero (full) width sorts last.
    std::vector<PartitionSpec> specs = config.partitions;
    std::sort(specs.begin(), specs.end(),
              [](const PartitionSpec &a, const PartitionSpec &b) {
                  unsigned wa = a.offsetBits == 0 ? ~0u : a.offsetBits;
                  unsigned wb = b.offsetBits == 0 ? ~0u : b.offsetBits;
                  return wa < wb;
              });
    for (const auto &spec : specs) {
        parts.emplace_back(Btb::Config{spec.sets, spec.ways,
                                       config.tagBits, spec.offsetBits});
    }
    for (std::size_t i = 0; i < parts.size(); ++i) {
        stInsertByPartition.push_back(stats.registerCounter(
            strprintf("pbtb.insert_p%d", static_cast<int>(i))));
    }
}

PartitionedBtb::Config
PartitionedBtb::makeDefaultConfig(unsigned unified_entries)
{
    fatal_if(unified_entries < 64, "partitioned BTB too small");
    fatal_if(!isPowerOf2(unified_entries / 16),
             "unified_entries/16 must be a power of two");
    Config cfg;
    unsigned e = unified_entries;
    // Sizing follows the suite's measured offset distribution:
    // ~79% of taken branches (plus all returns) fit 8-bit offsets,
    // a few percent each land in the 9-13 and 14-23 bit classes, and
    // indirect branches need full-width targets. Total entries are
    // ~2.4x the unified design within the same storage budget.
    cfg.partitions = {
        {8, e / 4, 6},    // 1.5e entries, 26-bit entries
        {13, e / 16, 4},  // 0.25e entries, 31-bit entries
        {23, e / 16, 4},  // 0.25e entries, 41-bit entries
        {0, e / 16, 6},   // 0.375e entries, 64-bit entries
    };
    return cfg;
}

int
PartitionedBtb::partitionFor(Addr pc, InstClass cls, Addr target) const
{
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (parts[i].canHold(pc, cls, target))
            return static_cast<int>(i);
    }
    return -1;
}

std::optional<BtbHit>
PartitionedBtb::lookup(Addr pc)
{
    stLookups.inc();
    // All partitions are probed in parallel in hardware.
    for (auto &p : parts) {
        if (auto hit = p.lookup(pc)) {
            stHits.inc();
            return hit;
        }
    }
    stMisses.inc();
    return std::nullopt;
}

void
PartitionedBtb::insert(Addr pc, InstClass cls, Addr target)
{
    int pi = partitionFor(pc, cls, target);
    if (pi < 0) {
        stInsertRejected.inc();
        return;
    }
    // A branch whose target distance changed class must not linger in
    // another partition, or lookups could see a stale target.
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (static_cast<int>(i) != pi)
            parts[i].invalidate(pc);
    }
    parts[pi].insert(pc, cls, target);
    stInsertByPartition[static_cast<std::size_t>(pi)].inc();
}

std::uint64_t
PartitionedBtb::storageBits() const
{
    std::uint64_t bits = 0;
    for (const auto &p : parts)
        bits += p.storageBits();
    return bits;
}

unsigned
PartitionedBtb::numEntries() const
{
    unsigned n = 0;
    for (const auto &p : parts)
        n += p.numEntries();
    return n;
}

} // namespace fdip
