/**
 * @file mana.hh
 * MANA-style record/replay instruction prefetching: the demand fetch
 * stream is chopped into spatial regions; the footprint of blocks that
 * missed inside each region is recorded in a set-associative "MANA
 * table" when the stream leaves the region, and replayed (prefetched
 * into the prefetch buffer) the next time the stream re-enters it.
 * Entries also remember the successor region, so a replay can chase a
 * short chain of regions ahead of the fetch stream.
 *
 * Unlike FDP, which reads the *future* fetch stream out of the FTQ,
 * MANA buys its lookahead with dedicated metadata storage; the
 * mana.table_bytes / evictions counters price that trade (see
 * docs/PREFETCHERS.md).
 */

#ifndef FDIP_PREFETCH_MANA_HH
#define FDIP_PREFETCH_MANA_HH

#include "common/set_assoc_table.hh"
#include "prefetch/prefetcher.hh"

namespace fdip
{

class ManaPrefetcher : public QueuedPrefetcher
{
  public:
    struct Config
    {
        /** Cache blocks per spatial region (power of two, max 64). */
        unsigned regionBlocks = 8;
        /** MANA table geometry (sets a power of two). */
        unsigned tableSets = 128;
        unsigned tableWays = 4;
        /** Pending replay-candidate queue size. */
        std::size_t queueEntries = 16;
        /** Regions replayed per trigger, entered region included
         *  (successor-chain lookahead; 1 disables chaining). */
        unsigned chainLength = 2;
    };

    ManaPrefetcher(MemHierarchy &mem, const Config &config);

    void onDemandAccess(Addr block_addr, const FetchAccess &access,
                        Cycle now) override;

    /** Bits in one MANA table entry: tag + footprint bitmap +
     *  successor region pointer (+ valid bits). */
    static unsigned entryBits(const Config &config);
    /** Total table capacity in bytes (entries x rounded-up entry
     *  bytes) — the scheme's metadata budget. */
    static std::uint64_t tableCapacityBytes(const Config &config);

  private:
    /** One table entry's payload; the table is keyed by region. */
    struct Region
    {
        std::uint64_t footprint; ///< bit per block in the region
        std::uint64_t successor; ///< next region the stream entered
    };

    static constexpr std::uint64_t kNoRegion = ~std::uint64_t(0);

    std::uint64_t regionBytes() const;
    /** The region's entry, touched as a use; nullptr on a miss. */
    Region *find(std::uint64_t region);
    void recordRegion(std::uint64_t region, std::uint64_t footprint,
                      std::uint64_t successor);
    void replayRegion(std::uint64_t region, Addr trigger_block);

    StatSet::Counter stRecords = stats.registerCounter("mana.records");
    StatSet::Counter stRecordUpdates =
        stats.registerCounter("mana.record_updates");
    StatSet::Counter stEvictions = stats.registerCounter("mana.evictions");
    StatSet::Counter stTableBytes =
        stats.registerCounter("mana.table_bytes");
    StatSet::Counter stLookups = stats.registerCounter("mana.lookups");
    StatSet::Counter stReplays = stats.registerCounter("mana.replays");
    StatSet::Counter stChainReplays =
        stats.registerCounter("mana.chain_replays");
    StatSet::Counter stReplayedBlocks =
        stats.registerCounter("mana.replayed_blocks");
    StatSet::Counter stQueueDrops =
        stats.registerCounter("mana.queue_drops");

    Config cfg;

    SetAssocTable<Region> table;
    std::uint64_t curRegion = kNoRegion;
    std::uint64_t curFootprint = 0;
};

} // namespace fdip

#endif // FDIP_PREFETCH_MANA_HH
