/**
 * @file partitioned_btb.hh
 * The conventional (instruction-indexed) BTB, built as in the 2020
 * "FDIP Revisited" follow-up: one logical BTB split into several
 * physical BTBs that differ only in the width of the target-offset
 * field. A branch is allocated in the smallest partition whose offset
 * field can encode its target, cutting target-storage cost
 * dramatically because short offsets dominate. A unified BTB is the
 * one-partition ensemble with a full-width target field:
 * Config{{{0, sets, ways}}, 0}.
 */

#ifndef FDIP_BPU_PARTITIONED_BTB_HH
#define FDIP_BPU_PARTITIONED_BTB_HH

#include <vector>

#include "bpu/btb.hh"
#include "common/stats.hh"

namespace fdip
{

class PartitionedBtb
{
  public:
    struct PartitionSpec
    {
        unsigned offsetBits;  ///< 0 = full-width target field
        unsigned sets;
        unsigned ways;
    };

    struct Config
    {
        std::vector<PartitionSpec> partitions;
        unsigned tagBits = 16; ///< 0 = full tag
    };

    explicit PartitionedBtb(const Config &config);

    /**
     * The 4-partition organization (8-, 13-, 23-bit and full-width
     * target fields), sized to fit within the storage of a
     * @p unified_entries basic-block-oriented BTB. Following the
     * methodology of the follow-up work, the per-partition entry
     * counts reflect the measured branch-offset distribution of this
     * repository's workload suite: short offsets dominate, so the
     * 8-bit partition gets 1.5x the unified entry count and the
     * longer-offset partitions get a quarter each.
     * @p unified_entries must make unified_entries/16 a power of two.
     * Tags keep the Config default of 16 bits.
     */
    static Config makeDefaultConfig(unsigned unified_entries);

    /** Probe every partition for a branch at @p pc; touches LRU on
     *  hit. */
    std::optional<BtbHit> lookup(Addr pc);

    /** Allocate/update the entry for a taken branch in the smallest
     *  partition that can hold it. */
    void insert(Addr pc, InstClass cls, Addr target);

    std::uint64_t storageBits() const;

    unsigned numPartitions() const
    {
        return static_cast<unsigned>(parts.size());
    }

    const Btb &partition(unsigned i) const { return parts.at(i); }
    unsigned numEntries() const;

    StatSet stats;

  private:
    StatSet::Counter stLookups = stats.registerCounter("pbtb.lookups");
    StatSet::Counter stHits = stats.registerCounter("pbtb.hits");
    StatSet::Counter stMisses = stats.registerCounter("pbtb.misses");
    StatSet::Counter stInsertRejected =
        stats.registerCounter("pbtb.insert_rejected");
    /** Per-partition insert counters, filled in the constructor. */
    std::vector<StatSet::Counter> stInsertByPartition;

    /** Smallest partition index whose offset field fits the branch. */
    int partitionFor(Addr pc, InstClass cls, Addr target) const;

    std::vector<Btb> parts;
};

} // namespace fdip

#endif // FDIP_BPU_PARTITIONED_BTB_HH
