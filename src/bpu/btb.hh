/**
 * @file btb.hh
 * One partition of the conventional (instruction-indexed) branch
 * target buffer. PartitionedBtb is the conventional BTB: an ensemble
 * of these that differ only in the width of their target-offset field.
 * A unified BTB is the ensemble with one full-width partition.
 *
 * A hit means "the instruction at this PC is a control-flow instruction
 * of this type with this (last-seen) target". Entries are allocated for
 * taken branches only, LRU-replaced within a set.
 */

#ifndef FDIP_BPU_BTB_HH
#define FDIP_BPU_BTB_HH

#include <optional>
#include <string>

#include "common/set_assoc_table.hh"
#include "common/types.hh"
#include "trace/instr.hh"

namespace fdip
{

struct BtbHit
{
    InstClass cls;
    Addr target;
};

class Btb
{
  public:
    struct Config
    {
        unsigned sets = 1024;
        unsigned ways = 4;
        /**
         * Tag width; 0 means a full tag. Non-zero widths keep the low
         * 8 bits of the full tag and fold the rest with XOR into the
         * remaining high bits (the compression scheme evaluated in the
         * tag-compression experiment).
         */
        unsigned tagBits = 0;
        /**
         * Width of the target-offset field in bits (offsets counted in
         * instructions, sign tracked separately); 0 stores full
         * targets. canHold() says which branches fit.
         */
        unsigned offsetBits = 0;
    };

    explicit Btb(const Config &config);

    /** Probe for a branch at @p pc; touches LRU on hit. */
    std::optional<BtbHit> lookup(Addr pc);

    /** Allocate/update the entry for a taken branch; the caller has
     *  checked canHold(). */
    void insert(Addr pc, InstClass cls, Addr target);

    /** Drop any entry for @p pc. */
    void invalidate(Addr pc);

    /** True if the branch's offset fits this BTB's target field. */
    bool canHold(Addr pc, InstClass cls, Addr target) const;

    /** Bits in one entry (tag + type + target field). */
    unsigned entryBits() const;

    /** Full (uncompressed) tag width for this geometry. */
    unsigned fullTagBits() const;

    unsigned numEntries() const { return cfg.sets * cfg.ways; }
    std::uint64_t storageBits() const;
    /** Geometry label, e.g. "btb[128x8,tag=16,off=8]". */
    std::string name() const;

    /** Count of currently valid entries (for tests/occupancy stats). */
    unsigned validEntries() const { return tags.validCount(); }

  private:
    /** The stored tag: the full tag, or its compressed form. */
    std::uint64_t tagOf(Addr pc) const;
    SetAssocTable<BtbHit>::Way *find(Addr pc);

    Config cfg;
    /** Keyed by pc / instBytes; the stored tag is tagOf(pc). */
    SetAssocTable<BtbHit> tags;
};

} // namespace fdip

#endif // FDIP_BPU_BTB_HH
