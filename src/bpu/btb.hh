/**
 * @file btb.hh
 * Conventional (instruction-indexed) branch target buffer, plus the
 * abstract interface shared with the partitioned-BTB extension.
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
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/instr.hh"

namespace fdip
{

struct BtbHit
{
    InstClass cls;
    Addr target;
};

/** Interface common to the unified and partitioned BTBs. */
class BtbIface
{
  public:
    virtual ~BtbIface() = default;

    /** Probe for a branch at @p pc; touches LRU on hit. */
    virtual std::optional<BtbHit> lookup(Addr pc) = 0;

    /** Allocate/update the entry for a taken branch. */
    virtual void insert(Addr pc, InstClass cls, Addr target) = 0;

    virtual std::uint64_t storageBits() const = 0;
    virtual std::string name() const = 0;

    StatSet stats;
};

class Btb : public BtbIface
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
         * targets. Branches whose offset does not fit are rejected by
         * insert() unless the target field is full width.
         */
        unsigned offsetBits = 0;
    };

    explicit Btb(const Config &config);

    std::optional<BtbHit> lookup(Addr pc) override;
    void insert(Addr pc, InstClass cls, Addr target) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /** Drop any entry for @p pc. */
    void invalidate(Addr pc);

    /** True if the branch's offset fits this BTB's target field. */
    bool canHold(Addr pc, InstClass cls, Addr target) const;

    /** Bits in one entry (tag + type + target field). */
    unsigned entryBits() const;

    /** Full (uncompressed) tag width for this geometry. */
    unsigned fullTagBits() const;

    unsigned numEntries() const { return cfg.sets * cfg.ways; }

    /** Count of currently valid entries (for tests/occupancy stats). */
    unsigned validEntries() const { return tags.validCount(); }

  private:
    StatSet::Counter stLookups = stats.registerCounter("btb.lookups");
    StatSet::Counter stHits = stats.registerCounter("btb.hits");
    StatSet::Counter stMisses = stats.registerCounter("btb.misses");
    StatSet::Counter stInsertRejected =
        stats.registerCounter("btb.insert_rejected");
    StatSet::Counter stUpdates = stats.registerCounter("btb.updates");
    StatSet::Counter stEvictions = stats.registerCounter("btb.evictions");
    StatSet::Counter stInserts = stats.registerCounter("btb.inserts");
    StatSet::Counter stInvalidations =
        stats.registerCounter("btb.invalidations");

    /** The stored tag: the full tag, or its compressed form. */
    std::uint64_t tagOf(Addr pc) const;
    SetAssocTable<BtbHit>::Way *find(Addr pc);

    Config cfg;
    /** Keyed by pc / instBytes; the stored tag is tagOf(pc). */
    SetAssocTable<BtbHit> tags;
};

} // namespace fdip

#endif // FDIP_BPU_BTB_HH
