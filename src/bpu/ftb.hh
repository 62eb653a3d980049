/**
 * @file ftb.hh
 * Fetch target buffer: the basic-block-oriented BTB of the MICRO-32
 * front-end. Indexed by fetch-block start address; an entry describes
 * the run of straight-line instructions starting there, the type of the
 * terminating control-flow instruction, and its (last-seen) target.
 */

#ifndef FDIP_BPU_FTB_HH
#define FDIP_BPU_FTB_HH

#include <optional>
#include <string>

#include "common/set_assoc_table.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "trace/instr.hh"

namespace fdip
{

struct FtbBlock
{
    unsigned numInsts;   ///< instructions incl. the terminator
    InstClass termCls;
    Addr target;
};

class Ftb
{
  public:
    struct Config
    {
        unsigned sets = 1024;
        unsigned ways = 4;
    };

    /** Longest storable block: the width of the 5-bit bbSize field. */
    static constexpr unsigned kMaxBlockInsts = 31;

    explicit Ftb(const Config &config);

    /** Probe for a fetch block starting at @p start_pc. */
    std::optional<FtbBlock> lookup(Addr start_pc);

    /** Record the block [start_pc .. start_pc + num_insts) ending in a
     *  taken branch of class @p cls to @p target. */
    void insert(Addr start_pc, unsigned num_insts, InstClass cls,
                Addr target);

    /** Entry bits: tag + type(2) + bbSize(5) + target(vaBits-2). */
    unsigned entryBits() const;
    std::uint64_t storageBits() const;
    unsigned fullTagBits() const;
    unsigned numEntries() const { return cfg.sets * cfg.ways; }
    unsigned validEntries() const { return tags.validCount(); }
    std::string name() const;

    const Config &config() const { return cfg; }

    StatSet stats;

  private:
    StatSet::Counter stLookups = stats.registerCounter("ftb.lookups");
    StatSet::Counter stHits = stats.registerCounter("ftb.hits");
    StatSet::Counter stMisses = stats.registerCounter("ftb.misses");
    StatSet::Counter stInsertTruncated =
        stats.registerCounter("ftb.insert_truncated");
    StatSet::Counter stUpdates = stats.registerCounter("ftb.updates");
    StatSet::Counter stEvictions = stats.registerCounter("ftb.evictions");
    StatSet::Counter stInserts = stats.registerCounter("ftb.inserts");

    Config cfg;
    /** Keyed by start_pc / instBytes. */
    SetAssocTable<FtbBlock> tags;
};

} // namespace fdip

#endif // FDIP_BPU_FTB_HH
