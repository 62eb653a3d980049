/**
 * @file tlb.hh
 * One TLB level: a set-associative, true-LRU cache of virtual page
 * numbers, used for the ITLB and for the larger, slower L2 TLB behind
 * it (whose hit latency the Mmu charges). Only presence matters (the
 * physical frame comes from the page table). Demand accesses update
 * recency and statistics; lookup() is side-effect-free so prefetchers
 * can test translations without perturbing replacement state.
 */

#ifndef FDIP_VM_TLB_HH
#define FDIP_VM_TLB_HH

#include <string>

#include "common/set_assoc_table.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

class Tlb
{
  public:
    struct Config
    {
        unsigned entries;
        unsigned assoc;
    };

    /** @p name ("itlb", "l2tlb") prefixes the stats and labels
     *  geometry errors. */
    Tlb(const std::string &name, const Config &config);

    /** Tag check only: no LRU update, no stats side effects. */
    bool lookup(Addr vpn) const { return tags.find(vpn) != nullptr; }

    /** Demand lookup: updates LRU and hit/miss statistics. */
    bool access(Addr vpn);

    /** Install a translation, evicting the set's LRU entry if full. */
    void insert(Addr vpn);

    unsigned numSets() const { return tags.numSets(); }
    unsigned numEntries() const { return cfg.entries; }
    unsigned validEntries() const { return tags.validCount(); }

    StatSet stats;

  private:
    StatSet::Counter stAccesses;
    StatSet::Counter stMisses;
    StatSet::Counter stHits;
    StatSet::Counter stEvictions;
    StatSet::Counter stFills;

    Config cfg;
    SetAssocTable<> tags;
};

} // namespace fdip

#endif // FDIP_VM_TLB_HH
