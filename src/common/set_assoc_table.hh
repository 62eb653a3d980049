/**
 * @file set_assoc_table.hh
 * The set-associative tag store behind the FTB, the BTB (and so every
 * partition of the partitioned BTB), the L1-I and L2 caches, both TLB
 * levels and MANA's region table: power-of-two sets of N ways, each
 * way a tag, a recency stamp and the owner's payload. A stamp of 0
 * marks an invalid way.
 *
 * A plain key splits into set (low bits) and tag (the rest); owners
 * that compress tags pass their own. find() leaves recency alone and
 * touch() stamps, so side-effect-free probes and demand hits share one
 * lookup. victim() is every owner's replacement rule: the set's first
 * invalid way, else its oldest stamp, the lowest way winning a tie.
 */

#ifndef FDIP_COMMON_SET_ASSOC_TABLE_HH
#define FDIP_COMMON_SET_ASSOC_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

/** Payload of a table that stores presence only (caches, TLBs). */
struct TagOnly
{};

template <typename Payload = TagOnly>
class SetAssocTable
{
  public:
    struct Way
    {
        std::uint64_t tag = 0;
        /** Last fill or touch; 0 while the way is invalid. */
        std::uint64_t stamp = 0;
        [[no_unique_address]] Payload payload{};

        bool valid() const { return stamp != 0; }
    };

    /** @p owner names the table in geometry errors. */
    SetAssocTable(const std::string &owner, unsigned sets, unsigned ways)
        : sets_(sets), ways_(ways)
    {
        fatal_if(!isPowerOf2(sets),
                 "%s: set count must be a power of two (got %u)",
                 owner.c_str(), sets);
        fatal_if(ways == 0, "%s: needs at least one way", owner.c_str());
        setBits = floorLog2(sets);
        table.resize(std::size_t(sets) * ways);
    }

    unsigned numSets() const { return sets_; }

    std::size_t setOf(std::uint64_t key) const { return key & (sets_ - 1); }
    std::uint64_t tagOf(std::uint64_t key) const { return key >> setBits; }

    /** The key that setOf()/tagOf() split into @p set and @p tag. */
    std::uint64_t
    keyOf(std::size_t set, std::uint64_t tag) const
    {
        return (tag << setBits) | set;
    }

    /** The valid way of @p set holding @p tag, or nullptr. Recency is
     *  left alone: touch() a hit that counts as a use. */
    Way *
    find(std::size_t set, std::uint64_t tag)
    {
        Way *w = &table[set * ways_];
        for (Way *end = w + ways_; w != end; ++w) {
            if (w->valid() && w->tag == tag)
                return w;
        }
        return nullptr;
    }

    const Way *
    find(std::size_t set, std::uint64_t tag) const
    {
        return const_cast<SetAssocTable *>(this)->find(set, tag);
    }

    Way *find(std::uint64_t key) { return find(setOf(key), tagOf(key)); }
    const Way *
    find(std::uint64_t key) const
    {
        return find(setOf(key), tagOf(key));
    }

    /** Make @p way its set's most recently used. */
    void touch(Way &way) { way.stamp = ++clock; }

    /** The way a fill of @p set replaces: the first invalid way, else
     *  the oldest stamp, the lowest way winning a tie. An invalid way
     *  holds the smallest stamp, 0, so one min-stamp scan is both. */
    Way &
    victim(std::size_t set)
    {
        Way *w = &table[set * ways_];
        Way *oldest = w;
        for (Way *end = w + ways_; w != end; ++w) {
            if (w->stamp < oldest->stamp)
                oldest = w;
        }
        return *oldest;
    }

    /** Way @p w of @p set (for owners that pick victims themselves). */
    Way &way(std::size_t set, unsigned w) { return table[set * ways_ + w]; }

    /** Claim @p way for @p tag as its set's most recently used. The
     *  caller writes the payload. */
    void
    fill(Way &way, std::uint64_t tag)
    {
        way.tag = tag;
        touch(way);
    }

    void invalidate(Way &way) { way.stamp = 0; }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const Way &w : table)
            n += w.valid();
        return n;
    }

  private:
    unsigned sets_;
    unsigned ways_;
    unsigned setBits = 0;
    std::vector<Way> table;
    /** The last stamp handed out; touch() pre-increments, so stamps
     *  start at 1 and 0 stays free to mean invalid. */
    std::uint64_t clock = 0;
};

} // namespace fdip

#endif // FDIP_COMMON_SET_ASSOC_TABLE_HH
