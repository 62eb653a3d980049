/**
 * @file cache.hh
 * Set-associative cache tag/presence model with LRU, FIFO or random
 * replacement, over the shared SetAssocTable. Only tags matter to a
 * front-end study; no data is stored.
 */

#ifndef FDIP_MEM_CACHE_HH
#define FDIP_MEM_CACHE_HH

#include <optional>
#include <string>

#include "common/set_assoc_table.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

/** Victim-selection policy. */
enum class ReplPolicy : std::uint8_t
{
    Lru,    ///< true least-recently-used
    Fifo,   ///< oldest fill leaves first (no access recency)
    Random, ///< pseudo-random way (cheap hardware)
};

const char *replPolicyName(ReplPolicy policy);

class Cache
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t sizeBytes = 16 * 1024;
        unsigned assoc = 2;
        unsigned blockBytes = 32;
        ReplPolicy repl = ReplPolicy::Lru;
    };

    explicit Cache(const Config &config);

    Addr
    blockAlign(Addr addr) const
    {
        return addr & ~Addr(cfg.blockBytes - 1);
    }

    /** Tag check only: no LRU update, no stats side effects. */
    bool
    probe(Addr addr) const
    {
        return tags.find(addr >> blockShift) != nullptr;
    }

    /** Demand access: updates LRU and hit/miss statistics. */
    bool access(Addr addr);

    /**
     * Fill @p addr, evicting per the policy if the set is full, and
     * return the evicted block, if any. Filling a resident block only
     * refreshes its stamp, under every policy.
     */
    std::optional<Addr> insert(Addr addr);

    const Config &config() const { return cfg; }
    unsigned numSets() const { return tags.numSets(); }
    unsigned numBlocks() const { return tags.numSets() * cfg.assoc; }
    unsigned validBlocks() const { return tags.validCount(); }

    StatSet stats;

  private:
    StatSet::Counter stAccesses = stats.registerCounter("cache.accesses");
    StatSet::Counter stHits = stats.registerCounter("cache.hits");
    StatSet::Counter stMisses = stats.registerCounter("cache.misses");
    StatSet::Counter stEvictions = stats.registerCounter("cache.evictions");
    StatSet::Counter stFills = stats.registerCounter("cache.fills");

    Config cfg;
    /** Keyed by addr >> blockShift. */
    SetAssocTable<> tags;
    /** log2(blockBytes); the constructor checks it is a power of two. */
    unsigned blockShift;
    std::uint64_t randState = 0x243f6a8885a308d3ULL;
};

} // namespace fdip

#endif // FDIP_MEM_CACHE_HH
