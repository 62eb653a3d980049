#include "mem/cache.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

unsigned
setCount(const Cache::Config &cfg)
{
    fatal_if(cfg.blockBytes == 0 || !isPowerOf2(cfg.blockBytes),
             "cache '%s': block size must be a power of two",
             cfg.name.c_str());
    fatal_if(cfg.assoc == 0, "cache '%s': zero associativity",
             cfg.name.c_str());
    std::uint64_t num_blocks = cfg.sizeBytes / cfg.blockBytes;
    fatal_if(num_blocks == 0 || num_blocks % cfg.assoc != 0,
             "cache '%s': size/assoc/block geometry invalid",
             cfg.name.c_str());
    return static_cast<unsigned>(num_blocks / cfg.assoc);
}

} // namespace

Cache::Cache(const Config &config)
    : cfg(config),
      tags("cache '" + cfg.name + "'", setCount(cfg), cfg.assoc),
      blockShift(floorLog2(cfg.blockBytes))
{}

const char *
replPolicyName(ReplPolicy policy)
{
    switch (policy) {
      case ReplPolicy::Lru: return "lru";
      case ReplPolicy::Fifo: return "fifo";
      case ReplPolicy::Random: return "random";
    }
    return "?";
}

bool
Cache::access(Addr addr)
{
    stAccesses.inc();
    if (auto *b = tags.find(addr >> blockShift)) {
        // FIFO ignores access recency: the stamp is fill time only.
        if (cfg.repl == ReplPolicy::Lru)
            tags.touch(*b);
        stHits.inc();
        return true;
    }
    stMisses.inc();
    return false;
}

std::optional<Addr>
Cache::insert(Addr addr)
{
    std::uint64_t key = addr >> blockShift;
    if (auto *b = tags.find(key)) {
        // Already present (e.g. duplicate fill): refresh only.
        tags.touch(*b);
        return std::nullopt;
    }

    // Invalid ways fill first under every policy. LRU and FIFO both
    // evict the oldest stamp; they differ in whether access()
    // refreshes it.
    std::size_t set = tags.setOf(key);
    auto *victim = &tags.victim(set);
    if (victim->valid() && cfg.repl == ReplPolicy::Random) {
        // xorshift64 way choice: cheap and deterministic per run.
        randState ^= randState << 13;
        randState ^= randState >> 7;
        randState ^= randState << 17;
        victim = &tags.way(set, randState % cfg.assoc);
    }

    std::optional<Addr> evicted;
    if (victim->valid()) {
        stEvictions.inc();
        evicted = tags.keyOf(set, victim->tag) << blockShift;
    }
    tags.fill(*victim, tags.tagOf(key));
    stFills.inc();
    return evicted;
}

} // namespace fdip
