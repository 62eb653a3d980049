#include "vm/tlb.hh"

#include "common/logging.hh"

namespace fdip
{

namespace
{

unsigned
setCount(const std::string &name, const Tlb::Config &cfg)
{
    fatal_if(cfg.entries == 0, "%s: needs at least one entry",
             name.c_str());
    fatal_if(cfg.assoc == 0 || cfg.entries % cfg.assoc != 0,
             "%s: entries must divide evenly into ways", name.c_str());
    return cfg.entries / cfg.assoc;
}

} // namespace

Tlb::Tlb(const std::string &name, const Config &config)
    : stAccesses(stats.registerCounter(name + ".accesses")),
      stMisses(stats.registerCounter(name + ".misses")),
      stHits(stats.registerCounter(name + ".hits")),
      stEvictions(stats.registerCounter(name + ".evictions")),
      stFills(stats.registerCounter(name + ".fills")),
      cfg(config), tags(name, setCount(name, cfg), cfg.assoc)
{}

bool
Tlb::access(Addr vpn)
{
    stAccesses.inc();
    auto *e = tags.find(vpn);
    if (e == nullptr) {
        stMisses.inc();
        return false;
    }
    tags.touch(*e);
    stHits.inc();
    return true;
}

void
Tlb::insert(Addr vpn)
{
    if (auto *e = tags.find(vpn)) {
        // Refreshed by a racing walk; just bump recency.
        tags.touch(*e);
        return;
    }
    auto &victim = tags.victim(tags.setOf(vpn));
    if (victim.valid())
        stEvictions.inc();
    tags.fill(victim, tags.tagOf(vpn));
    stFills.inc();
}

} // namespace fdip
