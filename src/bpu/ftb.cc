#include "bpu/ftb.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Ftb::Ftb(const Config &config)
    : cfg(config), tags("FTB", cfg.sets, cfg.ways)
{}

unsigned
Ftb::fullTagBits() const
{
    return vaBits - 2 - floorLog2(cfg.sets);
}

std::optional<FtbBlock>
Ftb::lookup(Addr start_pc)
{
    stLookups.inc();
    if (auto *e = tags.find(start_pc / instBytes)) {
        tags.touch(*e);
        stHits.inc();
        return e->payload;
    }
    stMisses.inc();
    return std::nullopt;
}

void
Ftb::insert(Addr start_pc, unsigned num_insts, InstClass cls, Addr target)
{
    panic_if(num_insts == 0, "FTB block with no instructions");
    if (num_insts > kMaxBlockInsts) {
        // Blocks longer than the size field are truncated by hardware;
        // the tail is rediscovered as a separate (sequential) region.
        stInsertTruncated.inc();
        return;
    }
    std::uint64_t key = start_pc / instBytes;
    FtbBlock blk{num_insts, cls, target};
    if (auto *e = tags.find(key)) {
        e->payload = blk;
        tags.touch(*e);
        stUpdates.inc();
        return;
    }
    auto &victim = tags.victim(tags.setOf(key));
    if (victim.valid())
        stEvictions.inc();
    tags.fill(victim, tags.tagOf(key));
    victim.payload = blk;
    stInserts.inc();
}

unsigned
Ftb::entryBits() const
{
    return fullTagBits() + 2 + 5 + (vaBits - 2);
}

std::uint64_t
Ftb::storageBits() const
{
    return std::uint64_t(numEntries()) * entryBits();
}

std::string
Ftb::name() const
{
    return strprintf("ftb[%ux%u]", cfg.sets, cfg.ways);
}

} // namespace fdip
