#include "bpu/btb.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

Btb::Btb(const Config &config)
    : cfg(config), tags("BTB", cfg.sets, cfg.ways)
{
    fatal_if(cfg.tagBits > fullTagBits(),
             "BTB tag wider than the full tag");
}

unsigned
Btb::fullTagBits() const
{
    // VA bits minus word-alignment bits minus set-index bits.
    unsigned idx_bits = floorLog2(cfg.sets);
    return vaBits - 2 - idx_bits;
}

std::uint64_t
Btb::tagOf(Addr pc) const
{
    std::uint64_t full = tags.tagOf(pc / instBytes);
    if (cfg.tagBits == 0)
        return full;
    // Keep the low 8 bits verbatim; fold the rest by XOR into the
    // remaining high bits of the compressed tag.
    unsigned low_bits = cfg.tagBits < 8 ? cfg.tagBits : 8;
    std::uint64_t low_mask = (std::uint64_t(1) << low_bits) - 1;
    std::uint64_t low = full & low_mask;
    if (cfg.tagBits <= 8)
        return low;
    std::uint64_t high = foldXor(full >> low_bits, cfg.tagBits - low_bits);
    return (high << low_bits) | low;
}

SetAssocTable<BtbHit>::Way *
Btb::find(Addr pc)
{
    return tags.find(tags.setOf(pc / instBytes), tagOf(pc));
}

std::optional<BtbHit>
Btb::lookup(Addr pc)
{
    if (auto *e = find(pc)) {
        tags.touch(*e);
        return e->payload;
    }
    return std::nullopt;
}

bool
Btb::canHold(Addr pc, InstClass cls, Addr target) const
{
    if (cfg.offsetBits == 0)
        return true;
    // Returns need no target field at all (the RAS supplies the
    // target); the BTB entry only identifies the instruction.
    if (cls == InstClass::Return)
        return true;
    // Indirect branches have no static offset; they need a full-width
    // target field.
    if (!isDirect(cls))
        return false;
    std::int64_t delta =
        (static_cast<std::int64_t>(target) -
         static_cast<std::int64_t>(pc)) / static_cast<std::int64_t>(
             instBytes);
    return bitsForOffset(delta) <= cfg.offsetBits;
}

void
Btb::insert(Addr pc, InstClass cls, Addr target)
{
    // Update in place on tag match.
    if (auto *e = find(pc)) {
        e->payload = BtbHit{cls, target};
        tags.touch(*e);
        return;
    }
    // Otherwise fill an invalid way, or evict the LRU way.
    auto &victim = tags.victim(tags.setOf(pc / instBytes));
    tags.fill(victim, tagOf(pc));
    victim.payload = BtbHit{cls, target};
}

void
Btb::invalidate(Addr pc)
{
    // insert() finds before it fills, so a tag sits in one way at most.
    if (auto *e = find(pc))
        tags.invalidate(*e);
}

unsigned
Btb::entryBits() const
{
    unsigned tag = cfg.tagBits == 0 ? fullTagBits() : cfg.tagBits;
    unsigned target = cfg.offsetBits == 0 ? vaBits - 2
                                          : cfg.offsetBits;
    return tag + 2 + target; // tag + type + target/offset
}

std::uint64_t
Btb::storageBits() const
{
    return std::uint64_t(numEntries()) * entryBits();
}

std::string
Btb::name() const
{
    return strprintf("btb[%ux%u,tag=%u,off=%u]", cfg.sets, cfg.ways,
                     cfg.tagBits, cfg.offsetBits);
}

} // namespace fdip
