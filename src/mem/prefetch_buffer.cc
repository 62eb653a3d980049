#include "mem/prefetch_buffer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fdip
{

PrefetchBuffer::PrefetchBuffer(unsigned entries)
    : cap(entries)
{
    fatal_if(entries == 0, "prefetch buffer needs at least one entry");
    buf.reserve(cap);
}

bool
PrefetchBuffer::probe(Addr block_addr) const
{
    return present.mayContain(block_addr) &&
        std::any_of(buf.begin(), buf.end(),
                    [&](const Slot &s) { return s.addr == block_addr; });
}

bool
PrefetchBuffer::consume(Addr block_addr)
{
    if (!present.mayContain(block_addr))
        return false;
    for (auto it = buf.begin(); it != buf.end(); ++it) {
        if (it->addr == block_addr) {
            buf.erase(it);
            present.remove(block_addr);
            stConsumed.inc();
            return true;
        }
    }
    return false;
}

std::optional<Addr>
PrefetchBuffer::insert(Addr block_addr)
{
    if (probe(block_addr)) {
        stDuplicateFills.inc();
        return std::nullopt;
    }
    std::optional<Addr> evicted;
    if (buf.size() == cap) {
        evicted = buf.front().addr;
        buf.erase(buf.begin());
        present.remove(*evicted);
        stUnusedEvictions.inc();
    }
    buf.push_back({block_addr});
    present.add(block_addr);
    stFills.inc();
    return evicted;
}

void
PrefetchBuffer::clear()
{
    stFlushedEntries.inc(buf.size());
    buf.clear();
    present.clear();
}

} // namespace fdip
