#include "mem/mshr.hh"

#include "common/logging.hh"

namespace fdip
{

MshrFile::MshrFile(unsigned n)
    : entries(n)
{
    fatal_if(n == 0, "MSHR file needs at least one entry");
}

MshrEntry *
MshrFile::find(Addr block_addr)
{
    if (!present.mayContain(block_addr))
        return nullptr;
    for (auto &e : entries) {
        if (e.valid && e.blockAddr == block_addr)
            return &e;
    }
    return nullptr;
}

const MshrEntry *
MshrFile::find(Addr block_addr) const
{
    return const_cast<MshrFile *>(this)->find(block_addr);
}

MshrEntry *
MshrFile::allocate(Addr block_addr, Cycle ready_at, bool is_prefetch,
                   FillDest dest)
{
    panic_if(find(block_addr) != nullptr,
             "duplicate MSHR allocation for %#llx",
             static_cast<unsigned long long>(block_addr));
    for (auto &e : entries) {
        if (!e.valid) {
            e.valid = true;
            e.blockAddr = block_addr;
            e.readyAt = ready_at;
            e.isPrefetch = is_prefetch;
            e.fillL2 = false;
            e.dest = dest;
            e.streamId = 0;
            ++inUse_;
            present.add(block_addr);
            if (is_prefetch)
                ++prefetches_;
            if (ready_at < earliest_)
                earliest_ = ready_at;
            stAllocations.inc();
            return &e;
        }
    }
    stAllocFailures.inc();
    return nullptr;
}

void
MshrFile::free(MshrEntry &entry)
{
    panic_if(!entry.valid, "freeing invalid MSHR entry");
    entry.valid = false;
    --inUse_;
    present.remove(entry.blockAddr);
    if (entry.isPrefetch)
        --prefetches_;
    if (entry.readyAt == earliest_)
        earliest_ = scanEarliest();
}

std::vector<MshrEntry *>
MshrFile::ready(Cycle now)
{
    std::vector<MshrEntry *> out;
    if (now < earliest_)
        return out;
    for (auto &e : entries) {
        if (e.valid && e.readyAt <= now)
            out.push_back(&e);
    }
    return out;
}

Cycle
MshrFile::scanEarliest() const
{
    Cycle next = kNever;
    for (const auto &e : entries) {
        if (e.valid && e.readyAt < next)
            next = e.readyAt;
    }
    return next;
}

void
MshrFile::clear()
{
    for (auto &e : entries)
        e.valid = false;
    inUse_ = 0;
    prefetches_ = 0;
    earliest_ = kNever;
    present.clear();
}

} // namespace fdip
