#include "prefetch/piq.hh"

#include "common/logging.hh"

namespace fdip
{

Piq::Piq(std::size_t capacity)
    : q(capacity)
{}

void
Piq::push(Addr block_addr)
{
    panic_if(full(), "push to full PIQ");
    PiqEntry e;
    e.blockAddr = block_addr;
    q.push(e);
}

void
Piq::popFront()
{
    q.pop();
    if (probed_ > 0)
        --probed_;
}

void
Piq::removeAt(std::size_t i)
{
    // The PIQ is small; compact by shifting (hardware uses a CAM).
    panic_if(i >= q.size(), "PIQ removeAt out of range");
    for (std::size_t k = i; k + 1 < q.size(); ++k)
        q.at(k) = q.at(k + 1);
    q.truncate(q.size() - 1);
    if (i < probed_)
        --probed_;
}

void
Piq::extendProbedPrefix()
{
    panic_if(probed_ >= q.size(), "PIQ probed prefix past end");
    ++probed_;
}

bool
Piq::contains(Addr block_addr) const
{
    for (std::size_t i = 0; i < q.size(); ++i) {
        if (q.at(i).blockAddr == block_addr)
            return true;
    }
    return false;
}

void
Piq::flush()
{
    q.clear();
    probed_ = 0;
}

} // namespace fdip
