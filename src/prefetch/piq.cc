#include "prefetch/piq.hh"

#include "common/logging.hh"

namespace fdip
{

namespace
{

std::size_t
checkedCapacity(const std::string &owner, std::size_t capacity)
{
    fatal_if(capacity == 0, "%s candidate queue needs at least one entry",
             owner.c_str());
    return capacity;
}

} // namespace

Piq::Piq(const std::string &owner, std::size_t capacity)
    : q(checkedCapacity(owner, capacity))
{}

void
Piq::push(Addr block_addr)
{
    panic_if(full(), "push to full PIQ");
    // The slot may be a recycled one: write every field.
    PiqEntry &e = q.append();
    e.blockAddr = block_addr;
    e.tr = PfTranslationState{};
    present.add(block_addr);
}

void
Piq::popFront()
{
    present.remove(q.front().blockAddr);
    q.pop();
    if (probed_ > 0)
        --probed_;
}

void
Piq::removeAt(std::size_t i)
{
    // The PIQ is small; compact by shifting (hardware uses a CAM).
    panic_if(i >= q.size(), "PIQ removeAt out of range");
    present.remove(q.at(i).blockAddr);
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
    if (!present.mayContain(block_addr))
        return false;
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
    present.clear();
}

} // namespace fdip
