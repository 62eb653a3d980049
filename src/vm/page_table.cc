#include "vm/page_table.hh"

#include <utility>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "trace/program.hh"

namespace fdip
{

PageTable::PageTable(Addr code_base, Addr code_end, unsigned page_bytes,
                     PageMapKind kind, std::uint64_t seed)
    : bytes(page_bytes)
{
    fatal_if(!isPowerOf2(page_bytes), "page size must be a power of two");
    fatal_if(page_bytes < instBytes, "pages smaller than an instruction");
    fatal_if(code_end <= code_base, "PageTable over an empty range");
    shift = floorLog2(page_bytes);
    base_ = alignDown(code_base, page_bytes);
    Addr top = alignUp(code_end, page_bytes);
    std::size_t n = static_cast<std::size_t>((top - base_) >> shift);

    frames.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        frames[i] = (base_ >> shift) + i;
    if (kind == PageMapKind::Scrambled) {
        // Seeded Fisher-Yates over the code's own frame pool keeps the
        // map a bijection and reproducible across runs.
        Rng rng(seed);
        for (std::size_t i = n; i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(rng.below(i));
            std::swap(frames[i - 1], frames[j]);
        }
    }
}

PageTable::PageTable(const Program &prog, unsigned page_bytes,
                     PageMapKind kind, std::uint64_t seed)
    : PageTable(prog.base, prog.codeEnd(), page_bytes, kind, seed)
{}

Addr
PageTable::translate(Addr vaddr) const
{
    Addr v = vpn(vaddr);
    Addr first = base_ >> shift;
    if (v < first || v >= first + frames.size())
        return vaddr;
    return (frames[v - first] << shift) | pageOffset(vaddr);
}

} // namespace fdip
