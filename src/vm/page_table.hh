/**
 * @file page_table.hh
 * Virtual->physical page mapping for the simulated code image. The
 * mapping is built once from a laid-out program: identity by default
 * (VM timing without relocation) or a seeded permutation of the code's
 * own page frames, which makes TLB behaviour and physical contiguity
 * non-trivial while keeping the map bijective.
 */

#ifndef FDIP_VM_PAGE_TABLE_HH
#define FDIP_VM_PAGE_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace fdip
{

class Program;

/** How virtual code pages map onto physical page frames. */
enum class PageMapKind : std::uint8_t
{
    Identity,  ///< paddr == vaddr for every page
    Scrambled, ///< seeded permutation of the code's page frames
};

class PageTable
{
  public:
    PageTable(Addr code_base, Addr code_end, unsigned page_bytes,
              PageMapKind kind, std::uint64_t seed);

    /** Convenience: map the pages spanned by a laid-out program. */
    PageTable(const Program &prog, unsigned page_bytes, PageMapKind kind,
              std::uint64_t seed);

    Addr vpn(Addr vaddr) const { return vaddr >> shift; }
    Addr pageOffset(Addr vaddr) const { return vaddr & (bytes - 1); }

    /**
     * Translate any virtual address. Pages outside the mapped code
     * range (wrong-path walks can run off the image) are
     * identity-mapped; the scrambled permutation only touches frames
     * inside the image, so the two regions never collide.
     */
    Addr translate(Addr vaddr) const;

    std::size_t numPages() const { return frames.size(); }

  private:
    unsigned bytes;
    unsigned shift;
    Addr base_; ///< page-aligned start of the mapped range
    std::vector<Addr> frames; ///< physical frame number per mapped vpn
};

} // namespace fdip

#endif // FDIP_VM_PAGE_TABLE_HH
