/**
 * @file code_image.hh
 * Flat, PC-indexed view of a program's static instructions: given any
 * PC inside the image it tells whether the instruction there is a
 * branch and, for direct branches, where it goes. The shadow-btb
 * scheme's line decoder is its one reader in the simulator, and builds
 * the image itself (prefetch/shadow_btb.hh).
 */

#ifndef FDIP_TRACE_CODE_IMAGE_HH
#define FDIP_TRACE_CODE_IMAGE_HH

#include <vector>

#include "common/types.hh"
#include "trace/instr.hh"
#include "trace/program.hh"

namespace fdip
{

/** Static properties of one instruction in the image. */
struct StaticInst
{
    InstClass cls = InstClass::NonCF;
    /** Static destination for direct CF; invalidAddr otherwise. */
    Addr target = invalidAddr;
};

class CodeImage
{
  public:
    /** Build the image from a laid-out, validated program. */
    explicit CodeImage(const Program &prog);

    Addr base() const { return base_; }
    Addr end() const { return end_; }
    std::uint64_t numInsts() const { return insts.size(); }
    std::uint64_t codeBytes() const { return end_ - base_; }

    bool
    contains(Addr pc) const
    {
        return pc >= base_ && pc < end_ && (pc & (instBytes - 1)) == 0;
    }

    /** Static instruction at @p pc; PC must be inside the image. */
    const StaticInst &at(Addr pc) const;

    /**
     * Static instruction at @p pc, or a NonCF placeholder when the PC
     * is outside the image (a decoded cache line can run past the end
     * of the code).
     */
    const StaticInst &atOrPlain(Addr pc) const;

    /** Count of static instructions per class (for characterization). */
    std::uint64_t countClass(InstClass cls) const;

  private:
    Addr base_;
    Addr end_;
    std::vector<StaticInst> insts;
    StaticInst plain;
};

} // namespace fdip

#endif // FDIP_TRACE_CODE_IMAGE_HH
