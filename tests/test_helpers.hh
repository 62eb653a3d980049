/**
 * @file test_helpers.hh
 * Hand-built miniature programs and small utilities shared by tests.
 */

#ifndef FDIP_TESTS_TEST_HELPERS_HH
#define FDIP_TESTS_TEST_HELPERS_HH

#include <memory>

#include "common/random.hh"
#include "trace/program.hh"

namespace fdip::testutil
{

/**
 * A single infinite loop:
 *   fn0: bb0 (4 insts, plain)
 *        bb1 (4 insts, ends in Jump -> bb0)
 * 8 instructions total, footprint 32 bytes.
 */
inline std::unique_ptr<Program>
makeTightLoop()
{
    auto prog = std::make_unique<Program>();
    Function fn;
    fn.level = 0;

    BasicBlock b0;
    b0.numInsts = 4;
    b0.term = InstClass::NonCF;
    fn.blocks.push_back(b0);

    BasicBlock b1;
    b1.numInsts = 4;
    b1.term = InstClass::Jump;
    b1.targetBb = 0;
    fn.blocks.push_back(b1);

    prog->funcs.push_back(fn);
    prog->layout();
    prog->validate();
    return prog;
}

/**
 * Dispatcher + callee with a patterned conditional:
 *   fn0: bb0 (2 insts, Call -> fn1)
 *        bb1 (2 insts, Jump -> bb0)
 *   fn1: bb0 (3 insts, CondBr pattern TNTN.. -> bb2)
 *        bb1 (3 insts, plain fallthrough)
 *        bb2 (2 insts, Return)
 */
inline std::unique_ptr<Program>
makeCallPattern()
{
    auto prog = std::make_unique<Program>();

    Function f0;
    f0.level = 0;
    {
        BasicBlock b0;
        b0.numInsts = 2;
        b0.term = InstClass::Call;
        b0.targetFn = 1;
        f0.blocks.push_back(b0);

        BasicBlock b1;
        b1.numInsts = 2;
        b1.term = InstClass::Jump;
        b1.targetBb = 0;
        f0.blocks.push_back(b1);
    }

    Function f1;
    f1.level = 1;
    {
        BasicBlock b0;
        b0.numInsts = 3;
        b0.term = InstClass::CondBr;
        b0.targetBb = 2;
        b0.cond.kind = CondBehavior::Kind::Pattern;
        b0.cond.pattern = 0b01; // T, N, T, N, ...
        b0.cond.patternLen = 2;
        f1.blocks.push_back(b0);

        BasicBlock b1;
        b1.numInsts = 3;
        b1.term = InstClass::NonCF;
        f1.blocks.push_back(b1);

        BasicBlock b2;
        b2.numInsts = 2;
        b2.term = InstClass::Return;
        f1.blocks.push_back(b2);
    }

    prog->funcs.push_back(f0);
    prog->funcs.push_back(f1);
    prog->layout();
    prog->validate();
    return prog;
}

/**
 * Straight-line code over many cache blocks, looping at the end:
 *   fn0: bb0 (num_insts plain insts)
 *        bb1 (2 insts, Jump -> bb0)
 * Used to exercise sequential fetch/prefetch across blocks.
 */
inline std::unique_ptr<Program>
makeLongStraightLoop(unsigned num_insts = 256)
{
    auto prog = std::make_unique<Program>();
    Function fn;
    fn.level = 0;

    BasicBlock b0;
    b0.numInsts = num_insts;
    b0.term = InstClass::NonCF;
    fn.blocks.push_back(b0);

    BasicBlock b1;
    b1.numInsts = 2;
    b1.term = InstClass::Jump;
    b1.targetBb = 0;
    fn.blocks.push_back(b1);

    prog->funcs.push_back(fn);
    prog->layout();
    prog->validate();
    return prog;
}

/**
 * A block address for the differential tests of the lookups a
 * PresenceCounts filter guards. The pool holds 320 addresses, more
 * than the filter's 256 buckets, so some share a bucket whatever the
 * hash; the draw favours low indices, so repeats are common.
 */
inline Addr
drawKey(Rng &rng)
{
    constexpr std::uint64_t kPool = 320;
    return 0x10000 + rng.below(rng.below(kPool) + 1) * 64;
}

} // namespace fdip::testutil

#endif // FDIP_TESTS_TEST_HELPERS_HH
