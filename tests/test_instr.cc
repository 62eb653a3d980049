/** Tests for instruction-class helpers and FetchBlock geometry. */

#include <gtest/gtest.h>

#include "bpu/bpu.hh"
#include "trace/instr.hh"

using namespace fdip;

TEST(InstClass, ControlPredicate)
{
    EXPECT_FALSE(isControl(InstClass::NonCF));
    for (auto cls : {InstClass::CondBr, InstClass::Jump, InstClass::Call,
                     InstClass::Return, InstClass::IndJump,
                     InstClass::IndCall}) {
        EXPECT_TRUE(isControl(cls)) << instClassName(cls);
    }
}

TEST(InstClass, UnconditionalPredicate)
{
    EXPECT_FALSE(isUnconditional(InstClass::NonCF));
    EXPECT_FALSE(isUnconditional(InstClass::CondBr));
    for (auto cls : {InstClass::Jump, InstClass::Call, InstClass::Return,
                     InstClass::IndJump, InstClass::IndCall}) {
        EXPECT_TRUE(isUnconditional(cls)) << instClassName(cls);
    }
}

TEST(InstClass, CallPredicate)
{
    EXPECT_TRUE(isCall(InstClass::Call));
    EXPECT_TRUE(isCall(InstClass::IndCall));
    EXPECT_FALSE(isCall(InstClass::Return));
    EXPECT_FALSE(isCall(InstClass::Jump));
}

TEST(InstClass, DirectVsIndirectPartition)
{
    // Every control class is direct, indirect, or a return.
    for (auto cls : {InstClass::CondBr, InstClass::Jump, InstClass::Call,
                     InstClass::IndJump, InstClass::IndCall,
                     InstClass::Return}) {
        bool direct = isDirect(cls);
        bool indirect = isIndirect(cls);
        EXPECT_FALSE(direct && indirect) << instClassName(cls);
        if (cls != InstClass::Return) {
            EXPECT_TRUE(direct || indirect) << instClassName(cls);
        }
    }
}

TEST(InstClass, NamesAreUnique)
{
    std::set<std::string> names;
    for (auto cls : {InstClass::NonCF, InstClass::CondBr, InstClass::Jump,
                     InstClass::Call, InstClass::Return,
                     InstClass::IndJump, InstClass::IndCall}) {
        names.insert(instClassName(cls));
    }
    EXPECT_EQ(names.size(), 7u);
}

TEST(TraceInstr, NextPcFollowsTakenFlag)
{
    TraceInstr ti;
    ti.pc = 0x1000;
    ti.cls = InstClass::CondBr;
    ti.target = 0x2000;
    ti.taken = false;
    EXPECT_EQ(ti.nextPc(), 0x1004u);
    ti.taken = true;
    EXPECT_EQ(ti.nextPc(), 0x2000u);
}

TEST(FetchBlock, Geometry)
{
    FetchBlock blk;
    blk.startPc = 0x1000;
    blk.numInsts = 5;
    EXPECT_EQ(blk.pcOf(0), 0x1000u);
    EXPECT_EQ(blk.pcOf(4), 0x1010u);
    EXPECT_EQ(blk.endPc(), 0x1014u);
}
