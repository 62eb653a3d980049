/** Tests for the stochastic executor and the trace window. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fnv.hh"
#include "test_helpers.hh"
#include "trace/code_image.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"

using namespace fdip;

namespace
{

WorkloadProfile
miniProfile()
{
    WorkloadProfile p;
    p.name = "mini";
    p.seed = 7;
    return p;
}

/** The first @p n instructions of @p p's stream over @p prog, from an
 *  executor of their own. */
std::vector<TraceInstr>
referenceStream(const Program &prog, const WorkloadProfile &p,
                std::size_t n)
{
    SyntheticExecutor ex(prog, p);
    std::vector<TraceInstr> ref;
    for (std::size_t i = 0; i < n; ++i)
        ref.push_back(ex.next());
    return ref;
}

/** No pc appears twice, so no instruction can pass for another. */
bool
repeatsNoPc(const std::vector<TraceInstr> &ref)
{
    std::set<Addr> pcs;
    for (const TraceInstr &t : ref)
        pcs.insert(t.pc);
    return pcs.size() == ref.size();
}

void
expectSameInstr(const TraceInstr &got, const TraceInstr &want,
                InstSeqNum seq)
{
    EXPECT_EQ(got.pc, want.pc) << "seq " << seq;
    EXPECT_EQ(got.cls, want.cls) << "seq " << seq;
    EXPECT_EQ(got.taken, want.taken) << "seq " << seq;
    EXPECT_EQ(got.target, want.target) << "seq " << seq;
}

} // namespace

TEST(Executor, TightLoopRepeatsForever)
{
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor ex(*prog, miniProfile());
    Addr base = prog->base;
    // 8-instruction loop; pc sequence must cycle with period 8.
    std::vector<Addr> first;
    for (int i = 0; i < 8; ++i)
        first.push_back(ex.next().pc);
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 8; ++i) {
            TraceInstr ti = ex.next();
            EXPECT_EQ(ti.pc, first[i]);
        }
    }
    EXPECT_EQ(first[0], base);
}

TEST(Executor, JumpIsAlwaysTaken)
{
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor ex(*prog, miniProfile());
    for (int i = 0; i < 64; ++i) {
        TraceInstr ti = ex.next();
        if (ti.cls == InstClass::Jump) {
            EXPECT_TRUE(ti.taken);
            EXPECT_EQ(ti.target, prog->funcs[0].blocks[0].start);
        }
    }
}

TEST(Executor, PatternBranchFollowsPattern)
{
    auto prog = testutil::makeCallPattern();
    SyntheticExecutor ex(*prog, miniProfile());
    std::vector<bool> outcomes;
    for (int i = 0; i < 400 && outcomes.size() < 8; ++i) {
        TraceInstr ti = ex.next();
        if (ti.cls == InstClass::CondBr)
            outcomes.push_back(ti.taken);
    }
    ASSERT_GE(outcomes.size(), 8u);
    // pattern 0b01, len 2: T, N, T, N, ...
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(outcomes[i], i % 2 == 0) << "at " << i;
}

TEST(Executor, CallReturnPairing)
{
    auto prog = testutil::makeCallPattern();
    SyntheticExecutor ex(*prog, miniProfile());
    std::vector<Addr> shadow;
    for (int i = 0; i < 5000; ++i) {
        TraceInstr ti = ex.next();
        if (isCall(ti.cls)) {
            shadow.push_back(ti.pc + instBytes);
        } else if (ti.cls == InstClass::Return) {
            ASSERT_FALSE(shadow.empty());
            EXPECT_EQ(ti.target, shadow.back());
            shadow.pop_back();
        }
    }
}

TEST(Executor, NextPcChainsForTightLoop)
{
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor ex(*prog, miniProfile());
    TraceInstr prev = ex.next();
    for (int i = 0; i < 1000; ++i) {
        TraceInstr cur = ex.next();
        EXPECT_EQ(cur.pc, prev.nextPc());
        prev = cur;
    }
}

// ---------------------------------------------------------------------
// Whole-suite properties.
// ---------------------------------------------------------------------

class ExecutorSuite : public ::testing::TestWithParam<std::string>
{};

TEST_P(ExecutorSuite, TraceIsConsistentWithImage)
{
    const WorkloadProfile &p = findProfile(GetParam());
    auto prog = buildProgram(p);
    CodeImage img(*prog);
    SyntheticExecutor ex(*prog, p);

    TraceInstr prev = ex.next();
    for (int i = 0; i < 100 * 1000; ++i) {
        TraceInstr ti = ex.next();
        // Correct-path stream: each pc follows from the previous one.
        ASSERT_EQ(ti.pc, prev.nextPc());
        // Every pc lies inside the code image.
        ASSERT_TRUE(img.contains(ti.pc));
        // The dynamic class matches the static image.
        const StaticInst &si = img.at(ti.pc);
        ASSERT_EQ(ti.cls, si.cls);
        // Direct control flow targets the static target.
        if (isDirect(ti.cls) && isControl(ti.cls)) {
            ASSERT_EQ(ti.target, si.target);
        }
        // Unconditional control flow is always taken.
        if (isUnconditional(ti.cls)) {
            ASSERT_TRUE(ti.taken);
        }
        prev = ti;
    }
}

TEST_P(ExecutorSuite, Deterministic)
{
    const WorkloadProfile &p = findProfile(GetParam());
    auto prog = buildProgram(p);
    SyntheticExecutor a(*prog, p), b(*prog, p);
    Fnv1a stream;
    for (int i = 0; i < 20000; ++i) {
        TraceInstr x = a.next(), y = b.next();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.taken, y.taken);
        ASSERT_EQ(x.target, y.target);
        stream.u64(x.pc);
        stream.u64(static_cast<std::uint64_t>(x.cls));
        stream.u64(x.target);
        stream.b(x.taken);
    }

    // The first 20000 dynamic instructions, pinned across builder and
    // executor changes. Re-record only for an intended change to the
    // synthetic programs or their execution.
    static const std::map<std::string, std::uint64_t> pinned = {
        {"li", 0x1a81d76ba22c3213ull},
        {"ijpeg", 0x669e8b3b12d72f64ull},
        {"m88ksim", 0x47331cd795231d3dull},
        {"deltablue", 0x3da68a2d8d158ef7ull},
        {"burg", 0x175fcf317b52d767ull},
        {"perl", 0xb319671e9a8355dcull},
        {"go", 0xd9d83f46f7435207ull},
        {"groff", 0x716eeb8703ab34cdull},
        {"gcc", 0x2a0de2d3427cfd8aull},
        {"vortex", 0x921a2265bc5e2fbaull},
    };
    auto it = pinned.find(GetParam());
    ASSERT_NE(it, pinned.end()) << "no pinned digest for " << GetParam();
    EXPECT_EQ(stream.h, it->second) << std::hex << "0x" << stream.h;
}

TEST_P(ExecutorSuite, DynamicMixIsReasonable)
{
    const WorkloadProfile &p = findProfile(GetParam());
    auto prog = buildProgram(p);
    SyntheticExecutor ex(*prog, p);
    for (int i = 0; i < 200 * 1000; ++i)
        ex.next();
    const StatSet &s = ex.classStats();
    double total = static_cast<double>(ex.emitted());
    double branches = s.value("dyn.cond") + s.value("dyn.jump") +
        s.value("dyn.call") + s.value("dyn.ret") +
        s.value("dyn.indcall") + s.value("dyn.indjump");
    // SPEC-class codes are ~10-30% control flow.
    EXPECT_GT(branches / total, 0.05);
    EXPECT_LT(branches / total, 0.45);
    EXPECT_GT(s.value("dyn.cond"), 0.0);
    EXPECT_GT(s.value("dyn.call"), 0.0);
    // Calls and returns balance up to the live call-stack depth at
    // the cutoff point.
    double imbalance = s.value("dyn.call") + s.value("dyn.indcall") -
        s.value("dyn.ret");
    EXPECT_GE(imbalance, 0.0);
    EXPECT_LE(imbalance, 32.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ExecutorSuite,
                         ::testing::ValuesIn(allWorkloadNames()));

// ---------------------------------------------------------------------
// TraceWindow.
// ---------------------------------------------------------------------

TEST(TraceWindow, RandomAccessGeneratesForward)
{
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor ex(*prog, miniProfile());
    TraceWindow win(ex);
    const TraceInstr &i5 = win.at(5);
    EXPECT_EQ(win.windowSize(), 6u);
    EXPECT_EQ(i5.pc, prog->base + 5 * instBytes);
    // Earlier entries remain accessible.
    EXPECT_EQ(win.at(0).pc, prog->base);
}

TEST(TraceWindow, RetireReleasesStorage)
{
    // vortex's first loop closes at instruction 114.
    const WorkloadProfile &p = findProfile("vortex");
    auto prog = buildProgram(p);
    std::vector<TraceInstr> ref = referenceStream(*prog, p, 110);
    ASSERT_TRUE(repeatsNoPc(ref));
    SyntheticExecutor ex(*prog, p);
    TraceWindow win(ex);
    win.at(99);
    EXPECT_EQ(win.windowSize(), 100u);
    win.retireUpTo(50);
    EXPECT_EQ(win.baseSeq(), 50u);
    EXPECT_EQ(win.windowSize(), 50u);
    for (InstSeqNum s = 50; s < 100; ++s) // still accessible
        expectSameInstr(win.at(s), ref[s], s);
    win.retireUpTo(104); // the 50 held and 4 not yet generated
    EXPECT_EQ(win.baseSeq(), 104u);
    EXPECT_EQ(win.windowSize(), 0u);
    for (InstSeqNum s = 104; s < ref.size(); ++s)
        expectSameInstr(win.at(s), ref[s], s);
}

TEST(TraceWindowDeath, BelowBasePanics)
{
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor ex(*prog, miniProfile());
    TraceWindow win(ex);
    win.at(10);
    win.retireUpTo(5);
    EXPECT_DEATH(win.at(2), "below window base");
}

TEST(TraceWindow, RetireBeyondGeneratedIsSafe)
{
    const WorkloadProfile &p = findProfile("vortex");
    auto prog = buildProgram(p);
    std::vector<TraceInstr> ref = referenceStream(*prog, p, 40);
    ASSERT_TRUE(repeatsNoPc(ref));
    SyntheticExecutor ex(*prog, p);
    TraceWindow win(ex);
    win.at(3);
    win.retireUpTo(10); // beyond what exists
    EXPECT_EQ(win.baseSeq(), 10u);
    for (InstSeqNum s = 10; s < ref.size(); ++s)
        expectSameInstr(win.at(s), ref[s], s);
}

TEST(TraceWindow, RetirePastTheWindowKeepsNumberingDense)
{
    auto prog = testutil::makeCallPattern();
    SyntheticExecutor ex(*prog, miniProfile()), ref_ex(*prog, miniProfile());
    std::vector<Addr> ref;
    for (int i = 0; i < 100; ++i)
        ref.push_back(ref_ex.next().pc);

    TraceWindow win(ex);
    win.at(3);
    win.retireUpTo(10); // 4 held, 6 generated and discarded
    EXPECT_EQ(win.baseSeq(), 10u);
    EXPECT_EQ(win.windowSize(), 0u);
    for (InstSeqNum s = 10; s < 40; ++s)
        ASSERT_EQ(win.at(s).pc, ref[s]) << "seq " << s;
    win.retireUpTo(60); // 30 held, 20 past the window
    for (InstSeqNum s = 60; s < 100; ++s)
        ASSERT_EQ(win.at(s).pc, ref[s]) << "seq " << s;
}

TEST(TraceWindow, BulkRetireMatchesRetiringOneAtATime)
{
    const WorkloadProfile &p = findProfile("gcc");
    auto prog = buildProgram(p);
    SyntheticExecutor bulk_ex(*prog, p), step_ex(*prog, p);
    TraceWindow bulk(bulk_ex), step(step_ex);
    InstSeqNum lo = 0;
    for (unsigned round = 0; round < 200; ++round) {
        InstSeqNum hi = lo + 5 + 61 * (round % 9);
        bulk.at(hi);
        step.at(hi);
        lo += 1 + 47 * (round % 7); // sometimes past hi
        bulk.retireUpTo(lo);
        while (step.baseSeq() < lo)
            step.retireUpTo(step.baseSeq() + 1);
        ASSERT_EQ(bulk.baseSeq(), step.baseSeq());
        ASSERT_EQ(bulk.windowSize(), step.windowSize());
        InstSeqNum end = lo + bulk.windowSize() + 8;
        for (InstSeqNum s = lo; s < end; ++s) {
            const TraceInstr &b = bulk.at(s);
            const TraceInstr &t = step.at(s);
            ASSERT_EQ(b.pc, t.pc) << "seq " << s;
            ASSERT_EQ(b.cls, t.cls) << "seq " << s;
            ASSERT_EQ(b.nextPc(), t.nextPc()) << "seq " << s;
        }
    }
}

TEST(TraceWindow, GrowsPastItsRingAndRetiresAcrossTheWrap)
{
    const WorkloadProfile &p = findProfile("li");
    auto prog = buildProgram(p);
    SyntheticExecutor ex(*prog, p), ref_ex(*prog, p);
    std::vector<Addr> ref;
    for (int i = 0; i < 10000; ++i)
        ref.push_back(ref_ex.next().pc);

    // The lookahead swings from a few dozen instructions to past 1024,
    // while the base keeps advancing: the ring wraps, then grows (256
    // -> 512 -> 1024 -> 2048 slots) with live entries on both sides of
    // its seam, and retires across the seam afterwards.
    TraceWindow win(ex);
    InstSeqNum lo = 0, end = 0; // end: one past the last generated
    for (unsigned round = 0; round < 60; ++round) {
        InstSeqNum hi = lo + 37 + 100 * (round % 12);
        ASSERT_LT(hi, ref.size());
        win.at(hi);
        end = std::max(end, hi + 1);
        ASSERT_EQ(win.baseSeq(), lo);
        ASSERT_EQ(win.windowSize(), end - lo);
        for (InstSeqNum s = lo; s < end; ++s)
            ASSERT_EQ(win.at(s).pc, ref[s]) << "seq " << s;
        lo += 91 + 17 * (round % 5);
        win.retireUpTo(lo);
        end = std::max(end, lo);
    }
}
