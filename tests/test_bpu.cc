/** Tests for the branch prediction unit / address generation engine. */

#include <gtest/gtest.h>

#include <memory>

#include "bpu/bpu.hh"
#include "bpu/partitioned_btb.hh"
#include "test_helpers.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"

using namespace fdip;

namespace
{

struct Harness
{
    std::unique_ptr<Program> prog;
    WorkloadProfile prof;
    std::unique_ptr<SyntheticExecutor> exec;
    std::unique_ptr<TraceWindow> win;
    std::unique_ptr<Bpu> bpu;

    explicit Harness(std::unique_ptr<Program> p, BpuConfig cfg = {})
        : prog(std::move(p))
    {
        prof.name = "harness";
        prof.seed = 5;
        exec = std::make_unique<SyntheticExecutor>(*prog, prof);
        win = std::make_unique<TraceWindow>(*exec);
        bpu = std::make_unique<Bpu>(*win, cfg);
    }

    /** Predict blocks, redirecting immediately on divergence. */
    unsigned
    trainBlocks(unsigned n)
    {
        unsigned divergences = 0;
        for (unsigned i = 0; i < n; ++i) {
            FetchBlock blk = bpu->predictBlock();
            if (blk.diverges) {
                ++divergences;
                bpu->redirect();
            }
        }
        return divergences;
    }
};

} // namespace

TEST(Bpu, ColdStartProducesSequentialBlock)
{
    Harness h(testutil::makeTightLoop());
    FetchBlock blk = h.bpu->predictBlock();
    EXPECT_EQ(blk.startPc, h.prog->base);
    EXPECT_FALSE(blk.endsInCF);
    EXPECT_EQ(blk.numInsts, Bpu::kMaxFetchBlockInsts);
    EXPECT_EQ(blk.firstSeq, 0u);
}

TEST(Bpu, ColdLoopDivergesAtJump)
{
    Harness h(testutil::makeTightLoop());
    FetchBlock blk = h.bpu->predictBlock();
    // The loop's jump is at index 7 of the sequential block.
    ASSERT_TRUE(blk.diverges);
    EXPECT_EQ(blk.culpritIdx, 7u);
    EXPECT_EQ(blk.culpritCls, InstClass::Jump);
    EXPECT_TRUE(blk.decodeFixable);
    EXPECT_EQ(blk.validLen, 8u);
    EXPECT_FALSE(h.bpu->onCorrectPath());
    EXPECT_EQ(h.bpu->divergenceSeq(), 7u);
}

TEST(Bpu, WrongPathBlocksAreFlagged)
{
    Harness h(testutil::makeTightLoop());
    FetchBlock first = h.bpu->predictBlock();
    ASSERT_TRUE(first.diverges);
    for (int i = 0; i < 5; ++i) {
        FetchBlock wp = h.bpu->predictBlock();
        EXPECT_TRUE(wp.wrongPath);
        EXPECT_EQ(wp.validLen, 0u);
        EXPECT_FALSE(wp.diverges);
    }
    EXPECT_EQ(h.bpu->stats.counter("bpu.wrong_path_blocks"), 5u);
}

TEST(Bpu, RedirectResumesCorrectPath)
{
    Harness h(testutil::makeTightLoop());
    FetchBlock first = h.bpu->predictBlock();
    ASSERT_TRUE(first.diverges);
    h.bpu->predictBlock(); // wander down the wrong path
    h.bpu->redirect();
    EXPECT_TRUE(h.bpu->onCorrectPath());
    FetchBlock next = h.bpu->predictBlock();
    EXPECT_FALSE(next.wrongPath);
    // The loop jumps back to its start.
    EXPECT_EQ(next.startPc, h.prog->base);
    EXPECT_EQ(next.firstSeq, 8u);
}

TEST(Bpu, TightLoopLearnsAfterOneRedirect)
{
    Harness h(testutil::makeTightLoop());
    unsigned div = h.trainBlocks(3);
    EXPECT_GE(div, 1u);
    // Steady state: the FTB knows the loop block; zero divergence.
    EXPECT_EQ(h.trainBlocks(100), 0u);
    // Blocks are now FTB-formed, 8 instructions, ending in the jump.
    FetchBlock blk = h.bpu->predictBlock();
    EXPECT_TRUE(blk.endsInCF);
    EXPECT_EQ(blk.termCls, InstClass::Jump);
    EXPECT_EQ(blk.numInsts, 8u);
    EXPECT_TRUE(blk.predTaken);
    EXPECT_EQ(blk.predTarget, h.prog->base);
}

TEST(Bpu, CallPatternReachesLowSteadyStateDivergence)
{
    Harness h(testutil::makeCallPattern());
    h.trainBlocks(3000);
    unsigned div = h.trainBlocks(2000);
    // FTB captures all blocks; gshare learns the TNTN pattern; the RAS
    // nails returns. A small residue is tolerated.
    EXPECT_LT(div, 2000u * 5 / 100) << "steady-state divergence too high";
}

TEST(Bpu, ReturnsPredictedViaRas)
{
    Harness h(testutil::makeCallPattern());
    h.trainBlocks(3000);
    std::uint64_t ret_div_before =
        h.bpu->stats.counter("bpu.diverge_ret");
    h.trainBlocks(2000);
    std::uint64_t ret_div_after =
        h.bpu->stats.counter("bpu.diverge_ret");
    EXPECT_EQ(ret_div_after, ret_div_before)
        << "returns must be fully predicted by the RAS in steady state";
}

TEST(Bpu, VerifySeqAdvancesDenselyOnCorrectPath)
{
    Harness h(testutil::makeTightLoop());
    h.trainBlocks(3);
    InstSeqNum before = h.bpu->nextVerifySeq();
    FetchBlock blk = h.bpu->predictBlock();
    ASSERT_FALSE(blk.diverges);
    EXPECT_EQ(blk.firstSeq, before);
    EXPECT_EQ(h.bpu->nextVerifySeq(), before + blk.numInsts);
}

TEST(Bpu, BtbModeLearnsTightLoop)
{
    // A unified BTB: one full-width partition, full tags.
    BpuConfig cfg;
    cfg.targetBuffer = TargetBuffer::Partitioned;
    cfg.pbtb = {{{0, 64, 4}}, /*tagBits=*/0};
    Harness h(testutil::makeTightLoop(), cfg);
    h.trainBlocks(3);
    EXPECT_EQ(h.trainBlocks(100), 0u);
    FetchBlock blk = h.bpu->predictBlock();
    EXPECT_TRUE(blk.endsInCF);
    EXPECT_EQ(blk.termCls, InstClass::Jump);
}

TEST(Bpu, BtbModeAcceptsPartitionedBtb)
{
    BpuConfig cfg;
    cfg.targetBuffer = TargetBuffer::Partitioned;
    cfg.pbtb = PartitionedBtb::makeDefaultConfig(1024);
    Harness h(testutil::makeCallPattern(), cfg);
    EXPECT_EQ(h.bpu->ftb(), nullptr);
    PartitionedBtb *btb = h.bpu->btb();
    ASSERT_NE(btb, nullptr);
    EXPECT_EQ(btb->numPartitions(), 4u);
    h.trainBlocks(500);
    EXPECT_GT(btb->stats.counter("pbtb.lookups"), 0u);
    EXPECT_GT(btb->stats.counter("pbtb.hits"), 0u);
    unsigned div = h.trainBlocks(500);
    EXPECT_LT(div, 500u / 10);
}

TEST(Bpu, SyntheticWorkloadRunsWithoutViolations)
{
    // Whole-suite smoke: a real synthesized workload, 50K blocks, with
    // immediate redirects. Internal panics would abort the test.
    const WorkloadProfile &p = findProfile("m88ksim");
    auto prog = buildProgram(p);
    SyntheticExecutor exec(*prog, p);
    TraceWindow win(exec);
    BpuConfig cfg;
    Bpu bpu(win, cfg);
    unsigned div = 0;
    for (int i = 0; i < 50000; ++i) {
        FetchBlock blk = bpu.predictBlock();
        if (blk.diverges) {
            ++div;
            bpu.redirect();
        }
        win.retireUpTo(bpu.nextVerifySeq() > 512
                       ? bpu.nextVerifySeq() - 512 : 0);
    }
    // Some divergence must exist (cold misses, biased branches) but
    // the front-end must mostly stay on track.
    EXPECT_GT(div, 0u);
    EXPECT_LT(div, 50000u / 4);
    EXPECT_GT(bpu.stats.counter("bpu.ftb_blocks"), 25000u);
}

class BpuPredictorKinds
    : public ::testing::TestWithParam<PredictorKind>
{};

TEST_P(BpuPredictorKinds, AllKindsLearnTheTightLoop)
{
    BpuConfig cfg;
    cfg.predictor = GetParam();
    Harness h(testutil::makeTightLoop(), cfg);
    h.trainBlocks(3);
    // The loop ends in an unconditional jump: every predictor kind
    // must reach zero steady-state divergence once the FTB is warm.
    EXPECT_EQ(h.trainBlocks(100), 0u)
        << predictorKindName(GetParam());
}

TEST_P(BpuPredictorKinds, AllKindsHandlePatternBranches)
{
    BpuConfig cfg;
    cfg.predictor = GetParam();
    Harness h(testutil::makeCallPattern(), cfg);
    h.trainBlocks(3000);
    unsigned div = h.trainBlocks(2000);
    // History-based predictors nail the TNTN pattern; bimodal cannot,
    // but even it must stay below the every-branch-wrong bound.
    if (GetParam() == PredictorKind::Bimodal)
        EXPECT_LT(div, 1200u);
    else
        EXPECT_LT(div, 150u) << predictorKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Kinds, BpuPredictorKinds,
                         ::testing::Values(PredictorKind::Bimodal,
                                           PredictorKind::Gshare,
                                           PredictorKind::Local2Level,
                                           PredictorKind::Hybrid));

TEST(Bpu, PredictorKindNames)
{
    EXPECT_STREQ(predictorKindName(PredictorKind::Bimodal), "bimodal");
    EXPECT_STREQ(predictorKindName(PredictorKind::Gshare), "gshare");
    EXPECT_STREQ(predictorKindName(PredictorKind::Local2Level),
                 "local2level");
    EXPECT_STREQ(predictorKindName(PredictorKind::Hybrid), "hybrid");
}

TEST(BpuDeath, RedirectWithoutDivergence)
{
    Harness h(testutil::makeTightLoop());
    EXPECT_DEATH(h.bpu->redirect(), "no pending divergence");
}
