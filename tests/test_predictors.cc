/** Tests for the direction predictors. */

#include <gtest/gtest.h>

#include "bpu/bimodal.hh"
#include "bpu/gshare.hh"
#include "bpu/hybrid.hh"
#include "bpu/local2level.hh"

using namespace fdip;

namespace
{

/** Train+measure accuracy of @p pred on a repeating pattern at one PC. */
template <typename Pred>
double
patternAccuracy(Pred &pred, Addr pc, const std::vector<bool> &pattern,
                int rounds)
{
    std::uint64_t hist = 0;
    int correct = 0, total = 0;
    for (int r = 0; r < rounds; ++r) {
        for (bool taken : pattern) {
            bool p = pred.predict(pc, hist);
            if (r >= rounds / 2) { // measure the second half
                correct += p == taken;
                ++total;
            }
            pred.update(pc, hist, taken);
            hist = shiftHistory(hist, taken);
        }
    }
    return static_cast<double>(correct) / total;
}

} // namespace

TEST(Bimodal, LearnsStrongBias)
{
    BimodalPredictor pred(1024);
    Addr pc = 0x1000;
    EXPECT_GT(patternAccuracy(pred, pc, {true}, 100), 0.99);
    BimodalPredictor pred2(1024);
    EXPECT_GT(patternAccuracy(pred2, pc, {false}, 100), 0.99);
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor pred(1024);
    double acc = patternAccuracy(pred, 0x1000, {true, false}, 200);
    EXPECT_LT(acc, 0.75); // alternation defeats a 2-bit counter
}

TEST(Bimodal, SeparatePcsSeparateCounters)
{
    BimodalPredictor pred(1024);
    std::uint64_t h = 0;
    // Adjacent instructions: guaranteed distinct table indices.
    for (int i = 0; i < 10; ++i) {
        pred.update(0x1000, h, true);
        pred.update(0x1004, h, false);
    }
    EXPECT_TRUE(pred.predict(0x1000, h));
    EXPECT_FALSE(pred.predict(0x1004, h));
}

TEST(Gshare, LearnsAlternationViaHistory)
{
    GsharePredictor pred(4096, 8);
    double acc = patternAccuracy(pred, 0x1000, {true, false}, 200);
    EXPECT_GT(acc, 0.95);
}

TEST(Gshare, LearnsLongerPattern)
{
    GsharePredictor pred(4096, 10);
    double acc = patternAccuracy(
        pred, 0x1000, {true, true, false, true, false, false}, 400);
    EXPECT_GT(acc, 0.9);
}

TEST(Local2Level, LearnsPerBranchPattern)
{
    Local2LevelPredictor pred(256, 10, 1024);
    double acc = patternAccuracy(pred, 0x1000,
                                 {true, true, true, false}, 300);
    EXPECT_GT(acc, 0.95);
}

TEST(Hybrid, AtLeastAsGoodAsComponentsOnMix)
{
    // Branch A: strongly biased (bimodal-friendly);
    // Branch B: alternating (gshare-friendly). The hybrid must do well
    // on both simultaneously.
    HybridPredictor hybrid;
    std::uint64_t hist = 0;
    int correct = 0, total = 0;
    for (int r = 0; r < 600; ++r) {
        bool a_outcome = true;
        bool b_outcome = r % 2 == 0;
        for (auto [pc, outcome] :
             {std::pair<Addr, bool>{0x1000, a_outcome},
              std::pair<Addr, bool>{0x2000, b_outcome}}) {
            bool p = hybrid.predict(pc, hist);
            if (r > 300) {
                correct += p == outcome;
                ++total;
            }
            hybrid.update(pc, hist, outcome);
            hist = shiftHistory(hist, outcome);
        }
    }
    EXPECT_GT(static_cast<double>(correct) / total, 0.95);
}

TEST(Predictors, StorageBitsAccounting)
{
    BimodalPredictor bim(4096, 2);
    EXPECT_EQ(bim.storageBits(), 4096u * 2);

    GsharePredictor gsh(16384, 12, 2);
    EXPECT_EQ(gsh.storageBits(), 16384u * 2);

    Local2LevelPredictor loc(1024, 10, 1024, 2);
    EXPECT_EQ(loc.storageBits(), 1024u * 10 + 1024u * 2);

    HybridPredictor hyb(16384, 12, 4096, 4096);
    EXPECT_EQ(hyb.storageBits(),
              16384u * 2 + 4096u * 2 + 4096u * 2);
}

class GshareSizeSweep : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GshareSizeSweep, AllSizesLearnAlternation)
{
    GsharePredictor pred(GetParam(), 6);
    double acc = patternAccuracy(pred, 0x1000, {true, false}, 200);
    EXPECT_GT(acc, 0.9) << "size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, GshareSizeSweep,
                         ::testing::Values(256u, 1024u, 4096u, 65536u));

TEST(PredictorsDeath, NonPowerOfTwoTables)
{
    EXPECT_DEATH({ BimodalPredictor p(1000); }, "2\\^n");
    EXPECT_DEATH({ GsharePredictor p(1000, 8); }, "2\\^n");
}
