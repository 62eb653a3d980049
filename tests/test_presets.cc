/** Tests for the canonical configs and BTB budget ladders. */

#include <gtest/gtest.h>

#include "bpu/ftb.hh"
#include "sim/presets.hh"

using namespace fdip;

TEST(Presets, BaselineMachineShape)
{
    SimConfig cfg = makeBaselineConfig("gcc");
    EXPECT_EQ(cfg.workload, "gcc");
    EXPECT_EQ(cfg.ftqEntries, 32u);
    EXPECT_EQ(cfg.fetch.fetchWidth, 8u);
    EXPECT_EQ(FetchEngine::kDecodeRedirectLatency, 3u);
    EXPECT_EQ(FetchEngine::kResolveRedirectLatency, 12u);
    EXPECT_EQ(cfg.bpu.targetBuffer, TargetBuffer::Ftb);
    EXPECT_EQ(cfg.bpu.ftb.sets, 1024u);
    EXPECT_EQ(cfg.bpu.ftb.ways, 4u);
    EXPECT_EQ(Bpu::kMaxFetchBlockInsts, 8u);
    EXPECT_EQ(Bpu::kRasDepth, 32u);
    EXPECT_EQ(cfg.backend.retireWidth, 4u);
    EXPECT_EQ(cfg.backend.queueDepth, 32u);
    EXPECT_EQ(cfg.mem.l1i.sizeBytes, 16u * 1024);
    EXPECT_EQ(cfg.mem.l1i.assoc, 2u);
    EXPECT_EQ(cfg.mem.l1i.blockBytes, 32u);
    EXPECT_EQ(cfg.mem.l1TagPorts, 2u);
    EXPECT_EQ(cfg.mem.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cfg.mem.l2.assoc, 8u);
    EXPECT_EQ(cfg.mem.l2.blockBytes, 32u);
    EXPECT_EQ(cfg.mem.l2HitLatency, 12u);
    EXPECT_EQ(cfg.mem.dramLatency, 70u);
    EXPECT_EQ(cfg.mem.prefetchBufferEntries, 32u);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Presets, LadderMatchesPaperBudgets)
{
    auto ladder = btbBudgetLadder();
    ASSERT_EQ(ladder.size(), 6u);
    EXPECT_EQ(ladder.front().ftbEntries, 1024u);
    EXPECT_EQ(ladder.back().ftbEntries, 32768u);
    // The unified FTB at each rung must cost what the ladder claims.
    for (const auto &pt : ladder) {
        SimConfig cfg = makeBaselineConfig("gcc");
        applyFtbBudget(cfg, pt.ftbEntries);
        Ftb ftb(cfg.bpu.ftb);
        double kb = static_cast<double>(ftb.storageBits()) / 8.0 / 1024.0;
        EXPECT_NEAR(kb, pt.ftbBudgetKB, pt.ftbBudgetKB * 0.01)
            << pt.ftbEntries << " entries";
    }
}

TEST(Presets, PartitionedBudgetUsesLessStorageMoreEntries)
{
    for (const auto &pt : btbBudgetLadder()) {
        SimConfig ucfg = makeBaselineConfig("gcc");
        applyFtbBudget(ucfg, pt.ftbEntries);
        Ftb ftb(ucfg.bpu.ftb);

        SimConfig pcfg = makeBaselineConfig("gcc");
        applyPartitionedBudget(pcfg, pt.ftbEntries);
        PartitionedBtb pbtb(pcfg.bpu.pbtb);

        // The partitioned ensemble must fit within the unified budget
        // and provide >2x the entries.
        EXPECT_LE(pbtb.storageBits(), ftb.storageBits())
            << pt.ftbEntries;
        EXPECT_GT(pbtb.numEntries(), 2u * pt.ftbEntries)
            << pt.ftbEntries;
    }
}

TEST(Presets, ApplyFtbBudgetSetsGeometry)
{
    SimConfig cfg = makeBaselineConfig("gcc");
    applyFtbBudget(cfg, 8192);
    EXPECT_EQ(cfg.bpu.targetBuffer, TargetBuffer::Ftb);
    EXPECT_EQ(cfg.bpu.ftb.ways, 8u);
    EXPECT_EQ(cfg.bpu.ftb.sets, 1024u);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Presets, ApplyPartitionedBudgetSwitchesFrontEnd)
{
    SimConfig cfg = makeBaselineConfig("gcc");
    applyPartitionedBudget(cfg, 1024);
    EXPECT_EQ(cfg.bpu.targetBuffer, TargetBuffer::Partitioned);
    EXPECT_EQ(cfg.bpu.pbtb.tagBits, 16u);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(Presets, SchemeNamesRoundTrip)
{
    EXPECT_STREQ(schemeName(PrefetchScheme::None), "none");
    EXPECT_STREQ(schemeName(PrefetchScheme::FdpIdeal), "fdp-ideal");
    for (PrefetchScheme s : allPrefetchSchemes())
        EXPECT_EQ(schemeFromName(schemeName(s)), s) << schemeName(s);
    // Each scheme has one name: fdp-nofilter is not also "fdp-none".
    EXPECT_EQ(schemeFromName("fdp-none"), std::nullopt);
}
