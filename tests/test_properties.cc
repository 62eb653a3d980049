/**
 * Whole-system property tests: invariants that must hold for every
 * (workload x scheme) combination, checked over a grid.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "sim/presets.hh"
#include "sim/runner.hh"

using namespace fdip;

namespace
{

using GridPoint = std::tuple<std::string, PrefetchScheme>;

std::vector<GridPoint>
grid()
{
    std::vector<GridPoint> points;
    for (const char *wl : {"li", "deltablue", "perl", "gcc"}) {
        for (auto scheme : allPrefetchSchemes())
            points.emplace_back(wl, scheme);
    }
    return points;
}

std::string
pointName(const ::testing::TestParamInfo<GridPoint> &info)
{
    std::string s = std::get<0>(info.param);
    s += "_";
    s += schemeName(std::get<1>(info.param));
    for (auto &c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

} // namespace

class SchemeGrid : public ::testing::TestWithParam<GridPoint>
{
  protected:
    SimResults
    runPoint()
    {
        auto [wl, scheme] = GetParam();
        SimConfig cfg = makeBaselineConfig(wl, scheme);
        cfg.warmupInsts = 25 * 1000;
        cfg.measureInsts = 100 * 1000;
        return simulate(cfg);
    }
};

TEST_P(SchemeGrid, InvariantsHold)
{
    SimResults r = runPoint();

    // Completion and rate sanity.
    EXPECT_GE(r.instructions, 100 * 1000u - 4);
    EXPECT_GT(r.ipc, 0.05);
    EXPECT_LE(r.ipc, 4.0 + 1e-9); // retire width bound

    // Fractions stay in range.
    EXPECT_GE(r.prefetchCoverage, 0.0);
    EXPECT_LE(r.prefetchCoverage, 1.0);
    EXPECT_GE(r.l2BusUtil, 0.0);
    EXPECT_LE(r.l2BusUtil, 1.0);
    EXPECT_GE(r.memBusUtil, 0.0);
    EXPECT_LE(r.memBusUtil, 1.0);
    EXPECT_GE(r.mpki, 0.0);

    // Accounting identities.
    EXPECT_GE(r.stats.counter("backend.delivered"), r.instructions);
    // Scheduled/performed redirects pair up to window-boundary skew
    // (a redirect scheduled in warmup can fire in measurement).
    EXPECT_NEAR(r.stats.value("bpu.redirects"),
                r.stats.value("fetch.redirects_scheduled"), 2.0);
    EXPECT_EQ(r.ftqOccupancy.count(), r.cycles);

    // Prefetch accounting: only a prefetcher that moves cache lines
    // sends prefetches (shadow-btb only pre-fills the BTB).
    auto [wl, scheme] = GetParam();
    if (scheme == PrefetchScheme::None ||
        scheme == PrefetchScheme::ShadowBtb) {
        EXPECT_EQ(r.stats.counter("mem.prefetches_issued"), 0u);
    } else {
        EXPECT_GT(r.stats.counter("mem.prefetch_attempts"), 0u);
    }

    // The L1-I can never hold more blocks than its capacity.
    // (Indirectly checked: fills - evictions is bounded by the block
    // count.)
    double resident = r.stats.value("l1i.cache.fills") -
        r.stats.value("l1i.cache.evictions");
    EXPECT_LE(resident, 16.0 * 1024 / 32 + 1);
}

TEST_P(SchemeGrid, DeterministicReplay)
{
    SimResults a = runPoint();
    SimResults b = runPoint();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.counter("mem.prefetches_issued"),
              b.stats.counter("mem.prefetches_issued"));
    EXPECT_EQ(a.stats.counter("bpu.divergences"),
              b.stats.counter("bpu.divergences"));
}

INSTANTIATE_TEST_SUITE_P(AllPoints, SchemeGrid,
                         ::testing::ValuesIn(grid()), pointName);

// ---------------------------------------------------------------------
// Cross-scheme ordering properties on a pressured workload.
// ---------------------------------------------------------------------

namespace
{

SimResults
quickRun(const char *wl, PrefetchScheme scheme,
         const std::function<void(SimConfig &)> &tweak = nullptr)
{
    SimConfig cfg = makeBaselineConfig(wl, scheme);
    cfg.warmupInsts = 25 * 1000;
    cfg.measureInsts = 100 * 1000;
    if (tweak)
        tweak(cfg);
    return simulate(cfg);
}

} // namespace

TEST(SchemeOrdering, EveryPrefetcherBeatsBaselineUnderPressure)
{
    SimResults base = quickRun("gcc", PrefetchScheme::None);
    for (auto scheme : {PrefetchScheme::Nlp, PrefetchScheme::FdpNone,
                        PrefetchScheme::FdpRemove,
                        PrefetchScheme::Oracle}) {
        SimResults r = quickRun("gcc", scheme);
        EXPECT_GT(speedupOver(base, r), 0.0) << schemeName(scheme);
    }
}

TEST(SchemeOrdering, FilteredFdpUsesLessBandwidthThanUnfiltered)
{
    SimResults nofil = quickRun("gcc", PrefetchScheme::FdpNone);
    for (auto scheme : {PrefetchScheme::FdpEnqueue,
                        PrefetchScheme::FdpRemove,
                        PrefetchScheme::FdpIdeal}) {
        SimResults r = quickRun("gcc", scheme);
        EXPECT_LT(r.l2BusUtil, nofil.l2BusUtil) << schemeName(scheme);
    }
}

TEST(SchemeOrdering, BiggerCacheNeverHurtsBaseline)
{
    double prev_ipc = 0.0;
    for (unsigned kb : {8u, 16u, 32u, 64u}) {
        SimResults r = quickRun("gcc", PrefetchScheme::None,
                                [kb](SimConfig &cfg) {
                                    cfg.mem.l1i.sizeBytes =
                                        std::uint64_t(kb) * 1024;
                                });
        EXPECT_GE(r.ipc, prev_ipc * 0.995) << kb << "KB";
        prev_ipc = r.ipc;
    }
}

TEST(SchemeOrdering, DeeperFtqNeverHurtsFdpMuch)
{
    double prev = -1.0;
    for (unsigned depth : {4u, 16u, 64u}) {
        SimResults base = quickRun("gcc", PrefetchScheme::None,
                                   [depth](SimConfig &cfg) {
                                       cfg.ftqEntries = depth;
                                   });
        SimResults fdp = quickRun("gcc", PrefetchScheme::FdpRemove,
                                  [depth](SimConfig &cfg) {
                                      cfg.ftqEntries = depth;
                                  });
        double s = speedupOver(base, fdp);
        EXPECT_GT(s, prev - 0.05) << depth;
        prev = s;
    }
}
