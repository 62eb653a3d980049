/** Whole-system integration tests. */

#include <cmath>

#include <gtest/gtest.h>

#include "sim/presets.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "trace/profile.hh"

using namespace fdip;

namespace
{

SimConfig
quickCfg(const std::string &wl, PrefetchScheme scheme)
{
    SimConfig cfg = makeBaselineConfig(wl, scheme);
    cfg.warmupInsts = 30 * 1000;
    cfg.measureInsts = 120 * 1000;
    return cfg;
}

} // namespace

TEST(Simulator, RunsToCompletion)
{
    SimResults r = simulate(quickCfg("li", PrefetchScheme::None));
    // Retire-width granularity: up to retireWidth-1 overshoot on each
    // window boundary.
    EXPECT_GE(r.instructions, 120 * 1000u - 4);
    EXPECT_LE(r.instructions, 120 * 1000u + 4);
    EXPECT_GT(r.cycles, 0u);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_LT(r.ipc, 4.0); // retire width
}

TEST(Simulator, DeterministicAcrossRuns)
{
    SimResults a = simulate(quickCfg("m88ksim", PrefetchScheme::FdpRemove));
    SimResults b = simulate(quickCfg("m88ksim", PrefetchScheme::FdpRemove));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.stats.counter("mem.prefetches_issued"),
              b.stats.counter("mem.prefetches_issued"));
}

TEST(Simulator, FdpReducesMissesAndHelpsIpc)
{
    SimResults base = simulate(quickCfg("gcc", PrefetchScheme::None));
    SimResults fdp = simulate(quickCfg("gcc", PrefetchScheme::FdpRemove));
    EXPECT_LT(fdp.mpki, base.mpki * 0.7);
    EXPECT_GT(speedupOver(base, fdp), 0.05);
    EXPECT_GT(fdp.prefetchAccuracy, 0.3);
    EXPECT_GT(fdp.prefetchCoverage, 0.3);
}

TEST(Simulator, NoPrefetchIssuesNoPrefetches)
{
    SimResults r = simulate(quickCfg("gcc", PrefetchScheme::None));
    EXPECT_EQ(r.stats.counter("mem.prefetches_issued"), 0u);
    EXPECT_DOUBLE_EQ(r.prefetchAccuracy, 0.0);
}

TEST(Simulator, CpfCutsBusTrafficVsNoFilter)
{
    SimResults nofil = simulate(quickCfg("gcc", PrefetchScheme::FdpNone));
    SimResults ideal = simulate(quickCfg("gcc", PrefetchScheme::FdpIdeal));
    EXPECT_LT(ideal.l2BusUtil, nofil.l2BusUtil * 0.8);
    EXPECT_GT(ideal.prefetchAccuracy, nofil.prefetchAccuracy);
}

TEST(Simulator, RedirectMachineryExercised)
{
    SimResults r = simulate(quickCfg("go", PrefetchScheme::None));
    EXPECT_GT(r.stats.counter("bpu.divergences"), 100u);
    EXPECT_GT(r.stats.counter("bpu.redirects"), 100u);
    EXPECT_GT(r.stats.counter("fetch.wrong_path_delivered"), 0u);
    EXPECT_GT(r.stats.counter("backend.squashed"), 0u);
    // Every redirect pairs with a scheduled redirect, up to
    // window-boundary skew.
    EXPECT_NEAR(r.stats.value("bpu.redirects"),
                r.stats.value("fetch.redirects_scheduled"), 2.0);
}

TEST(Simulator, FtqOccupancySampledEveryMeasuredCycle)
{
    SimConfig cfg = quickCfg("li", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    EXPECT_EQ(r.ftqOccupancy.count(), r.cycles);
}

TEST(Simulator, CommittedMatchesBackendAccounting)
{
    SimConfig cfg = quickCfg("perl", PrefetchScheme::Nlp);
    SimResults r = simulate(cfg);
    // Delivered >= committed (wrong-path extras are delivered too).
    EXPECT_GE(r.stats.counter("backend.delivered"), r.instructions);
    // IPC consistent with raw counters.
    EXPECT_NEAR(r.ipc,
                static_cast<double>(r.instructions) /
                    static_cast<double>(r.cycles),
                1e-12);
}

TEST(Simulator, StreamBufferSchemeWiresClients)
{
    SimResults r = simulate(quickCfg("gcc", PrefetchScheme::StreamBuffer));
    EXPECT_GT(r.stats.counter("sb.allocations"), 0u);
    EXPECT_GT(r.stats.counter("sb.issued"), 0u);
    EXPECT_GT(r.stats.counter("mem.streambuf_hits"), 0u);
}

TEST(Simulator, PartitionedBtbFrontEndRuns)
{
    SimConfig cfg = quickCfg("gcc", PrefetchScheme::FdpRemove);
    applyPartitionedBudget(cfg, 1024);
    SimResults r = simulate(cfg);
    EXPECT_GT(r.ipc, 0.1);
    EXPECT_GT(r.stats.counter("pbtb.hits"), 0u);
}

TEST(Simulator, StepExposesCycleGranularity)
{
    SimConfig cfg = quickCfg("li", PrefetchScheme::None);
    Simulator sim(cfg);
    EXPECT_EQ(sim.now(), 0u);
    sim.step();
    EXPECT_EQ(sim.now(), 1u);
    for (int i = 0; i < 100; ++i)
        sim.step();
    EXPECT_GT(sim.backend().committed(), 0u);
}

TEST(Simulator, WarmupExcludedFromMeasurement)
{
    SimConfig cfg = quickCfg("li", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    // Cold-start compulsory misses land in warmup; the measured
    // window of this cache-resident workload must be nearly missless.
    EXPECT_LT(r.mpki, 3.0);
}

TEST(Simulator, SpeedupHelpers)
{
    SimResults a, b;
    a.ipc = 1.0;
    b.ipc = 1.25;
    EXPECT_DOUBLE_EQ(speedupOver(a, b), 0.25);
    EXPECT_DOUBLE_EQ(speedupOver(b, a), -0.2);
}

TEST(Simulator, SpeedupOverDegenerateBaselineIsNaN)
{
    SimResults dead, live;
    dead.ipc = 0.0;
    live.ipc = 1.0;
    EXPECT_TRUE(std::isnan(speedupOver(dead, live)));
}

TEST(Simulator, VmIdentityHugeItlbMatchesVmOffBaseline)
{
    // Identity mapping + an effectively-infinite ITLB: all walks are
    // compulsory and resolve during warmup, so the measured window
    // must reproduce the VM-off machine for every preset workload.
    for (const auto &name : allWorkloadNames()) {
        SimConfig off = quickCfg(name, PrefetchScheme::FdpRemove);
        SimConfig on = off;
        applyVmConfig(on, TlbPrefetchPolicy::Fill,
                      PageMapKind::Identity, /*itlb_entries=*/4096);
        SimResults r_off = simulate(off);
        SimResults r_on = simulate(on);
        EXPECT_NEAR(r_on.ipc, r_off.ipc, r_off.ipc * 0.01)
            << "workload " << name;
    }
}

TEST(Simulator, VmStatsAppearInResults)
{
    SimConfig cfg = quickCfg("gcc", PrefetchScheme::FdpRemove);
    applyVmConfig(cfg, TlbPrefetchPolicy::Drop,
                  PageMapKind::Scrambled, /*itlb_entries=*/8);
    SimResults r = simulate(cfg);
    EXPECT_TRUE(r.stats.has("itlb.hits"));
    EXPECT_TRUE(r.stats.has("itlb.misses"));
    EXPECT_GT(r.stats.counter("itlb.misses"), 0u);
    EXPECT_GT(r.stats.counter("mmu.walks"), 0u);
    EXPECT_GT(r.stats.counter("fetch.itlb_misses"), 0u);
    EXPECT_GT(r.stats.counter("fetch.itlb_stall_cycles"), 0u);
    // Drop policy: TLB-missing candidates were discarded, not walked.
    EXPECT_GT(r.stats.counter("mmu.pf_dropped"), 0u);
    EXPECT_GT(r.stats.counter("fdp.tlb_dropped"), 0u);
    EXPECT_EQ(r.stats.counter("mmu.pf_walks"), 0u);
}

TEST(Simulator, VmOffReportsNoItlbStats)
{
    SimResults r = simulate(quickCfg("gcc", PrefetchScheme::FdpRemove));
    EXPECT_FALSE(r.stats.has("itlb.hits"));
    EXPECT_FALSE(r.stats.has("mmu.walks"));
}

TEST(Simulator, VmPrefetchFillPolicyPreWarmsDemandTranslations)
{
    SimConfig drop = quickCfg("gcc", PrefetchScheme::FdpRemove);
    applyVmConfig(drop, TlbPrefetchPolicy::Drop,
                  PageMapKind::Scrambled, /*itlb_entries=*/8);
    SimConfig fill = drop;
    fill.vm.prefetchPolicy = TlbPrefetchPolicy::Fill;
    SimResults r_drop = simulate(drop);
    SimResults r_fill = simulate(fill);
    EXPECT_GT(r_fill.stats.counter("mmu.pf_fills"), 0u);
    // Pre-warmed translations mean fewer demand-side walks.
    EXPECT_LT(r_fill.stats.counter("mmu.demand_walks"),
              r_drop.stats.counter("mmu.demand_walks"));
    EXPECT_GE(r_fill.ipc, r_drop.ipc);
}

TEST(Simulator, VmDeterministicAcrossRuns)
{
    SimConfig cfg = quickCfg("go", PrefetchScheme::FdpRemove);
    applyVmConfig(cfg, TlbPrefetchPolicy::Wait,
                  PageMapKind::Scrambled, /*itlb_entries=*/16);
    SimResults a = simulate(cfg);
    SimResults b = simulate(cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.counter("mmu.walks"), b.stats.counter("mmu.walks"));
}

TEST(Simulator, SimulatorsOfOneProfileShareItsProgram)
{
    SimConfig cfg = quickCfg("gcc", PrefetchScheme::FdpRemove);
    Simulator a(cfg);
    Simulator b(cfg);
    ASSERT_NE(a.core(0).prog, nullptr);
    EXPECT_EQ(a.core(0).prog, b.core(0).prog);

    // Each core of a homogeneous mix offsets its seed by its id, so a
    // 2-core gcc machine holds two programs, core 0's the one above.
    applyMultiCore(cfg, 2);
    Simulator mix(cfg);
    EXPECT_EQ(mix.core(0).prog, a.core(0).prog);
    ASSERT_NE(mix.core(1).prog, nullptr);
    EXPECT_NE(mix.core(1).prog, mix.core(0).prog);
}

TEST(SimulatorDeath, InvalidConfigRejected)
{
    SimConfig cfg = quickCfg("li", PrefetchScheme::None);
    cfg.measureInsts = 0;
    EXPECT_DEATH({ Simulator s(cfg); }, "measureInsts");
}

TEST(SimulatorDeath, InvalidVmKnobsRejected)
{
    SimConfig cfg = quickCfg("li", PrefetchScheme::None);
    cfg.vm.enable = true;
    cfg.vm.pageBytes = 3000; // not a power of two
    EXPECT_DEATH({ Simulator s(cfg); }, "power of two");

    SimConfig cfg2 = quickCfg("li", PrefetchScheme::None);
    applyVmConfig(cfg2);
    cfg2.vm.walkLatency = 0;
    EXPECT_DEATH({ Simulator s(cfg2); }, "walk latency");

    SimConfig cfg3 = quickCfg("li", PrefetchScheme::None);
    EXPECT_DEATH(
        { applyVmConfig(cfg3, TlbPrefetchPolicy::Drop,
                        PageMapKind::Scrambled, /*itlb_entries=*/12); },
        "power of two");
}
