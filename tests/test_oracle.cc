/** Tests for the oracle prefetcher and the new ablation knobs. */

#include <gtest/gtest.h>

#include "prefetch/oracle.hh"
#include "sim/presets.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"

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

TEST(Oracle, ComponentPrefetchesTrueFuture)
{
    auto prog = testutil::makeLongStraightLoop(256);
    WorkloadProfile prof;
    prof.name = "straight";
    SyntheticExecutor exec(*prog, prof);
    TraceWindow win(exec);
    BpuConfig bcfg;
    Bpu bpu(win, bcfg);

    MemConfig mcfg;
    mcfg.l1i.sizeBytes = 1024;
    mcfg.l1i.assoc = 2;
    mcfg.l2BusBytesPerCycle = 32;
    MemHierarchy mem(mcfg);

    OraclePrefetcher oracle(win, bpu, mem, {});
    // Tick the oracle; it must start pulling the true future into the
    // prefetch buffer without the BPU having predicted anything yet.
    for (Cycle t = 1; t < 600; ++t) {
        mem.tick(t);
        oracle.tick(t);
    }
    EXPECT_GT(oracle.stats.counter("oracle.issued"), 4u);
    // Prefetched blocks are ahead of the verified position and on the
    // correct path.
    Addr first_block = mem.l1i().blockAlign(win.at(0).pc);
    EXPECT_TRUE(mem.pfBuffer().probe(first_block) ||
                mem.l1i().probe(first_block) ||
                mem.mshrs().find(first_block) != nullptr);
}

TEST(Oracle, EndToEndBeatsOrMatchesFdp)
{
    SimResults base = simulate(quickCfg("gcc", PrefetchScheme::None));
    SimResults fdp = simulate(quickCfg("gcc", PrefetchScheme::FdpRemove));
    SimResults oracle = simulate(quickCfg("gcc", PrefetchScheme::Oracle));
    // The oracle never fetches wrong-path addresses, so its accuracy
    // must be near-perfect and its MPKI at least as good as FDP's.
    EXPECT_GT(oracle.prefetchAccuracy, 0.9);
    EXPECT_LT(oracle.mpki, base.mpki * 0.5);
    EXPECT_GT(speedupOver(base, oracle), 0.0);
    EXPECT_GE(speedupOver(base, oracle),
              speedupOver(base, fdp) - 0.02);
}

TEST(Ablations, EnqueueAggressiveRunsAndIssues)
{
    SimResults r = simulate(
        quickCfg("gcc", PrefetchScheme::FdpEnqueueAggressive));
    EXPECT_GT(r.stats.counter("fdp.issued"), 0u);
    EXPECT_GT(r.ipc, 0.1);
}

TEST(Ablations, AggressivePrefetchesMoreUnderPortScarcity)
{
    // With a single tag port, CPF probes can only happen in cycles the
    // fetch engine is stalled (the paper's "idle port" opportunity).
    // The conservative variant drops candidates it cannot probe; the
    // aggressive variant enqueues them unprobed, so it must issue at
    // least as many prefetches (at lower accuracy).
    auto one_port = [](SimConfig &cfg) { cfg.mem.l1TagPorts = 1; };
    SimConfig cons = quickCfg("gcc", PrefetchScheme::FdpEnqueue);
    one_port(cons);
    SimConfig aggr = quickCfg("gcc", PrefetchScheme::FdpEnqueueAggressive);
    one_port(aggr);
    SimResults rc = simulate(cons);
    SimResults ra = simulate(aggr);
    EXPECT_GE(ra.stats.counter("fdp.issued"),
              rc.stats.counter("fdp.issued"));
    EXPECT_GT(ra.stats.counter("fdp.enqueue_no_port"), 0u);
    EXPECT_GT(rc.stats.counter("fdp.enqueue_no_port"), 0u);
    // Both still prefetch (stall cycles provide probe ports).
    EXPECT_GT(rc.stats.counter("fdp.issued"), 0u);
    EXPECT_GE(rc.prefetchAccuracy, ra.prefetchAccuracy - 0.02);
}

TEST(Ablations, FillIntoL1PollutesCache)
{
    SimConfig buf = quickCfg("gcc", PrefetchScheme::FdpNone);
    SimConfig l1 = quickCfg("gcc", PrefetchScheme::FdpNone);
    l1.fdp.fillIntoL1 = true;
    SimResults rbuf = simulate(buf);
    SimResults rl1 = simulate(l1);
    // Direct-to-L1 fills must show up as L1 fills, not buffer fills.
    EXPECT_EQ(rl1.stats.counter("pfbuf.fills"), 0u);
    EXPECT_GT(rbuf.stats.counter("pfbuf.fills"), 0u);
    // The unfiltered wrong-path stream into the L1 costs evictions.
    EXPECT_GT(rl1.stats.counter("l1i.cache.fills"),
              rbuf.stats.counter("l1i.cache.fills"));
}

TEST(Ablations, PrefetchBusQueueingDelaysDemand)
{
    SimConfig idle = quickCfg("gcc", PrefetchScheme::FdpNone);
    SimConfig queue = quickCfg("gcc", PrefetchScheme::FdpNone);
    queue.mem.prefetchMayQueueOnBus = true;
    SimResults ridle = simulate(idle);
    SimResults rqueue = simulate(queue);
    // Queueing prefetches push bus utilization up and demand misses
    // now wait behind prefetch transfers.
    EXPECT_GT(rqueue.l2BusUtil, ridle.l2BusUtil);
    EXPECT_GT(rqueue.stats.counter("l2bus.bus.demand_queue_cycles"),
              ridle.stats.counter("l2bus.bus.demand_queue_cycles"));
}

TEST(Ablations, SchemeNamesCoverNewSchemes)
{
    EXPECT_STREQ(schemeName(PrefetchScheme::Oracle), "oracle");
    EXPECT_STREQ(schemeName(PrefetchScheme::FdpEnqueueAggressive),
                 "fdp-enqueue-aggr");
}
