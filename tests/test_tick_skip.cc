/**
 * Differential parity harness for event-driven idle-cycle skipping.
 *
 * The skip fast path must be *bit-identical* to per-cycle ticking:
 * every SimResults field, every StatSet counter, and every occupancy
 * histogram bin. This harness runs a randomized config matrix twice —
 * skip-enabled vs SimConfig::forceTick — and compares the canonical
 * serializations. Any divergence is a quiescence-protocol bug in some
 * component's nextEventCycle()/chargeIdleCycles() pair.
 */

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/profile.hh"

using namespace fdip;

namespace
{

/** First differing line of two multi-line strings, for diagnostics. */
std::string
firstDiff(const std::string &a, const std::string &b)
{
    std::size_t line = 1, i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        std::size_t ae = a.find('\n', i);
        std::size_t be = b.find('\n', j);
        std::string la = a.substr(i, ae - i);
        std::string lb = b.substr(j, be - j);
        if (la != lb) {
            return "line " + std::to_string(line) + ":\n  skip:  " + la +
                "\n  tick:  " + lb;
        }
        if (ae == std::string::npos || be == std::string::npos)
            break;
        i = ae + 1;
        j = be + 1;
        ++line;
    }
    return a.size() == b.size() ? "(no line diff found)"
                                : "(outputs differ in length)";
}

/** True when FDIP_NO_SKIP already forces ticking process-wide (the
 *  CI re-run); skip-side assertions are vacuous in that case. */
bool
envNoSkip()
{
    const char *env = std::getenv("FDIP_NO_SKIP");
    return env != nullptr && env[0] != '\0' &&
        !(env[0] == '0' && env[1] == '\0');
}

template <typename T>
T
pick(std::mt19937 &rng, std::initializer_list<T> options)
{
    std::uniform_int_distribution<std::size_t> d(0, options.size() - 1);
    return options.begin()[d(rng)];
}

/**
 * Config @p i of the matrix: deterministic (seeded) random knobs with
 * round-robin scheme and VM-policy coverage, biased toward the
 * stall-heavy corners where skipping actually engages.
 */
SimConfig
matrixConfig(int i)
{
    // Derived from the scheme registry, NOT hardcoded: a newly added
    // scheme lands in the differential matrix automatically instead of
    // silently dodging it.
    const std::vector<PrefetchScheme> &schemes = allPrefetchSchemes();
    static const std::vector<TlbPrefetchPolicy> policies = {
        TlbPrefetchPolicy::Drop,
        TlbPrefetchPolicy::Wait,
        TlbPrefetchPolicy::Fill,
    };

    std::mt19937 rng(0xf0d1u + static_cast<unsigned>(i));
    const auto &workloads = allWorkloadNames();
    const std::string &wl = workloads[i % workloads.size()];
    PrefetchScheme scheme = schemes[i % schemes.size()];

    SimConfig cfg = makeBaselineConfig(wl, scheme);
    cfg.warmupInsts = 5 * 1000;
    cfg.measureInsts = 25 * 1000;
    cfg.ftqEntries = pick(rng, {std::size_t(4), std::size_t(16),
                                std::size_t(32)});
    cfg.fetch.fetchWidth = pick(rng, {4u, 8u});
    cfg.backend.queueDepth = pick(rng, {std::size_t(16),
                                        std::size_t(32)});
    cfg.mem.l1i.sizeBytes = pick(rng, {std::uint64_t(8) * 1024,
                                       std::uint64_t(16) * 1024});
    cfg.mem.dramLatency = pick(rng, {Cycle(40), Cycle(70), Cycle(200)});
    cfg.mem.mshrs = pick(rng, {2u, 4u, 16u});
    cfg.mem.victimCacheEntries = pick(rng, {0u, 8u});
    cfg.mem.prefetchMayQueueOnBus = (i % 5) == 0;
    cfg.maxOutstandingPrefetches = pick(rng, {2u, 8u});

    // Multi-core axis: half the matrix scales the machine out to 2 or
    // 4 cores sharing the L2/buses/DRAM, so skip parity also covers
    // the aggregated quiescence protocol, the rotating bus-arbiter
    // order, and the per-core measurement windows (a quarter of these
    // run a heterogeneous two-workload mix). Shrink the shared L2 on
    // those points so the cores genuinely contend.
    static const unsigned kCoreCounts[] = {1u, 2u, 1u, 4u};
    unsigned cores = kCoreCounts[i % 4];
    if (cores > 1) {
        std::vector<std::string> mix;
        if (cores == 2 && i % 8 == 1) {
            const std::string &other =
                workloads[(i + 1) % workloads.size()];
            mix = {wl, other};
        }
        applyMultiCore(cfg, cores, mix);
        cfg.mem.l2.sizeBytes = 128 * 1024;
    }

    // Three quarters of the matrix runs translated fetch, cycling
    // through all three prefetch-translation policies, with walk
    // latencies long enough that Wait/Fill runs are page-walk
    // dominated. The two-level hierarchy axes are randomized on top:
    // L2-TLB size (0 = single-level), bounded walker pools (0 =
    // unlimited), and the decoupled FTQ TLB prefetcher.
    if (i % 4 != 3) {
        applyVmConfig(cfg, policies[i % policies.size()],
                      PageMapKind::Scrambled,
                      pick(rng, {16u, 64u}));
        cfg.vm.walkLatency = pick(rng, {Cycle(20), Cycle(60),
                                        Cycle(150)});
        cfg.vm.l2TlbEntries = pick(rng, {0u, 32u, 128u});
        cfg.vm.l2TlbAssoc = 4;
        cfg.vm.l2TlbLatency = pick(rng, {Cycle(4), Cycle(8)});
        cfg.vm.numWalkers = pick(rng, {0u, 1u, 2u});
        cfg.vm.tlbPrefetch = (i % 3) == 0;
    }
    return cfg;
}

} // namespace

TEST(TickSkip, DifferentialParityAcrossRandomizedMatrix)
{
    constexpr int kConfigs = 20;
    Cycle total_skipped = 0;
    for (int i = 0; i < kConfigs; ++i) {
        SimConfig fast = matrixConfig(i);
        fast.forceTick = false;
        SimConfig slow = matrixConfig(i);
        slow.forceTick = true;

        SimResults a = simulate(fast);
        SimResults b = simulate(slow);
        std::string sa = serializeResults(a);
        std::string sb = serializeResults(b);
        ASSERT_EQ(sa, sb)
            << "config " << i << " (" << fast.workload << ", "
            << schemeName(fast.scheme) << ", vm="
            << (fast.vm.enable ? tlbPolicyName(fast.vm.prefetchPolicy)
                               : "off")
            << ", cores=" << fast.numCores
            << "): " << firstDiff(sa, sb);

        EXPECT_EQ(b.skippedCycles, 0u) << "forceTick run skipped";
        total_skipped += a.skippedCycles;
    }
    // The matrix must actually exercise the fast path, or the parity
    // assertions above prove nothing.
    if (!envNoSkip()) {
        EXPECT_GT(total_skipped, 0u);
    }
}

TEST(TickSkip, MatrixCoversAllSchemesAndPolicies)
{
    std::vector<bool> scheme_seen(allPrefetchSchemes().size(), false);
    std::vector<bool> policy_seen(3, false);
    bool l2_seen = false, bounded_seen = false, tlbpf_seen = false;
    bool single_seen = false, dual_seen = false, quad_seen = false;
    bool hetero_seen = false;
    for (int i = 0; i < 20; ++i) {
        SimConfig cfg = matrixConfig(i);
        scheme_seen[static_cast<int>(cfg.scheme)] = true;
        single_seen |= cfg.numCores == 1;
        dual_seen |= cfg.numCores == 2;
        quad_seen |= cfg.numCores == 4;
        hetero_seen |= !cfg.coreWorkloads.empty();
        if (cfg.vm.enable) {
            policy_seen[static_cast<int>(cfg.vm.prefetchPolicy)] = true;
            l2_seen |= cfg.vm.l2TlbEntries > 0;
            bounded_seen |= cfg.vm.numWalkers > 0;
            tlbpf_seen |= cfg.vm.tlbPrefetch;
        }
    }
    EXPECT_TRUE(single_seen && dual_seen && quad_seen)
        << "the numCores axis must cover 1, 2, and 4 cores";
    EXPECT_TRUE(hetero_seen)
        << "no config ran a heterogeneous per-core workload mix";
    for (std::size_t s = 0; s < scheme_seen.size(); ++s) {
        EXPECT_TRUE(scheme_seen[s])
            << "scheme " << schemeName(allPrefetchSchemes()[s])
            << " never run — raise kConfigs if the registry outgrew "
            << "the matrix";
    }
    for (std::size_t p = 0; p < policy_seen.size(); ++p)
        EXPECT_TRUE(policy_seen[p]) << "policy " << p << " never run";
    EXPECT_TRUE(l2_seen) << "no config exercised the L2 TLB";
    EXPECT_TRUE(bounded_seen) << "no config bounded the walkers";
    EXPECT_TRUE(tlbpf_seen) << "no config ran the TLB prefetcher";
}

TEST(TickSkip, ForceTickDisablesSkipping)
{
    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::None);
    cfg.warmupInsts = 5 * 1000;
    cfg.measureInsts = 20 * 1000;
    cfg.forceTick = true;
    SimResults r = simulate(cfg);
    EXPECT_EQ(r.skippedCycles, 0u);
    // totalCycles covers the whole run, warmup included.
    EXPECT_GE(r.totalCycles, r.cycles);
}

TEST(TickSkip, StallHeavyConfigSkipsMostCycles)
{
    if (envNoSkip())
        GTEST_SKIP() << "FDIP_NO_SKIP forces per-cycle ticking";
    // ITLB Wait policy with a long walk and a tiny ITLB: fetch spends
    // most of its time stalled on page walks, which is exactly the
    // workload the fast path exists for.
    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
    cfg.warmupInsts = 5 * 1000;
    cfg.measureInsts = 20 * 1000;
    applyVmConfig(cfg, TlbPrefetchPolicy::Wait, PageMapKind::Scrambled,
                  /*itlb_entries=*/4);
    cfg.vm.walkLatency = 200;
    SimResults r = simulate(cfg);
    EXPECT_GT(r.skippedCycles, r.totalCycles / 2)
        << "skipped " << r.skippedCycles << " of " << r.totalCycles;
}

TEST(TickSkip, SkippingPreservesOccupancySampleCount)
{
    SimConfig cfg = makeBaselineConfig("groff", PrefetchScheme::None);
    cfg.warmupInsts = 5 * 1000;
    cfg.measureInsts = 20 * 1000;
    SimResults r = simulate(cfg);
    // One occupancy sample per measured cycle, skipped or ticked.
    EXPECT_EQ(r.ftqOccupancy.count(), r.cycles);
}
