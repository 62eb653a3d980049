/**
 * Golden-file regression test: full SimResults serializations for a
 * small fixed (workload x scheme) grid, compared against the baseline
 * checked in at tests/golden/sim_results.golden. Any change that
 * shifts *simulated* numbers — cycle counts, stat counters, histogram
 * bins — fails this test loudly instead of drifting silently.
 *
 * If a simulator change is *supposed* to move the numbers, regenerate
 * the baseline and commit it together with the change:
 *
 *     FDIP_UPDATE_GOLDEN=1 ./build/test_golden_results
 *
 * The grid runs identically with and without idle-cycle skipping
 * (enforced by tests/test_tick_skip.cc), so the baseline is valid for
 * both paths.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/runner.hh"

using namespace fdip;

namespace
{

const char *kGoldenPath = FDIP_TESTS_DIR "/golden/sim_results.golden";

/** The fixed grid: small/large workloads x representative schemes,
 *  plus one translated-fetch point to pin the VM subsystem. */
std::string
renderGrid()
{
    std::string out;
    for (const char *wl : {"li", "gcc"}) {
        for (PrefetchScheme scheme : {PrefetchScheme::None,
                                      PrefetchScheme::FdpRemove,
                                      PrefetchScheme::StreamBuffer}) {
            SimConfig cfg = makeBaselineConfig(wl, scheme);
            cfg.warmupInsts = 10 * 1000;
            cfg.measureInsts = 40 * 1000;
            out += "==== " + std::string(wl) + " / " +
                schemeName(scheme) + " ====\n";
            out += serializeResults(simulate(cfg));
        }
    }
    SimConfig vm = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
    vm.warmupInsts = 10 * 1000;
    vm.measureInsts = 40 * 1000;
    applyVmConfig(vm, TlbPrefetchPolicy::Wait, PageMapKind::Scrambled,
                  /*itlb_entries=*/16);
    out += "==== gcc / fdp-remove / vm-wait ====\n";
    out += serializeResults(simulate(vm));

    // One multi-core point pins the shared-L2 machine: the per-core
    // request tagging, the rotating bus arbiter, the per-core
    // measurement windows, and the per_core serialization block.
    SimConfig mc = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
    mc.warmupInsts = 10 * 1000;
    mc.measureInsts = 40 * 1000;
    applyMultiCore(mc, 2);
    mc.mem.l2.sizeBytes = 256 * 1024;
    out += "==== gcc / fdp-remove / 2-core shared-l2 ====\n";
    out += serializeResults(simulate(mc));

    // Competitor-zoo schemes (appended: the sections above must stay
    // byte-identical across the regen that introduced these).
    for (PrefetchScheme scheme : {PrefetchScheme::Mana,
                                  PrefetchScheme::ShadowBtb}) {
        SimConfig cfg = makeBaselineConfig("gcc", scheme);
        cfg.warmupInsts = 10 * 1000;
        cfg.measureInsts = 40 * 1000;
        out += "==== gcc / " + std::string(schemeName(scheme)) +
            " ====\n";
        out += serializeResults(simulate(cfg));
    }

    // The tag stores no section above runs: the conventional BTB as a
    // unified (one-partition) and a partitioned (FDIP-X) ensemble, and
    // the L2 TLB. Appended like the zoo.
    auto tag_store_point = [&out](const char *label, auto &&configure) {
        SimConfig cfg = makeBaselineConfig("gcc",
                                           PrefetchScheme::FdpRemove);
        cfg.warmupInsts = 10 * 1000;
        cfg.measureInsts = 40 * 1000;
        configure(cfg);
        out += "==== gcc / fdp-remove / " + std::string(label) +
            " ====\n";
        out += serializeResults(simulate(cfg));
    };
    tag_store_point("unified-btb-1k", [](SimConfig &cfg) {
        // One full-width partition of 128 sets x 8 ways, full tags.
        cfg.bpu.targetBuffer = TargetBuffer::Partitioned;
        cfg.bpu.pbtb = {{{0, 128, 8}}, /*tagBits=*/0};
    });
    tag_store_point("partitioned-btb-1k", [](SimConfig &cfg) {
        applyPartitionedBudget(cfg, 1024);
    });
    tag_store_point("vm-fill l2tlb-16 2-walkers tlbpf",
                    [](SimConfig &cfg) {
        applyVmConfig(cfg, TlbPrefetchPolicy::Fill,
                      PageMapKind::Scrambled, /*itlb_entries=*/16);
        applyTlbHierarchy(cfg, /*l2_entries=*/16, /*num_walkers=*/2,
                          /*tlb_prefetch=*/true);
    });
    return out;
}

} // namespace

TEST(GoldenResults, GridMatchesCheckedInBaseline)
{
    std::string got = renderGrid();

    if (envFlag("FDIP_UPDATE_GOLDEN")) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << got;
        GTEST_SKIP() << "golden baseline rewritten: " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden baseline " << kGoldenPath
        << " — generate it with FDIP_UPDATE_GOLDEN=1";
    std::stringstream buf;
    buf << in.rdbuf();
    std::string want = buf.str();

    if (got != want) {
        // Locate the first diverging line for a readable failure.
        std::istringstream ga(got), wa(want);
        std::string gl, wl, section;
        std::size_t line = 0;
        while (true) {
            bool g_ok = static_cast<bool>(std::getline(ga, gl));
            bool w_ok = static_cast<bool>(std::getline(wa, wl));
            ++line;
            if (!g_ok && !w_ok)
                break;
            if (g_ok && gl.rfind("====", 0) == 0)
                section = gl;
            if (!g_ok || !w_ok || gl != wl) {
                FAIL() << "simulated results drifted from the golden "
                       << "baseline at line " << line << " (" << section
                       << ")\n  golden: " << (w_ok ? wl : "<eof>")
                       << "\n  got:    " << (g_ok ? gl : "<eof>")
                       << "\nIf intentional, regenerate with "
                       << "FDIP_UPDATE_GOLDEN=1 and commit the new "
                       << "baseline.";
            }
        }
    }
    SUCCEED();
}
