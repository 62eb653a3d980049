/**
 * R-X17 — multi-core scale-out sweep: fetch-directed prefetching when
 * 1/2/4 cores share one L2, its buses, and DRAM (docs/MULTICORE.md).
 * Cores run private copies of the workload (per-core seeds, tagged
 * private address spaces), so every added core is pure contention:
 * shared-L2 capacity pressure plus bus bandwidth pressure.
 *
 * Axes:
 *  - core count (1 / 2 / 4),
 *  - shared-L2 size (capacity-starved 256KB vs the 1MB baseline),
 *  - prefetch scheme (no prefetching vs FDP remove-CPF), so the sweep
 *    shows whether FDIP's prefetch traffic is still a win when the
 *    buses it rides are contended.
 *
 * The c1 x 1MB points are the classic single-core machine bit-for-bit
 * (verified by tests/test_multicore.cc and the golden suite).
 */

#include <iterator>
#include <string>

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kCoreCounts[] = {1, 2, 4};
constexpr std::uint64_t kL2Sizes[] = {256 * 1024, 1024 * 1024};

Runner::Tweak
scaleTweak(unsigned cores, std::uint64_t l2_bytes)
{
    return [cores, l2_bytes](SimConfig &cfg) {
        applyMultiCore(cfg, cores);
        cfg.mem.l2.sizeBytes = l2_bytes;
    };
}

std::string
scaleKey(unsigned cores, std::uint64_t l2_bytes)
{
    return strprintf("c%u-l2_%uk", cores,
                     static_cast<unsigned>(l2_bytes / 1024));
}

std::string
scaleLabel(unsigned cores, std::uint64_t l2_bytes)
{
    return strprintf("%u core(s), %uKB shared L2", cores,
                     static_cast<unsigned>(l2_bytes / 1024));
}

std::vector<TweakVariant>
scaleVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned cores : kCoreCounts) {
        for (std::uint64_t l2 : kL2Sizes) {
            out.push_back({scaleKey(cores, l2), scaleLabel(cores, l2),
                           scaleTweak(cores, l2)});
        }
    }
    return out;
}

const std::vector<std::string> &
workloads()
{
    static const std::vector<std::string> w = {"gcc", "go", "groff"};
    return w;
}

/** Core 0's own-window IPC (the aggregate row on a 1-core machine). */
double
core0Ipc(const SimResults &r)
{
    return r.perCore.empty() ? r.ipc : r.perCore[0].ipc;
}

void
render(const Sweep &sweep)
{
    auto point = [&sweep](const std::string &wl, PrefetchScheme s,
                          unsigned cores,
                          std::uint64_t l2) -> const SimResults & {
        return sweep.run(wl, s, scaleKey(cores, l2));
    };
    auto mean_over = [&](PrefetchScheme s, unsigned cores,
                         std::uint64_t l2, auto &&f) {
        std::vector<double> v;
        for (const auto &wl : workloads())
            v.push_back(f(point(wl, s, cores, l2)));
        return mean(v);
    };

    for (std::uint64_t l2 : kL2Sizes) {
        AsciiTable t({"cores", "core-0 ipc (fdp)",
                      "vs 1-core", "fdp vs none", "pf coverage",
                      "membus util"});
        double solo = mean_over(PrefetchScheme::FdpRemove,
                                kCoreCounts[0], l2, core0Ipc);
        for (unsigned cores : kCoreCounts) {
            double fdp = mean_over(PrefetchScheme::FdpRemove, cores,
                                   l2, core0Ipc);
            double none = mean_over(PrefetchScheme::None, cores, l2,
                                    core0Ipc);
            t.addRow({AsciiTable::integer(cores),
                      AsciiTable::num(fdp, 3),
                      AsciiTable::pct(fdp / solo - 1.0),
                      AsciiTable::pct(fdp / none - 1.0),
                      AsciiTable::pct(mean_over(
                          PrefetchScheme::FdpRemove, cores, l2,
                          [](const SimResults &r) {
                              return r.prefetchCoverage;
                          })),
                      AsciiTable::pct(mean_over(
                          PrefetchScheme::FdpRemove, cores, l2,
                          [](const SimResults &r) {
                              return r.memBusUtil;
                          }))});
        }
        print(strprintf("shared-L2 contention, %uKB L2 "
                        "(mean over %zu workloads):\n",
                        static_cast<unsigned>(l2 / 1024),
                        workloads().size()));
        print(t.render());
        print("\n");
    }

    // Per-core fairness at the contended corner: the rotating bus
    // arbiter must not starve any core.
    AsciiTable ft({"workload", "core ipcs (4 cores, 256KB L2, fdp)",
                   "max/min"});
    for (const auto &wl : workloads()) {
        const SimResults &r = point(wl, PrefetchScheme::FdpRemove,
                                    kCoreCounts[std::size(kCoreCounts) - 1],
                                    kL2Sizes[0]);
        std::string ipcs;
        double lo = 0.0, hi = 0.0;
        for (std::size_t c = 0; c < r.perCore.size(); ++c) {
            double ipc = r.perCore[c].ipc;
            ipcs += (c > 0 ? " " : "") + AsciiTable::num(ipc, 3);
            lo = c == 0 ? ipc : std::min(lo, ipc);
            hi = c == 0 ? ipc : std::max(hi, ipc);
        }
        if (r.perCore.empty()) {
            ipcs = AsciiTable::num(r.ipc, 3);
            lo = hi = r.ipc;
        }
        ft.addRow({wl, ipcs,
                   AsciiTable::num(lo > 0.0 ? hi / lo : 0.0, 3)});
    }
    print("per-core fairness at the contended corner:\n");
    print(ft.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-X17";
    s.title = "Multi-core scale-out (cores x shared-L2 size x "
              "prefetch scheme)";
    s.shape =
        "per-core IPC and prefetch coverage fall as cores are added, "
        "hardest at 256KB; FDP remove-CPF keeps beating no-prefetch "
        "at every core count; the rotating arbiter keeps per-core "
        "IPCs near-equal (homogeneous cores)";
    s.paperRef = "multi-core extension (beyond the paper): FDIP under "
                 "shared-L2/bus contention";
    s.question = "Does fetch-directed prefetching still pay when the "
                 "L2 and buses it prefetches over are shared by 2-4 "
                 "contending cores, or does its extra traffic crowd "
                 "out demand fetches?";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{workloads(),
                {PrefetchScheme::None, PrefetchScheme::FdpRemove},
                scaleVariants(), /*withBaseline=*/false}};
    s.render = render;
    s.notes = "Each core runs a private copy of the workload (seed "
              "offset by core id, tagged private address spaces), so "
              "added cores are pure contention. Run lengths are "
              "per-core commits.";
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
