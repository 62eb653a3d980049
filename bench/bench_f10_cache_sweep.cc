/**
 * R-F10 — L1-I size sweep: baseline IPC and FDP speedup as the cache
 * grows. Prefetching is a substitute for capacity; its gain must
 * shrink as the cache absorbs the footprint.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kL1SizesKB[] = {8u, 16u, 32u, 64u};

Runner::Tweak
l1iTweak(unsigned kb)
{
    return [kb](SimConfig &cfg) {
        cfg.mem.l1i.sizeBytes = std::uint64_t(kb) * 1024;
    };
}

std::string
l1iKey(unsigned kb)
{
    return "l1i" + std::to_string(kb);
}

std::vector<TweakVariant>
l1iVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned kb : kL1SizesKB) {
        out.push_back({l1iKey(kb), strprintf("%uKB L1-I", kb),
                       l1iTweak(kb)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"L1-I KB", "gmean base IPC", "mean base MPKI",
                  "gmean FDP speedup"});

    for (unsigned kb : kL1SizesKB) {
        std::string key = l1iKey(kb);
        std::vector<double> ipcs, mpkis, speedups;
        for (const auto &name : allWorkloadNames()) {
            const SimResults &base =
                sweep.run(name, PrefetchScheme::None, key);
            ipcs.push_back(base.ipc);
            mpkis.push_back(base.mpki);
            speedups.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
        }
        double log_ipc = 0;
        for (double v : ipcs)
            log_ipc += std::log(v);
        double gmean_ipc = std::exp(log_ipc / ipcs.size());
        t.addRow({AsciiTable::integer(kb),
                  AsciiTable::num(gmean_ipc, 3),
                  AsciiTable::num(mean(mpkis), 2),
                  AsciiTable::pct(gmeanSpeedup(speedups))});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F10";
    s.title = "L1-I capacity sweep (8..64KB) x {none, FDP remove}";
    s.shape =
        "baseline MPKI and FDP's speedup both collapse as the cache "
        "approaches the working-set size";
    s.paperRef = "MICRO-32, Fig. 10 (L1-I capacity sensitivity)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{allWorkloadNames(), {PrefetchScheme::FdpRemove},
                l1iVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
