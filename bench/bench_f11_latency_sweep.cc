/**
 * R-F11 — Memory latency sensitivity: FDP speedup as L2 and DRAM
 * latencies scale. Prefetching hides latency, so its value must grow
 * with the latency it hides.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

struct LatencyPoint
{
    Cycle l2;
    Cycle dram;
};

constexpr LatencyPoint kLatencies[] = {
    {6, 35}, {12, 70}, {24, 140}, {48, 280}};

Runner::Tweak
latTweak(LatencyPoint p)
{
    return [p](SimConfig &cfg) {
        cfg.mem.l2HitLatency = p.l2;
        cfg.mem.dramLatency = p.dram;
    };
}

std::string
latKey(LatencyPoint p)
{
    return "lat" + std::to_string(p.l2);
}

std::vector<TweakVariant>
latVariants()
{
    std::vector<TweakVariant> out;
    for (LatencyPoint p : kLatencies) {
        out.push_back({latKey(p),
                       strprintf("L2 %llu / DRAM %llu cycles",
                                 static_cast<unsigned long long>(p.l2),
                                 static_cast<unsigned long long>(
                                     p.dram)),
                       latTweak(p)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"L2 lat", "DRAM lat", "gmean base IPC",
                  "gmean FDP speedup"});

    for (LatencyPoint p : kLatencies) {
        std::string key = latKey(p);
        std::vector<double> ipcs, speedups;
        for (const auto &name : largeFootprintNames()) {
            const SimResults &base =
                sweep.run(name, PrefetchScheme::None, key);
            ipcs.push_back(base.ipc);
            speedups.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
        }
        double log_ipc = 0;
        for (double v : ipcs)
            log_ipc += std::log(v);
        t.addRow({AsciiTable::integer(p.l2),
                  AsciiTable::integer(p.dram),
                  AsciiTable::num(std::exp(log_ipc / ipcs.size()), 3),
                  AsciiTable::pct(gmeanSpeedup(speedups))});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F11";
    s.title = "memory latency sweep (FDP remove-CPF, large set)";
    s.shape =
        "FDP's gmean speedup grows monotonically with miss latency";
    s.paperRef = "MICRO-32, Fig. 11 (memory latency sensitivity)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(), {PrefetchScheme::FdpRemove},
                latVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
