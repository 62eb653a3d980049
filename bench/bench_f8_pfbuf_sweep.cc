/**
 * R-F8 — Prefetch-buffer size sensitivity: FDP (remove-CPF) gmean
 * speedup over no-prefetch with 8..64 buffer entries, on the
 * large-footprint workload subset.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kBufferSizes[] = {8u, 16u, 32u, 64u};

Runner::Tweak
pfbufTweak(unsigned entries)
{
    return [entries](SimConfig &cfg) {
        cfg.mem.prefetchBufferEntries = entries;
    };
}

std::string
pfbufKey(unsigned entries)
{
    return "pfbuf" + std::to_string(entries);
}

std::vector<TweakVariant>
pfbufVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned entries : kBufferSizes) {
        out.push_back({pfbufKey(entries),
                       strprintf("%u-entry prefetch buffer", entries),
                       pfbufTweak(entries)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"entries", "gmean speedup", "gmean accuracy",
                  "unused evictions/KI"});

    for (unsigned entries : kBufferSizes) {
        std::string key = pfbufKey(entries);
        std::vector<double> speedups, accs, evics;
        for (const auto &name : largeFootprintNames()) {
            speedups.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
            const SimResults &r =
                sweep.run(name, PrefetchScheme::FdpRemove, key);
            accs.push_back(r.prefetchAccuracy);
            evics.push_back(r.stats.value("pfbuf.unused_evictions") /
                            (double(r.instructions) / 1000.0));
        }
        t.addRow({AsciiTable::integer(entries),
                  AsciiTable::pct(gmeanSpeedup(speedups)),
                  AsciiTable::pct(mean(accs)),
                  AsciiTable::num(mean(evics), 2)});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F8";
    s.title = "prefetch buffer size sweep (FDP remove-CPF)";
    s.shape =
        "speedup grows with buffer size and saturates around 32 "
        "entries — the paper's chosen design point";
    s.paperRef = "MICRO-32, Fig. 8 (prefetch buffer size)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(), {PrefetchScheme::FdpRemove},
                pfbufVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
