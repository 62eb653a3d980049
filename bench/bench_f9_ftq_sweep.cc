/**
 * R-F9 — FTQ depth sweep: how much decoupling does FDP need?
 * Deeper FTQs give the prefetch engine more lookahead; past a point
 * the extra entries are wrong-path noise.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kFtqSizes[] = {2u, 4u, 8u, 16u, 32u, 64u};

Runner::Tweak
ftqTweak(unsigned entries)
{
    return [entries](SimConfig &cfg) {
        cfg.ftqEntries = entries;
    };
}

std::string
ftqKey(unsigned entries)
{
    return "ftq" + std::to_string(entries);
}

std::vector<TweakVariant>
ftqVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned entries : kFtqSizes) {
        out.push_back({ftqKey(entries),
                       strprintf("%u-entry FTQ", entries),
                       ftqTweak(entries)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"ftq entries", "gmean FDP speedup",
                  "gmean prefetch coverage", "mean occupancy"});

    for (unsigned entries : kFtqSizes) {
        std::string key = ftqKey(entries);
        std::vector<double> speedups, covs, occs;
        for (const auto &name : largeFootprintNames()) {
            speedups.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
            const SimResults &r =
                sweep.run(name, PrefetchScheme::FdpRemove, key);
            covs.push_back(r.prefetchCoverage);
            occs.push_back(r.ftqOccupancy.mean());
        }
        t.addRow({AsciiTable::integer(entries),
                  AsciiTable::pct(gmeanSpeedup(speedups)),
                  AsciiTable::pct(mean(covs)),
                  AsciiTable::num(mean(occs), 1)});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F9";
    s.title = "FTQ depth sweep (FDP remove-CPF vs baseline FTQ=32)";
    s.shape =
        "tiny FTQs cripple FDP (no lookahead); gains saturate by a "
        "few tens of entries";
    s.paperRef = "MICRO-32, Fig. 9 (FTQ size sensitivity)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(), {PrefetchScheme::FdpRemove},
                ftqVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
