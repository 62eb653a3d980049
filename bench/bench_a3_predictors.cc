/**
 * R-A3 — Direction-predictor ablation: FDIP effectiveness depends on
 * the front-end staying on the correct path. Sweeps the predictor
 * (bimodal, gshare, local 2-level, McFarling hybrid) for the baseline
 * and FDP, plus a small victim-cache ablation beside it.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr PredictorKind kPredictors[] = {
    PredictorKind::Bimodal, PredictorKind::Gshare,
    PredictorKind::Local2Level, PredictorKind::Hybrid};

constexpr unsigned kVictimEntries[] = {0u, 16u};

Runner::Tweak
predTweak(PredictorKind kind)
{
    return [kind](SimConfig &cfg) {
        cfg.bpu.predictor = kind;
    };
}

std::string
predKey(PredictorKind kind)
{
    return std::string("pred-") + predictorKindName(kind);
}

Runner::Tweak
vcTweak(unsigned entries)
{
    return [entries](SimConfig &cfg) {
        cfg.mem.victimCacheEntries = entries;
    };
}

std::string
vcKey(unsigned entries)
{
    return "vc" + std::to_string(entries);
}

std::vector<TweakVariant>
predVariants()
{
    std::vector<TweakVariant> out;
    for (PredictorKind kind : kPredictors) {
        out.push_back({predKey(kind),
                       std::string(predictorKindName(kind)) +
                           " direction predictor",
                       predTweak(kind)});
    }
    return out;
}

std::vector<TweakVariant>
vcVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned entries : kVictimEntries) {
        out.push_back({vcKey(entries),
                       entries == 0
                           ? std::string("no victim cache")
                           : strprintf("%u-entry victim cache",
                                       entries),
                       vcTweak(entries)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"predictor", "gmean base IPC", "cond misp/KI",
                  "gmean FDP speedup"});

    for (PredictorKind kind : kPredictors) {
        std::string key = predKey(kind);
        std::vector<double> ipcs, misps, speedups;
        for (const auto &name : largeFootprintNames()) {
            const SimResults &base =
                sweep.run(name, PrefetchScheme::None, key);
            ipcs.push_back(base.ipc);
            misps.push_back(base.condMispredictPerKilo);
            speedups.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
        }
        double log_ipc = 0;
        for (double v : ipcs)
            log_ipc += std::log(v);
        t.addRow({predictorKindName(kind),
                  AsciiTable::num(std::exp(log_ipc / ipcs.size()), 3),
                  AsciiTable::num(mean(misps), 2),
                  AsciiTable::pct(gmeanSpeedup(speedups))});
    }
    print(t.render());

    // Victim-cache side experiment: conflict-miss relief vs FDP.
    print("\nvictim cache (16-entry FA) beside the 2-way L1-I:\n");
    AsciiTable v({"config", "gmean base IPC", "gmean FDP speedup"});
    for (auto [label, entries] :
         {std::pair<const char *, unsigned>{"no victim cache", 0u},
          std::pair<const char *, unsigned>{"16-entry victim cache",
                                            16u}}) {
        std::string key = vcKey(entries);
        std::vector<double> ipcs, speedups;
        for (const auto &name : largeFootprintNames()) {
            const SimResults &base =
                sweep.run(name, PrefetchScheme::None, key);
            ipcs.push_back(base.ipc);
            speedups.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
        }
        double log_ipc = 0;
        for (double x : ipcs)
            log_ipc += std::log(x);
        v.addRow({label,
                  AsciiTable::num(std::exp(log_ipc / ipcs.size()), 3),
                  AsciiTable::pct(gmeanSpeedup(speedups))});
    }
    print(v.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-A3";
    s.title = "direction predictor x {baseline, FDP remove}";
    s.shape =
        "better prediction -> fewer wrong-path fetches -> higher "
        "baseline IPC and better FDP candidate quality; the hybrid "
        "matches or beats its components";
    s.paperRef = "direction-predictor + victim-cache ablation "
                 "(not a paper figure)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {
        {largeFootprintNames(), {PrefetchScheme::FdpRemove},
         predVariants(), true},
        {largeFootprintNames(), {PrefetchScheme::FdpRemove},
         vcVariants(), true},
    };
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
