/**
 * R-A2 — L1-I replacement-policy ablation: does the prefetcher's value
 * depend on the cache's replacement policy? (LRU vs FIFO vs random,
 * baseline and FDP.)
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr ReplPolicy kPolicies[] = {ReplPolicy::Lru, ReplPolicy::Fifo,
                                    ReplPolicy::Random};

Runner::Tweak
replTweak(ReplPolicy policy)
{
    return [policy](SimConfig &cfg) {
        cfg.mem.l1i.repl = policy;
    };
}

std::string
replKey(ReplPolicy policy)
{
    return std::string("repl-") + replPolicyName(policy);
}

std::vector<TweakVariant>
replVariants()
{
    std::vector<TweakVariant> out;
    for (ReplPolicy policy : kPolicies) {
        out.push_back({replKey(policy),
                       std::string(replPolicyName(policy)) +
                           " L1-I replacement",
                       replTweak(policy)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"policy", "gmean base IPC", "mean base MPKI",
                  "gmean FDP speedup"});

    for (ReplPolicy policy : kPolicies) {
        std::string key = replKey(policy);
        std::vector<double> ipcs, mpkis, speedups;
        for (const auto &name : largeFootprintNames()) {
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
        t.addRow({replPolicyName(policy),
                  AsciiTable::num(std::exp(log_ipc / ipcs.size()), 3),
                  AsciiTable::num(mean(mpkis), 2),
                  AsciiTable::pct(gmeanSpeedup(speedups))});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-A2";
    s.title = "L1-I replacement policy x {baseline, FDP remove}";
    s.shape =
        "LRU is the best baseline; FDP's relative gain is largely "
        "policy-insensitive because it attacks compulsory/capacity "
        "misses ahead of time";
    s.paperRef = "replacement-policy ablation (not a paper figure)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(), {PrefetchScheme::FdpRemove},
                replVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
