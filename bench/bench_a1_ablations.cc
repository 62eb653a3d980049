/**
 * R-A1 — Design-choice ablations called out in DESIGN.md §6, plus the
 * oracle upper bound:
 *
 *  (a) prefetch buffer vs filling prefetches straight into the L1-I
 *      (cache pollution from wrong-path prefetches),
 *  (b) idle-bus-only prefetch transfers vs letting prefetches queue
 *      in front of demand traffic (demand priority),
 *  (c) conservative vs aggressive enqueue-CPF port policy,
 *  (d) the perfect-address oracle prefetcher as the ceiling.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

void
l1fillTweak(SimConfig &c)
{
    c.fdp.fillIntoL1 = true;
}

void
busqTweak(SimConfig &c)
{
    c.mem.prefetchMayQueueOnBus = true;
}

void
onePortTweak(SimConfig &c)
{
    c.mem.l1TagPorts = 1;
}

void
render(const Sweep &sweep)
{
    // (a) + (b) + (d): per-workload gmean table.
    AsciiTable t({"variant", "gmean speedup", "mean L2-bus util"});

    struct Variant
    {
        const char *label;
        PrefetchScheme scheme;
        const char *key;
    };

    std::vector<Variant> variants = {
        {"FDP -> prefetch buffer (default)", PrefetchScheme::FdpRemove,
         ""},
        {"FDP -> straight into L1-I", PrefetchScheme::FdpRemove,
         "l1fill"},
        {"FDP, prefetch may queue on bus", PrefetchScheme::FdpRemove,
         "busq"},
        {"FDP no-filter, may queue on bus", PrefetchScheme::FdpNone,
         "busq"},
        {"oracle (perfect addresses)", PrefetchScheme::Oracle, ""},
    };

    for (const auto &v : variants) {
        std::vector<double> speedups, utils;
        for (const auto &name : largeFootprintNames()) {
            speedups.push_back(sweep.speedup(name, v.scheme, v.key));
            const SimResults &r = sweep.run(name, v.scheme, v.key);
            utils.push_back(r.l2BusUtil);
        }
        t.addRow({v.label, AsciiTable::pct(gmeanSpeedup(speedups)),
                  AsciiTable::pct(mean(utils))});
    }
    print(t.render());

    // (c): enqueue policies under port scarcity (1 port = demand only).
    print("\nenqueue-CPF port policy (1 tag port: no idle probes):\n");
    AsciiTable p({"variant", "gmean speedup"});
    for (auto [label, scheme] :
         {std::pair<const char *, PrefetchScheme>{
              "enqueue (conservative)", PrefetchScheme::FdpEnqueue},
          std::pair<const char *, PrefetchScheme>{
              "enqueue (aggressive)",
              PrefetchScheme::FdpEnqueueAggressive}}) {
        std::vector<double> speedups;
        for (const auto &name : largeFootprintNames()) {
            speedups.push_back(sweep.speedup(name, scheme, "1port"));
        }
        p.addRow({label, AsciiTable::pct(gmeanSpeedup(speedups))});
    }
    print(p.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-A1";
    s.title = "design ablations (FDP remove-CPF unless noted)";
    s.shape =
        "buffer fills save bandwidth vs direct L1 fills; letting "
        "prefetches queue on the bus trades bandwidth for timeliness "
        "(it can help when, as here, no data traffic shares the bus — "
        "the paper's demand-priority argument assumes a shared bus); "
        "oracle bounds all";
    s.paperRef = "DESIGN.md sec. 6 ablations + oracle bound "
                 "(not a paper figure)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {
        {largeFootprintNames(), {PrefetchScheme::FdpRemove},
         {{"", "prefetch buffer, idle-bus transfers (default)",
           nullptr},
          {"l1fill", "fill straight into L1-I", l1fillTweak},
          {"busq", "prefetch may queue on the bus", busqTweak}},
         true},
        {largeFootprintNames(), {PrefetchScheme::FdpNone},
         {{"busq", "prefetch may queue on the bus", busqTweak}}, true},
        {largeFootprintNames(), {PrefetchScheme::Oracle}, {}, true},
        {largeFootprintNames(),
         {PrefetchScheme::FdpEnqueue,
          PrefetchScheme::FdpEnqueueAggressive},
         {{"1port", "single L1-I tag port", onePortTweak}}, true},
    };
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
