/**
 * R-F2 — FTQ occupancy distribution on the decoupled baseline.
 * The FTQ's ability to run ahead of fetch is what gives FDP its
 * prefetch lookahead; this figure shows how full it actually gets.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

void
render(const Sweep &sweep)
{
    AsciiTable t({"workload", "mean occ", "% empty", "% full",
                  "p50", "p90"});

    for (const auto &name : allWorkloadNames()) {
        const SimResults &r = sweep.run(name, PrefetchScheme::None);
        const Histogram &h = r.ftqOccupancy;
        t.addRow({name,
                  AsciiTable::num(h.mean(), 1),
                  AsciiTable::pct(h.fraction(0), 1),
                  AsciiTable::pct(h.fraction(32), 1),
                  AsciiTable::integer(h.percentile(0.5)),
                  AsciiTable::integer(h.percentile(0.9))});
    }

    print(t.render());

    // One full rendered distribution for a representative workload.
    const SimResults &gcc = sweep.run("gcc", PrefetchScheme::None);
    print("\n");
    print(gcc.ftqOccupancy.render("gcc FTQ occupancy"));
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F2";
    s.title = "FTQ occupancy distribution (32-entry FTQ, no prefetch)";
    s.shape =
        "the FTQ is rarely empty; occupancy piles up high whenever the "
        "fetch engine stalls on L1-I misses, i.e. on large-footprint "
        "workloads";
    s.paperRef = "MICRO-32, Fig. 2 (FTQ occupancy)";
    s.warmup = kWarmup;
    s.measure = kMeasure;
    s.grids = {{allWorkloadNames(), {PrefetchScheme::None}, {},
                /*withBaseline=*/false}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
