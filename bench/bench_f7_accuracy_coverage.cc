/**
 * R-F7 — Prefetch accuracy (useful/issued) and coverage (fraction of
 * would-be misses served by prefetching) per scheme, with the lifecycle
 * attribution split: timely (consumed after the fill), late (demand
 * merged with the in-flight prefetch), and pollution (prefetch L2
 * fills that displaced lines demands later missed on).
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
    AsciiTable t({"workload", "scheme", "accuracy", "coverage",
                  "timely", "late", "pollution", "issued/KI"});

    for (const auto &name : allWorkloadNames()) {
        for (auto scheme : allSchemes()) {
            const SimResults &r = sweep.run(name, scheme);
            double issued_ki =
                r.stats.value("mem.prefetches_issued") /
                (static_cast<double>(r.instructions) / 1000.0);
            t.addRow({name, schemeName(scheme),
                      AsciiTable::pct(r.prefetchAccuracy),
                      AsciiTable::pct(r.prefetchCoverage),
                      AsciiTable::pct(r.prefetchTimely),
                      AsciiTable::pct(r.prefetchLate),
                      AsciiTable::pct(r.prefetchPollution),
                      AsciiTable::num(issued_ki, 1)});
        }
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F7";
    s.title = "prefetch accuracy and coverage per scheme";
    s.shape =
        "CPF lifts FDP accuracy far above the no-filter variant while "
        "keeping the best coverage of all schemes; NLP is accurate but "
        "covers only sequential misses; SB sits between";
    s.paperRef = "MICRO-32, Fig. 7 (accuracy and coverage)";
    s.warmup = kWarmup;
    s.measure = kMeasure;
    s.grids = {{allWorkloadNames(), allSchemes(), {},
                /*withBaseline=*/false}};
    s.render = render;
    s.notes = "timely/late/pollution come from the prefetch lifecycle "
              "attribution (docs/OBSERVABILITY.md), as fractions of "
              "issued prefetches; pollution is an independent class "
              "(one prefetch can pollute and still be useful), so the "
              "columns need not sum to 100%.";
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
