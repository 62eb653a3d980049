/**
 * R-F6 — L1<->L2 bus utilization per prefetching scheme: the cost side
 * of R-F5. Cache probe filtering exists to buy FDP's coverage without
 * no-filter FDP's bandwidth bill.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

std::vector<PrefetchScheme>
f6Schemes()
{
    return {PrefetchScheme::None, PrefetchScheme::Nlp,
            PrefetchScheme::StreamBuffer, PrefetchScheme::FdpNone,
            PrefetchScheme::FdpEnqueue, PrefetchScheme::FdpRemove,
            PrefetchScheme::FdpIdeal};
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"workload", "none", "NLP", "SB", "FDP nofil",
                  "FDP enq", "FDP rem", "FDP ideal"});

    std::vector<PrefetchScheme> schemes = f6Schemes();

    std::vector<std::vector<double>> cols(schemes.size());
    for (const auto &name : allWorkloadNames()) {
        std::vector<std::string> row{name};
        for (std::size_t i = 0; i < schemes.size(); ++i) {
            const SimResults &r = sweep.run(name, schemes[i]);
            cols[i].push_back(r.l2BusUtil);
            row.push_back(AsciiTable::pct(r.l2BusUtil));
        }
        t.addRow(row);
    }

    std::vector<std::string> avg{"mean"};
    for (auto &c : cols)
        avg.push_back(AsciiTable::pct(mean(c)));
    t.addRow(avg);
    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F6";
    s.title = "L2-bus utilization per scheme";
    s.shape =
        "no-filter FDP burns by far the most bandwidth; CPF variants "
        "cut it to near the filtered-prefetcher level; the no-prefetch "
        "baseline is the floor";
    s.paperRef = "MICRO-32, Fig. 6 (L2 bus utilization)";
    s.warmup = kWarmup;
    s.measure = kMeasure;
    s.grids = {{allWorkloadNames(), f6Schemes(), {},
                /*withBaseline=*/false}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
