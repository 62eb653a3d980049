/**
 * R-F5 — The headline result: fetch-directed prefetching speedup over
 * the no-prefetch baseline, for each cache-probe-filtering variant,
 * with NLP as the non-FDP reference point.
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
    AsciiTable t({"workload", "NLP", "FDP nofilter", "FDP enqueue",
                  "FDP remove", "FDP ideal"});

    std::vector<std::vector<double>> cols(5);
    for (const auto &name : allWorkloadNames()) {
        std::vector<double> s;
        s.push_back(sweep.speedup(name, PrefetchScheme::Nlp));
        s.push_back(sweep.speedup(name, PrefetchScheme::FdpNone));
        s.push_back(sweep.speedup(name, PrefetchScheme::FdpEnqueue));
        s.push_back(sweep.speedup(name, PrefetchScheme::FdpRemove));
        s.push_back(sweep.speedup(name, PrefetchScheme::FdpIdeal));
        for (int i = 0; i < 5; ++i)
            cols[i].push_back(s[i]);
        t.addRow({name, AsciiTable::pct(s[0]), AsciiTable::pct(s[1]),
                  AsciiTable::pct(s[2]), AsciiTable::pct(s[3]),
                  AsciiTable::pct(s[4])});
    }

    std::vector<std::string> row{"gmean"};
    for (int i = 0; i < 5; ++i)
        row.push_back(AsciiTable::pct(gmeanSpeedup(cols[i])));
    t.addRow(row);
    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F5";
    s.title = "FDP speedup by CPF variant vs NLP";
    s.shape =
        "every FDP variant beats NLP; CPF variants match or beat "
        "no-filter FDP while using far less bus bandwidth (see R-F6); "
        "remove-CPF is the best realistic variant";
    s.paperRef = "MICRO-32, Fig. 5 (FDP speedup by CPF variant)";
    s.warmup = kWarmup;
    s.measure = kMeasure;
    s.grids = {{allWorkloadNames(),
                {PrefetchScheme::Nlp, PrefetchScheme::FdpNone,
                 PrefetchScheme::FdpEnqueue, PrefetchScheme::FdpRemove,
                 PrefetchScheme::FdpIdeal},
                {}, true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
