/**
 * R-F4 — Speedup of the non-FDP prefetchers over the no-prefetch
 * baseline: tagged next-line prefetching and streaming buffers with
 * 1/2/4/8 buffers.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kBufferCounts[] = {1u, 2u, 4u, 8u};

Runner::Tweak
sbTweak(unsigned n)
{
    return [n](SimConfig &cfg) {
        cfg.sb.numBuffers = n;
        cfg.sb.allocationFilter = false;
    };
}

std::string
sbKey(unsigned n)
{
    return "sb" + std::to_string(n);
}

std::vector<TweakVariant>
sbVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned n : kBufferCounts) {
        out.push_back({sbKey(n),
                       strprintf("%u stream buffers, no allocation "
                                 "filter", n),
                       sbTweak(n)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"workload", "NLP", "SB x1", "SB x2", "SB x4",
                  "SB x8"});

    std::vector<double> nlp_s, sb1_s, sb2_s, sb4_s, sb8_s;

    for (const auto &name : allWorkloadNames()) {
        auto sb = [&sweep, &name](unsigned n) {
            return sweep.speedup(name, PrefetchScheme::StreamBuffer,
                                 sbKey(n));
        };
        double nlp = sweep.speedup(name, PrefetchScheme::Nlp);
        double sb1 = sb(1), sb2 = sb(2), sb4 = sb(4), sb8 = sb(8);
        nlp_s.push_back(nlp);
        sb1_s.push_back(sb1);
        sb2_s.push_back(sb2);
        sb4_s.push_back(sb4);
        sb8_s.push_back(sb8);
        t.addRow({name, AsciiTable::pct(nlp), AsciiTable::pct(sb1),
                  AsciiTable::pct(sb2), AsciiTable::pct(sb4),
                  AsciiTable::pct(sb8)});
    }

    t.addRow({"gmean", AsciiTable::pct(gmeanSpeedup(nlp_s)),
              AsciiTable::pct(gmeanSpeedup(sb1_s)),
              AsciiTable::pct(gmeanSpeedup(sb2_s)),
              AsciiTable::pct(gmeanSpeedup(sb4_s)),
              AsciiTable::pct(gmeanSpeedup(sb8_s))});
    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F4";
    s.title = "NLP and stream-buffer speedup over no-prefetch";
    s.shape =
        "both help on large-footprint workloads; more stream buffers "
        "help up to a point; neither approaches FDP (see R-F5)";
    s.paperRef = "MICRO-32, Fig. 4 (non-FDP prefetcher speedups)";
    s.warmup = kWarmup;
    s.measure = kMeasure;
    s.grids = {
        {allWorkloadNames(), {PrefetchScheme::Nlp}, {}, true},
        {allWorkloadNames(), {PrefetchScheme::StreamBuffer},
         sbVariants(), true},
    };
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
