/**
 * R-F12 — Cache-probe-filter port sensitivity: how many L1-I tag
 * ports do the realistic CPF variants need to approach ideal CPF?
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kPortCounts[] = {1u, 2u, 3u, 4u};

Runner::Tweak
portTweak(unsigned ports)
{
    return [ports](SimConfig &cfg) {
        cfg.mem.l1TagPorts = ports;
    };
}

std::string
portKey(unsigned ports)
{
    return "ports" + std::to_string(ports);
}

std::vector<TweakVariant>
portVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned ports : kPortCounts) {
        out.push_back({portKey(ports),
                       strprintf("%u L1-I tag ports", ports),
                       portTweak(ports)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"tag ports", "FDP enqueue", "FDP remove",
                  "FDP ideal"});

    for (unsigned ports : kPortCounts) {
        std::string key = portKey(ports);
        std::vector<double> enq, rem, ideal;
        for (const auto &name : largeFootprintNames()) {
            enq.push_back(
                sweep.speedup(name, PrefetchScheme::FdpEnqueue, key));
            rem.push_back(
                sweep.speedup(name, PrefetchScheme::FdpRemove, key));
            ideal.push_back(
                sweep.speedup(name, PrefetchScheme::FdpIdeal, key));
        }
        t.addRow({AsciiTable::integer(ports),
                  AsciiTable::pct(gmeanSpeedup(enq)),
                  AsciiTable::pct(gmeanSpeedup(rem)),
                  AsciiTable::pct(gmeanSpeedup(ideal))});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-F12";
    s.title = "CPF tag-port sweep (enqueue and remove vs ideal)";
    s.shape =
        "with a single port (fully consumed by demand fetch) the "
        "realistic variants degrade; two ports recover nearly all of "
        "ideal CPF's benefit";
    s.paperRef = "MICRO-32, Fig. 12 (CPF tag-port sensitivity)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(),
                {PrefetchScheme::FdpEnqueue, PrefetchScheme::FdpRemove,
                 PrefetchScheme::FdpIdeal},
                portVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
