/**
 * R-T1 — Workload characterization (the paper's benchmark table).
 * Columns: static code footprint, dynamic control-flow fraction,
 * baseline (no-prefetch) L1-I MPKI, baseline IPC, and conditional
 * mispredictions per kilo-instruction.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"
#include "trace/synth_builder.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

void
render(const Sweep &sweep)
{
    AsciiTable t({"workload", "code KB", "dyn branch%", "base IPC",
                  "L1-I MPKI", "cond misp/KI"});

    for (const auto &name : allWorkloadNames()) {
        auto prog = buildProgram(findProfile(name));
        const SimResults &r = sweep.run(name, PrefetchScheme::None);

        // Dynamic CF fraction: all control transfers the BPU verified
        // in the measurement window.
        double cf = r.stats.value("bpu.cf_seen");

        t.addRow({name,
                  AsciiTable::num(prog->codeBytes() / 1024.0, 0),
                  AsciiTable::pct(cf / double(r.instructions), 1),
                  AsciiTable::num(r.ipc, 3),
                  AsciiTable::num(r.mpki, 2),
                  AsciiTable::num(r.condMispredictPerKilo, 2)});
    }

    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-T1";
    s.title = "workload characterization (no-prefetch baseline)";
    s.shape =
        "large-footprint workloads (burg..vortex) show high L1-I MPKI; "
        "small ones (li..deltablue) are nearly cache-resident";
    s.paperRef = "MICRO-32, Table 1 (benchmark characterization)";
    s.warmup = kWarmup;
    s.measure = kMeasure;
    s.grids = {{allWorkloadNames(), {PrefetchScheme::None}, {},
                /*withBaseline=*/false}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
