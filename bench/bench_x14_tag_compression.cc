/**
 * X-F14 — EXTENSION (2020 revisit, Fig. 7): performance impact of
 * 16-bit folded-XOR tag compression vs full tags in the partitioned
 * BTB, at the smallest budget (where aliasing pressure is highest).
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

void
tag16Tweak(SimConfig &cfg)
{
    applyPartitionedBudget(cfg, 1024);
    cfg.bpu.pbtb.tagBits = 16;
}

void
tagfullTweak(SimConfig &cfg)
{
    applyPartitionedBudget(cfg, 1024);
    cfg.bpu.pbtb.tagBits = 0; // full tags
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"workload", "16-bit tag", "full tag", "delta"});

    std::vector<double> s16, sfull;
    for (const auto &name : allWorkloadNames()) {
        double a = sweep.speedup(name, PrefetchScheme::FdpRemove, "tag16");
        double b =
            sweep.speedup(name, PrefetchScheme::FdpRemove, "tagfull");
        s16.push_back(a);
        sfull.push_back(b);
        t.addRow({name, AsciiTable::pct(a), AsciiTable::pct(b),
                  AsciiTable::pct(b - a, 2)});
    }
    t.addRow({"gmean", AsciiTable::pct(gmeanSpeedup(s16)),
              AsciiTable::pct(gmeanSpeedup(sfull)),
              AsciiTable::pct(gmeanSpeedup(sfull) - gmeanSpeedup(s16), 2)});
    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "X-F14";
    s.title = "16-bit folded-XOR tags vs full tags (smallest BTB)";
    s.shape =
        "the compressed tag costs almost nothing: the folded XOR "
        "preserves the high-order entropy";
    s.paperRef = "FDIP-Revisited (2020), Fig. 7 (tag compression)";
    s.question = "How much prediction accuracy (and FDIP gain) do "
                 "16-bit folded-XOR BTB tags give up vs full tags?";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{allWorkloadNames(), {PrefetchScheme::FdpRemove},
                {{"tag16", "16-bit folded-XOR tags, 1024-entry "
                  "unified budget", tag16Tweak},
                 {"tagfull", "full tags, 1024-entry unified budget",
                  tagfullTweak}},
                true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
