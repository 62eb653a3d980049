/**
 * X-T2 — EXTENSION (2020 revisit, Tables I & II): storage breakdown of
 * the unified basic-block-oriented BTB vs the 4-partition offset BTB
 * ensemble at matched budgets. Pure storage accounting; no simulation.
 */

#include "bpu/ftb.hh"
#include "bpu/partitioned_btb.hh"
#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

void
render(const Sweep &)
{
    AsciiTable t({"budget", "unified entries", "unified KB",
                  "partitioned entries", "partitioned KB",
                  "entry ratio"});

    for (const auto &pt : btbBudgetLadder()) {
        Ftb::Config fc;
        fc.sets = pt.ftbEntries / 8;
        fc.ways = 8;
        Ftb ftb(fc);

        auto pcfg = PartitionedBtb::makeDefaultConfig(pt.ftbEntries);
        PartitionedBtb pbtb(pcfg);

        double ukb = double(ftb.storageBits()) / 8 / 1024;
        double pkb = double(pbtb.storageBits()) / 8 / 1024;
        t.addRow({AsciiTable::num(pt.ftbBudgetKB, 2) + "KB",
                  AsciiTable::integer(ftb.numEntries()),
                  AsciiTable::num(ukb, 2),
                  AsciiTable::integer(pbtb.numEntries()),
                  AsciiTable::num(pkb, 2),
                  AsciiTable::num(double(pbtb.numEntries()) /
                                  ftb.numEntries(), 2) + "x"});
    }
    print(t.render());

    // Per-partition detail at the smallest budget (Table II's top).
    print("\npartition detail at the 11.5KB rung (unified-entries 1024):\n");
    AsciiTable d({"partition", "entry bits", "entries", "KB"});
    auto pcfg = PartitionedBtb::makeDefaultConfig(1024);
    PartitionedBtb pbtb(pcfg);
    for (unsigned i = 0; i < pbtb.numPartitions(); ++i) {
        const Btb &p = pbtb.partition(i);
        d.addRow({p.name(),
                  AsciiTable::integer(p.entryBits()),
                  AsciiTable::integer(p.numEntries()),
                  AsciiTable::num(double(p.storageBits()) / 8 / 1024, 2)});
    }
    print(d.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "X-T2";
    s.title = "unified block-based BTB vs partitioned-BTB storage";
    s.shape =
        "the partitioned ensemble fits ~2.4x the entries of the "
        "unified design in the same (or less) storage";
    s.paperRef = "FDIP-Revisited (2020), Tables I & II (storage "
                 "breakdown)";
    s.question = "How many more branch targets does the 4-partition "
                 "offset-BTB track than a unified BTB of the same "
                 "storage budget?";
    // Pure storage accounting: no grids, no simulation.
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
