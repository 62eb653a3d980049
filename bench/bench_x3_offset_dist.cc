/**
 * X-F3 — EXTENSION: distribution of branch-target offset widths across
 * the dynamic branch working set of the whole suite. This is the
 * figure the partitioned-BTB sizing is derived from.
 */

#include <map>

#include "common/intmath.hh"
#include "bench_util.hh"
#include "sim/experiment.hh"
#include "trace/synth_builder.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

void
render(const Sweep &)
{
    constexpr int kInstsPerWorkload = 300 * 1000;
    std::map<unsigned, std::uint64_t> hist;
    std::uint64_t returns = 0, indirects = 0, total = 0;

    for (const auto &p : workloadSuite()) {
        auto prog = buildProgram(p);
        SyntheticExecutor exec(*prog, p);
        for (int i = 0; i < kInstsPerWorkload; ++i) {
            TraceInstr ti = exec.next();
            if (!isControl(ti.cls) || !ti.taken)
                continue;
            ++total;
            if (ti.cls == InstClass::Return) {
                ++returns;
                continue;
            }
            if (isIndirect(ti.cls)) {
                ++indirects;
                continue;
            }
            std::int64_t delta =
                (static_cast<std::int64_t>(ti.target) -
                 static_cast<std::int64_t>(ti.pc)) /
                static_cast<std::int64_t>(instBytes);
            ++hist[bitsForOffset(delta)];
        }
    }

    AsciiTable t({"offset bits", "% of taken transfers", "cumulative"});
    double cum = 0.0;
    for (auto [bits, count] : hist) {
        double frac = 100.0 * double(count) / double(total);
        cum += frac;
        t.addRow({AsciiTable::integer(bits),
                  AsciiTable::num(frac, 2) + "%",
                  AsciiTable::num(cum, 2) + "%"});
    }
    t.addRow({"returns (no target field)",
              AsciiTable::num(100.0 * double(returns) / double(total), 2)
                  + "%", ""});
    t.addRow({"indirect (full width)",
              AsciiTable::num(100.0 * double(indirects) / double(total),
                              2) + "%", ""});
    print(t.render());

    // Per-partition capture rates under the default sizing.
    double p8 = 0, p13 = 0, p23 = 0;
    for (auto [bits, count] : hist) {
        double frac = double(count) / double(total);
        if (bits <= 8)
            p8 += frac;
        else if (bits <= 13)
            p13 += frac;
        else if (bits <= 23)
            p23 += frac;
    }
    print(strprintf(
        "\npartition demand: <=8b %.1f%% (+returns %.1f%%), 9-13b "
        "%.1f%%, 14-23b %.1f%%, full %.1f%%\n",
        p8 * 100, 100.0 * double(returns) / double(total), p13 * 100,
        p23 * 100, 100.0 * double(indirects) / double(total)));
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "X-F3";
    s.title = "dynamic branch target offset-width distribution";
    s.shape =
        "short offsets dominate; returns and indirect branches form "
        "the full-width tail — this drives the partition sizing";
    s.paperRef = "FDIP-Revisited (2020) partition-sizing input "
                 "(trace analysis, no simulation)";
    s.question = "How short are dynamic branch-target offsets really "
                 "— i.e. how much target storage can a partitioned "
                 "BTB save?";
    // Walks the traces directly; no Runner grid.
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
