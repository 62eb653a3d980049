/**
 * X-F13 — EXTENSION (2020 revisit, Figs. 5/6): FDIP performance gain
 * vs BTB storage budget, comparing the unified block-based FTB
 * front-end against the partitioned conventional-BTB front-end at
 * matched storage rungs. Speedups are over the no-prefetch baseline
 * with the same front-end configuration.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

/** The largest rungs change nothing for our branch working sets;
 *  sweep the interesting lower half of the ladder. */
std::vector<BtbBudgetPoint>
sweptLadder()
{
    auto ladder = btbBudgetLadder();
    ladder.resize(4); // 11.5K .. 89K
    return ladder;
}

Runner::Tweak
uniTweak(BtbBudgetPoint pt)
{
    return [pt](SimConfig &cfg) {
        applyFtbBudget(cfg, pt.ftbEntries);
    };
}

Runner::Tweak
partTweak(BtbBudgetPoint pt)
{
    return [pt](SimConfig &cfg) {
        applyPartitionedBudget(cfg, pt.ftbEntries);
    };
}

std::string
uniKey(BtbBudgetPoint pt)
{
    return "uni" + std::to_string(pt.ftbEntries);
}

std::string
partKey(BtbBudgetPoint pt)
{
    return "part" + std::to_string(pt.ftbEntries);
}

std::vector<TweakVariant>
budgetVariants()
{
    std::vector<TweakVariant> out;
    for (const auto &pt : sweptLadder()) {
        out.push_back({uniKey(pt),
                       strprintf("unified FTB, %u entries",
                                 pt.ftbEntries),
                       uniTweak(pt)});
        out.push_back({partKey(pt),
                       strprintf("partitioned BTB at the %u-entry "
                                 "unified budget", pt.ftbEntries),
                       partTweak(pt)});
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"budget", "unified FTB gmean", "partitioned gmean"});

    for (const auto &pt : sweptLadder()) {
        std::vector<double> uni, part;
        for (const auto &name : allWorkloadNames()) {
            uni.push_back(sweep.speedup(name, PrefetchScheme::FdpRemove,
                                        uniKey(pt)));
            part.push_back(sweep.speedup(name, PrefetchScheme::FdpRemove,
                                         partKey(pt)));
        }
        t.addRow({AsciiTable::num(pt.ftbBudgetKB, 1) + "KB",
                  AsciiTable::pct(gmeanSpeedup(uni)),
                  AsciiTable::pct(gmeanSpeedup(part))});
    }
    print(t.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "X-F13";
    s.title = "FDIP gain vs BTB budget: unified FTB vs partitioned";
    s.shape =
        "the partitioned 16-bit-tag design wins clearly at small "
        "budgets (more branches tracked per KB) and the two converge "
        "once the branch working set fits either way";
    s.paperRef = "FDIP-Revisited (2020), Figs. 5/6 (gain vs BTB "
                 "storage)";
    s.question = "At which BTB storage budgets does the partitioned "
                 "front-end beat the unified FTB at driving FDIP?";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{allWorkloadNames(), {PrefetchScheme::FdpRemove},
                budgetVariants(), true}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
