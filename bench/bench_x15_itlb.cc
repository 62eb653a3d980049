/**
 * R-X15 — ITLB sweep: fetch-directed prefetching under address
 * translation. Scrambled page mapping, ITLB entries x
 * prefetch-translation policy x workload. Prefetches that miss the
 * ITLB are dropped, wait for the walk, or trigger a TLB fill; the
 * policies should order drop <= wait <= fill once the ITLB is small
 * enough to miss in steady state.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

#include "vm/mmu.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kItlbSizes[] = {8u, 16u, 32u, 64u, 128u};

const std::vector<TlbPrefetchPolicy> &
policies()
{
    static const std::vector<TlbPrefetchPolicy> p = {
        TlbPrefetchPolicy::Drop, TlbPrefetchPolicy::Wait,
        TlbPrefetchPolicy::Fill};
    return p;
}

Runner::Tweak
vmTweak(unsigned entries, TlbPrefetchPolicy policy)
{
    return [entries, policy](SimConfig &cfg) {
        applyVmConfig(cfg, policy, PageMapKind::Scrambled, entries);
    };
}

std::string
vmKey(unsigned entries, TlbPrefetchPolicy policy)
{
    return strprintf("itlb%u-%s", entries, tlbPolicyName(policy));
}

std::vector<TweakVariant>
vmVariants()
{
    // The "" variant is the VM-off reference machine every row is
    // normalized against.
    std::vector<TweakVariant> out;
    out.push_back({"", "VM off (reference)", nullptr});
    for (unsigned entries : kItlbSizes) {
        for (TlbPrefetchPolicy policy : policies()) {
            out.push_back({vmKey(entries, policy),
                           strprintf("%u-entry ITLB, %s policy",
                                     entries, tlbPolicyName(policy)),
                           vmTweak(entries, policy)});
        }
    }
    return out;
}

void
render(const Sweep &sweep)
{
    AsciiTable t({"itlb entries", "policy", "gmean ipc vs vm-off",
                  "itlb mpki", "walks/kinst", "pf dropped/kinst"});

    for (unsigned entries : kItlbSizes) {
        for (TlbPrefetchPolicy policy : policies()) {
            std::string key = vmKey(entries, policy);
            std::vector<double> rel_ipc, tlb_mpki, walks, dropped;
            for (const auto &name : largeFootprintNames()) {
                const SimResults &off =
                    sweep.run(name, PrefetchScheme::FdpRemove);
                const SimResults &on =
                    sweep.run(name, PrefetchScheme::FdpRemove, key);
                double kinsts =
                    static_cast<double>(on.instructions) / 1000.0;
                rel_ipc.push_back(on.ipc / off.ipc - 1.0);
                tlb_mpki.push_back(
                    on.stats.value("itlb.misses") / kinsts);
                walks.push_back(on.stats.value("mmu.walks") / kinsts);
                dropped.push_back(
                    on.stats.value("mmu.pf_dropped") / kinsts);
            }
            t.addRow({AsciiTable::integer(entries),
                      tlbPolicyName(policy),
                      AsciiTable::pct(gmeanSpeedup(rel_ipc)),
                      AsciiTable::num(mean(tlb_mpki), 2),
                      AsciiTable::num(mean(walks), 2),
                      AsciiTable::num(mean(dropped), 2)});
        }
    }

    print(t.render());

    // Per-workload policy ordering at the most TLB-constrained point.
    AsciiTable o({"workload", "drop ipc", "wait ipc", "fill ipc"});
    for (const auto &name : largeFootprintNames()) {
        std::vector<double> ipc;
        for (TlbPrefetchPolicy policy : policies()) {
            ipc.push_back(sweep.run(name, PrefetchScheme::FdpRemove,
                                    vmKey(8, policy)).ipc);
        }
        o.addRow({name, AsciiTable::num(ipc[0], 3),
                  AsciiTable::num(ipc[1], 3),
                  AsciiTable::num(ipc[2], 3)});
    }
    print("\npolicy ordering at 8 ITLB entries:\n");
    print(o.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-X15";
    s.title =
        "ITLB sweep (FDP remove-CPF, scrambled pages, 30-cycle walks)";
    s.shape =
        "small ITLBs punish drop hardest; prefetch-triggered fills "
        "recover most of the loss; a large ITLB converges to the "
        "VM-off machine";
    s.paperRef = "VM/ITLB extension (beyond the paper; follow-on "
                 "literature methodology)";
    s.question = "How much of FDIP's gain survives address "
                 "translation, and which prefetch-translation policy "
                 "(drop/wait/fill) recovers the loss?";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(), {PrefetchScheme::FdpRemove},
                vmVariants(), /*withBaseline=*/false}};
    s.render = render;
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
