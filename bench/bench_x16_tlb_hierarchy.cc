/**
 * R-X16 — TLB-hierarchy sweep: fetch-directed prefetching under a
 * two-level TLB with bounded page-walk bandwidth. A deliberately
 * translation-hostile machine (16-entry ITLB, scrambled pages,
 * 60-cycle walks) sweeps three axes:
 *
 *  - L2-TLB size (0 = single-level, every ITLB miss is a full walk),
 *  - page-table walker count (1 / 2 / unlimited) with demand walks
 *    queueing ahead of prefetch walks,
 *  - the decoupled FTQ TLB prefetcher, against the drop/wait/fill
 *    prefetch-translation policies it complements.
 *
 * The l2-0 x unlimited-walker points are the PR 1 single-level model
 * bit-for-bit (verified by the golden and tick-skip suites); more
 * walkers or a bigger L2 TLB must never lose IPC.
 */

#include "bench_util.hh"
#include "sim/experiment.hh"

#include "vm/mmu.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr unsigned kItlbEntries = 16;
constexpr Cycle kWalkLatency = 60;
constexpr unsigned kL2Sizes[] = {0u, 64u, 256u};
constexpr unsigned kWalkerCounts[] = {1u, 2u, 0u}; // 0 = unlimited

const std::vector<TlbPrefetchPolicy> &
policies()
{
    static const std::vector<TlbPrefetchPolicy> p = {
        TlbPrefetchPolicy::Drop, TlbPrefetchPolicy::Wait,
        TlbPrefetchPolicy::Fill};
    return p;
}

Runner::Tweak
hierTweak(TlbPrefetchPolicy policy, unsigned l2_entries,
          unsigned num_walkers, bool tlbpf)
{
    return [policy, l2_entries, num_walkers, tlbpf](SimConfig &cfg) {
        applyVmConfig(cfg, policy, PageMapKind::Scrambled,
                      kItlbEntries);
        cfg.vm.walkLatency = kWalkLatency;
        applyTlbHierarchy(cfg, l2_entries, num_walkers, tlbpf);
    };
}

std::string
walkerName(unsigned num_walkers)
{
    return num_walkers == 0 ? "winf" : strprintf("w%u", num_walkers);
}

std::string
hierKey(TlbPrefetchPolicy policy, unsigned l2_entries,
        unsigned num_walkers, bool tlbpf)
{
    return strprintf("%s-l2_%u-%s%s", tlbPolicyName(policy), l2_entries,
                     walkerName(num_walkers).c_str(),
                     tlbpf ? "-tlbpf" : "");
}

std::string
hierLabel(TlbPrefetchPolicy policy, unsigned l2_entries,
          unsigned num_walkers, bool tlbpf)
{
    return strprintf(
        "%s policy, %u-entry L2 TLB, %s walker(s)%s",
        tlbPolicyName(policy), l2_entries,
        num_walkers == 0 ? "unlimited"
                         : strprintf("%u", num_walkers).c_str(),
        tlbpf ? ", FTQ TLB prefetcher" : "");
}

/**
 * The curated variant list: every point appears in at least one
 * rendered table.
 *  - per policy: the single-level/unlimited reference (PR 1 model)
 *    and the 64-entry-L2 / 2-walker hierarchy point,
 *  - the L2-size ladder at 1 walker and the walker ladder at 64
 *    entries (fill policy),
 *  - the TLB prefetcher on the hierarchy point, per policy.
 */
std::vector<TweakVariant>
hierVariants()
{
    std::vector<TweakVariant> out;
    out.push_back({"", "VM off (reference)", nullptr});
    auto add = [&out](TlbPrefetchPolicy p, unsigned l2, unsigned w,
                      bool tlbpf) {
        std::string key = hierKey(p, l2, w, tlbpf);
        for (const auto &v : out) {
            if (v.key == key)
                return;
        }
        out.push_back({key, hierLabel(p, l2, w, tlbpf),
                       hierTweak(p, l2, w, tlbpf)});
    };
    for (TlbPrefetchPolicy p : policies()) {
        add(p, 0, 0, false);  // single-level, unlimited: PR 1 model
        add(p, 64, 2, false); // the hierarchy point
        add(p, 64, 2, true);  // ... with translation lookahead
    }
    for (unsigned l2 : kL2Sizes)
        add(TlbPrefetchPolicy::Fill, l2, 1, false);
    for (unsigned w : kWalkerCounts)
        add(TlbPrefetchPolicy::Fill, 64, w, false);
    return out;
}

double
statPerKilo(const SimResults &r, const char *stat)
{
    double kinsts = static_cast<double>(r.instructions) / 1000.0;
    return kinsts > 0.0 ? r.stats.value(stat) / kinsts : 0.0;
}

void
render(const Sweep &sweep)
{
    auto gmean_vs_off = [&sweep](TlbPrefetchPolicy p, unsigned l2,
                                 unsigned w, bool tlbpf) {
        std::vector<double> rel;
        for (const auto &name : largeFootprintNames()) {
            const SimResults &off =
                sweep.run(name, PrefetchScheme::FdpRemove);
            const SimResults &on = sweep.run(
                name, PrefetchScheme::FdpRemove, hierKey(p, l2, w, tlbpf));
            rel.push_back(on.ipc / off.ipc - 1.0);
        }
        return gmeanSpeedup(rel);
    };
    auto mean_stat = [&sweep](TlbPrefetchPolicy p, unsigned l2,
                              unsigned w, bool tlbpf, const char *stat) {
        std::vector<double> v;
        for (const auto &name : largeFootprintNames()) {
            v.push_back(statPerKilo(
                sweep.run(name, PrefetchScheme::FdpRemove,
                          hierKey(p, l2, w, tlbpf)),
                stat));
        }
        return mean(v);
    };

    AsciiTable l2t({"l2 tlb entries", "gmean ipc vs vm-off",
                    "l2 hits/kinst", "walks/kinst"});
    for (unsigned l2 : kL2Sizes) {
        l2t.addRow({AsciiTable::integer(l2),
                    AsciiTable::pct(gmean_vs_off(
                        TlbPrefetchPolicy::Fill, l2, 1, false)),
                    AsciiTable::num(mean_stat(TlbPrefetchPolicy::Fill,
                                              l2, 1, false,
                                              "l2tlb.hits"),
                                    2),
                    AsciiTable::num(mean_stat(TlbPrefetchPolicy::Fill,
                                              l2, 1, false, "mmu.walks"),
                                    2)});
    }
    print("L2-TLB size (fill policy, 1 walker):\n");
    print(l2t.render());

    AsciiTable wt({"walkers", "gmean ipc vs vm-off",
                   "queue cycles/kinst", "walks queued/kinst"});
    for (unsigned w : kWalkerCounts) {
        wt.addRow({w == 0 ? "unlimited" : AsciiTable::integer(w),
                   AsciiTable::pct(gmean_vs_off(TlbPrefetchPolicy::Fill,
                                                64, w, false)),
                   AsciiTable::num(mean_stat(TlbPrefetchPolicy::Fill,
                                             64, w, false,
                                             "mmu.walk_queue_cycles"),
                                   2),
                   AsciiTable::num(mean_stat(TlbPrefetchPolicy::Fill,
                                             64, w, false,
                                             "mmu.walks_queued"),
                                   2)});
    }
    print("\nwalker bandwidth (fill policy, 64-entry L2 TLB):\n");
    print(wt.render());

    AsciiTable pt({"policy", "single-level w-inf", "l2-64 w2",
                   "l2-64 w2 + tlb-pf", "tlbpf walks/kinst"});
    for (TlbPrefetchPolicy p : policies()) {
        pt.addRow({tlbPolicyName(p),
                   AsciiTable::pct(gmean_vs_off(p, 0, 0, false)),
                   AsciiTable::pct(gmean_vs_off(p, 64, 2, false)),
                   AsciiTable::pct(gmean_vs_off(p, 64, 2, true)),
                   AsciiTable::num(mean_stat(p, 64, 2, true,
                                             "mmu.tlbpf_walks"),
                                   2)});
    }
    print("\npolicy x hierarchy x decoupled TLB prefetching "
          "(gmean ipc vs vm-off):\n");
    print(pt.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-X16";
    s.title = "TLB-hierarchy sweep (L2 TLB x walkers x policy, FDP "
              "remove-CPF)";
    s.shape =
        "a bigger L2 TLB or more walkers never hurts; the decoupled "
        "TLB prefetcher recovers most of what the drop policy loses; "
        "the l2-0/unlimited points match the single-level model";
    s.paperRef = "VM/TLB extension (beyond the paper; Jamet et al. "
                 "2021 methodology)";
    s.question = "Does FDIP's deep FTQ lookahead leave enough time "
                 "to hide two-level TLB misses and bounded page-walk "
                 "bandwidth, and does decoupled TLB prefetching beat "
                 "the fill policy?";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{largeFootprintNames(), {PrefetchScheme::FdpRemove},
                hierVariants(), /*withBaseline=*/false}};
    s.render = render;
    s.notes = "16-entry ITLB, scrambled pages, 60-cycle walks, "
              "8-cycle L2-TLB refills; demand walks always queue "
              "ahead of prefetch walks.";
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
