/**
 * R-X18 — competitor prefetcher zoo: the paper's fetch-directed
 * prefetcher head-to-head against metadata-driven record/replay (MANA)
 * and shadow-branch BTB prefill, next to the classic NLP/stream-buffer
 * baselines (docs/PREFETCHERS.md).
 *
 * Axes:
 *  - scheme (nlp / stream / fdp-enqueue / fdp-remove / mana /
 *    shadow-btb),
 *  - FTQ depth for FDP remove-CPF (4..64 entries), reproducing the
 *    FDIP-revisited coverage-vs-pollution trade: deeper FTQs see
 *    further ahead (coverage up) but run further down wrong paths
 *    (pollution up),
 *  - shadow-branch decode noise (bogusNoiseDenom), pricing bogus
 *    branch-looking prefills on a variable-length code space.
 *
 * The summary table prices each scheme on the four axes the related
 * work argues about: accuracy, coverage, timeliness, and dedicated
 * metadata storage.
 */

#include <string>

#include "bench_util.hh"
#include "sim/experiment.hh"
#include "sim/presets.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

constexpr std::size_t kFtqDepths[] = {4, 8, 16, 32, 64};
constexpr unsigned kNoiseDenoms[] = {0, 64, 32};

const std::vector<PrefetchScheme> &
zooSchemes()
{
    static const std::vector<PrefetchScheme> schemes = {
        PrefetchScheme::Nlp,       PrefetchScheme::StreamBuffer,
        PrefetchScheme::FdpEnqueue, PrefetchScheme::FdpRemove,
        PrefetchScheme::Mana,      PrefetchScheme::ShadowBtb};
    return schemes;
}

/** Scheme-private metadata storage (address-tracking state only; data
 *  arrays like the prefetch/stream buffers are shared machinery and
 *  priced separately by the hierarchy config). 6 bytes per tracked
 *  48-bit address. */
std::uint64_t
metadataBytes(PrefetchScheme s, const SimConfig &cfg)
{
    switch (s) {
      case PrefetchScheme::Nlp:
        return NlpPrefetcher::kQueueEntries * 6;
      case PrefetchScheme::StreamBuffer:
        return std::uint64_t(cfg.sb.numBuffers) *
            (StreamBufferPrefetcher::kDepth + 1) * 6;
      case PrefetchScheme::FdpNone:
      case PrefetchScheme::FdpEnqueue:
      case PrefetchScheme::FdpEnqueueAggressive:
      case PrefetchScheme::FdpRemove:
      case PrefetchScheme::FdpIdeal:
        // The FTQ itself is the front-end's own structure — FDP's
        // selling point is that its lookahead metadata is free.
        return (cfg.fdp.piqEntries + cfg.fdp.recentFilterEntries) * 6;
      case PrefetchScheme::Mana:
        return ManaPrefetcher::tableCapacityBytes(cfg.mana) +
            cfg.mana.queueEntries * 6;
      case PrefetchScheme::ShadowBtb:
        return ShadowBtbPrefetcher::metadataBytes(cfg.shadow);
      default:
        return 0;
    }
}

Runner::Tweak
ftqTweak(std::size_t entries)
{
    return [entries](SimConfig &cfg) { cfg.ftqEntries = entries; };
}

std::string
ftqKey(std::size_t entries)
{
    return strprintf("ftq%zu", entries);
}

std::vector<TweakVariant>
ftqVariants()
{
    std::vector<TweakVariant> out;
    for (std::size_t n : kFtqDepths) {
        out.push_back({ftqKey(n), strprintf("%zu-entry FTQ", n),
                       ftqTweak(n)});
    }
    return out;
}

Runner::Tweak
noiseTweak(unsigned denom)
{
    return [denom](SimConfig &cfg) {
        cfg.shadow.bogusNoiseDenom = denom;
    };
}

std::string
noiseKey(unsigned denom)
{
    return strprintf("noise%u", denom);
}

std::vector<TweakVariant>
noiseVariants()
{
    std::vector<TweakVariant> out;
    for (unsigned d : kNoiseDenoms) {
        out.push_back(
            {noiseKey(d),
             d == 0 ? std::string("exact decode (no bogus branches)")
                    : strprintf("1-in-%u non-CF slots branch-looking", d),
             noiseTweak(d)});
    }
    return out;
}

const std::vector<std::string> &
axisWorkloads()
{
    static const std::vector<std::string> w = {"gcc", "go", "groff"};
    return w;
}

void
render(const Sweep &sweep)
{
    // Table 1: the zoo summary, mean over the full workload suite.
    AsciiTable t({"scheme", "speedup", "accuracy", "coverage",
                  "timely", "late", "pollution", "metadata"});
    for (PrefetchScheme s : zooSchemes()) {
        std::vector<double> sp, acc, cov, timely, late, poll;
        for (const auto &wl : allWorkloadNames()) {
            const SimResults &r = sweep.run(wl, s);
            sp.push_back(sweep.speedup(wl, s));
            acc.push_back(r.prefetchAccuracy);
            cov.push_back(r.prefetchCoverage);
            timely.push_back(r.prefetchTimely);
            late.push_back(r.prefetchLate);
            poll.push_back(r.prefetchPollution);
        }
        SimConfig defaults = makeBaselineConfig("gcc", s);
        std::uint64_t meta = metadataBytes(s, defaults);
        t.addRow({schemeName(s), AsciiTable::pct(gmeanSpeedup(sp)),
                  AsciiTable::pct(mean(acc)), AsciiTable::pct(mean(cov)),
                  AsciiTable::pct(mean(timely)),
                  AsciiTable::pct(mean(late)),
                  AsciiTable::pct(mean(poll)),
                  meta >= 1024
                      ? strprintf("%.1fKB", double(meta) / 1024.0)
                      : strprintf("%uB", unsigned(meta))});
    }
    print(strprintf("prefetcher zoo (mean over %zu workloads; "
                    "speedup is gmean vs no-prefetch):\n",
                    allWorkloadNames().size()));
    print(t.render());
    print("\n");

    // Table 2: per-workload speedups, one column per scheme.
    std::vector<std::string> head = {"workload"};
    for (PrefetchScheme s : zooSchemes())
        head.push_back(schemeName(s));
    AsciiTable pw(head);
    for (const auto &wl : allWorkloadNames()) {
        std::vector<std::string> row = {wl};
        for (PrefetchScheme s : zooSchemes())
            row.push_back(AsciiTable::pct(sweep.speedup(wl, s)));
        pw.addRow(row);
    }
    print("per-workload speedup vs no-prefetch:\n");
    print(pw.render());
    print("\n");

    // Table 3: the FDIP-revisited coverage-vs-pollution trade on the
    // FTQ-depth axis (deeper FTQ = more lookahead AND more wrong-path
    // exposure).
    AsciiTable ft({"ftq entries", "speedup", "coverage", "timely",
                   "late", "pollution"});
    for (std::size_t n : kFtqDepths) {
        std::vector<double> sp, cov, timely, late, poll;
        for (const auto &wl : axisWorkloads()) {
            const SimResults &r =
                sweep.run(wl, PrefetchScheme::FdpRemove, ftqKey(n));
            sp.push_back(
                sweep.speedup(wl, PrefetchScheme::FdpRemove, ftqKey(n)));
            cov.push_back(r.prefetchCoverage);
            timely.push_back(r.prefetchTimely);
            late.push_back(r.prefetchLate);
            poll.push_back(r.prefetchPollution);
        }
        ft.addRow({AsciiTable::integer(n),
                   AsciiTable::pct(gmeanSpeedup(sp)),
                   AsciiTable::pct(mean(cov)),
                   AsciiTable::pct(mean(timely)),
                   AsciiTable::pct(mean(late)),
                   AsciiTable::pct(mean(poll))});
    }
    print(strprintf("fdp-remove vs FTQ depth (mean over %zu "
                    "workloads):\n", axisWorkloads().size()));
    print(ft.render());
    print("\n");

    // Table 4: shadow-branch decode noise — correct prefills help,
    // bogus branch-looking prefills send fetch down wrong paths.
    AsciiTable st({"bogus noise", "speedup", "mpki",
                   "correct/KI", "bogus/KI"});
    for (unsigned d : kNoiseDenoms) {
        std::vector<double> sp, mpki, correct, bogus;
        for (const auto &wl : axisWorkloads()) {
            const SimResults &r =
                sweep.run(wl, PrefetchScheme::ShadowBtb, noiseKey(d));
            sp.push_back(sweep.speedup(wl, PrefetchScheme::ShadowBtb,
                                       noiseKey(d)));
            double ki =
                static_cast<double>(r.instructions) / 1000.0;
            mpki.push_back(r.mpki);
            correct.push_back(
                r.stats.value("shadow.prefill_correct") / ki);
            bogus.push_back(
                r.stats.value("shadow.prefill_bogus") / ki);
        }
        st.addRow({d == 0 ? std::string("none")
                          : strprintf("1/%u", d),
                   AsciiTable::pct(gmeanSpeedup(sp)),
                   AsciiTable::num(mean(mpki), 2),
                   AsciiTable::num(mean(correct), 2),
                   AsciiTable::num(mean(bogus), 2)});
    }
    print(strprintf("shadow-btb vs decode noise (mean over %zu "
                    "workloads):\n", axisWorkloads().size()));
    print(st.render());
}

ExperimentSpec
makeSpec()
{
    ExperimentSpec s;
    s.id = "R-X18";
    s.title = "Competitor prefetcher zoo (FDP vs MANA vs shadow-branch "
              "BTB prefill vs NLP/stream)";
    s.shape =
        "FDP remove-CPF leads on coverage at zero dedicated metadata; "
        "MANA buys competitive coverage with kilobytes of table; "
        "shadow-btb moves no cache lines (accuracy/coverage n/a) and "
        "helps only via cold BTB misses; deeper FTQs raise coverage "
        "and pollution together; bogus shadow prefills hurt "
        "monotonically";
    s.paperRef = "competitor zoo (beyond the paper): MANA-style "
                 "record/replay and shadow-branch BTB prefill vs "
                 "MICRO-32 FDP";
    s.question = "Does fetch-directed prefetching still win against "
                 "schemes that buy their lookahead with dedicated "
                 "metadata (MANA) or decode-time BTB prefill (shadow "
                 "branches), once metadata cost and pollution are on "
                 "the table?";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{allWorkloadNames(), zooSchemes(), {},
                /*withBaseline=*/true},
               {axisWorkloads(), {PrefetchScheme::FdpRemove},
                ftqVariants(), /*withBaseline=*/true},
               {axisWorkloads(), {PrefetchScheme::ShadowBtb},
                noiseVariants(), /*withBaseline=*/true}};
    s.render = render;
    s.notes = "shadow-btb issues no memory requests, so its "
              "accuracy/coverage/timeliness read 0%: its entire effect "
              "is pre-filling cold BTB/FTB entries from newly arrived "
              "cache lines. Metadata prices address-tracking state "
              "only (6B per 48-bit address; MANA: its region table).";
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
