/**
 * X-T3 — Trace-workload sweep: replayed traces through the
 * warmup/ROI-phased frontend (docs/TRACES.md).
 *
 * Workloads come from FDIP_TRACE_PATHS (colon-separated trace paths —
 * native v2 or ChampSim format, dispatched on extension). Without it,
 * the spec self-captures small native traces of two synthetic
 * workloads into the temp directory on first use, so the sweep always
 * has something real to replay.
 *
 * The variant axis exercises the ROI controls: the full-warmup
 * baseline vs. skip-N fast-forward with a short warmup — the same
 * region of interest entered two ways.
 */

#include <cstdlib>
#include <mutex>
#include <set>
#include <sys/stat.h>
#include <sys/types.h>

#include "bench_util.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"
#include "trace/trace_file.hh"

using namespace fdip;
using namespace fdip::bench;

namespace
{

/** Self-captured default traces: long enough that a 500k-inst
 *  measurement loops the file a couple of times (streaming + loop
 *  coverage), short enough to capture in well under a second. */
constexpr std::uint64_t kDefaultCaptureInsts = 200 * 1000;

std::string
defaultTraceDir()
{
    const char *tmp = std::getenv("TMPDIR");
    std::string base = (tmp != nullptr && tmp[0] != '\0') ? tmp : "/tmp";
    return base + "/fdip-bench-traces";
}

struct TraceWorkload
{
    std::string label;   ///< "trace:<path>" grid workload
    std::string path;
    std::string profile; ///< synthetic profile to capture ("" = user's)
};

std::vector<TraceWorkload>
traceWorkloads()
{
    std::vector<TraceWorkload> out;
    const char *env = std::getenv("FDIP_TRACE_PATHS");
    if (env != nullptr && env[0] != '\0') {
        std::string spec = env;
        std::size_t pos = 0;
        while (pos <= spec.size()) {
            std::size_t colon = spec.find(':', pos);
            if (colon == std::string::npos)
                colon = spec.size();
            std::string path = spec.substr(pos, colon - pos);
            if (!path.empty())
                out.push_back({"trace:" + path, path, ""});
            pos = colon + 1;
        }
        fatal_if(out.empty(), "FDIP_TRACE_PATHS is set but empty");
        return out;
    }
    std::string dir = defaultTraceDir();
    for (const char *name : {"gcc", "go"}) {
        std::string path = dir + "/" + name + ".fdip.trace";
        out.push_back({"trace:" + path, path, name});
    }
    return out;
}

/**
 * Capture the default trace for @p w if this process has not yet done
 * so. Always re-captures on first use (never trusts a file left by an
 * older build). It runs wherever a grid point's config is built
 * (gridConfig: the Sweep, the point count of --list/--describe); the
 * mutex keeps it safe should that ever happen on several threads.
 */
void
ensureDefaultTrace(const TraceWorkload &w)
{
    if (w.profile.empty())
        return;
    static std::mutex m;
    static std::set<std::string> captured;
    std::lock_guard<std::mutex> lock(m);
    if (!captured.insert(w.path).second)
        return;
    ::mkdir(defaultTraceDir().c_str(), 0777);
    WorkloadProfile profile = findProfile(w.profile);
    auto prog = buildProgram(profile);
    SyntheticExecutor exec(*prog, profile);
    writeTraceFile(w.path, exec, kDefaultCaptureInsts, prog->base,
                   prog->codeEnd());
}

ExperimentSpec
makeSpec()
{
    auto workloads = traceWorkloads();

    std::vector<std::string> labels;
    for (const auto &w : workloads)
        labels.push_back(w.label);

    // Every variant's tweak materializes the default traces first: the
    // Sweep builds every point's config, baselines included, before
    // any Simulator opens the file.
    auto ensure_all = [workloads](SimConfig &) {
        for (const auto &w : workloads)
            ensureDefaultTrace(w);
    };
    std::vector<TweakVariant> variants = {
        {"", "full warmup from record 0", ensure_all},
        {"roi-skip", "skip 200k insts, then 50k warmup",
         [workloads](SimConfig &cfg) {
             for (const auto &w : workloads)
                 ensureDefaultTrace(w);
             cfg.skipInsts = 200 * 1000;
             cfg.warmupInsts = 50 * 1000;
         }},
    };

    ExperimentSpec s;
    s.id = "X-T3";
    s.title = "trace-file workloads with warmup/ROI phases";
    s.shape =
        "FDP speedups on replayed traces mirror the synthetic suite; "
        "the skip-N ROI entry lands near the full-warmup numbers";
    s.question =
        "does the trace frontend (ChampSim/native replay + skip-N ROI "
        "control) reproduce the prefetch-scheme ordering?";
    s.paperRef = "MICRO-32 methodology (trace-driven simulation)";
    s.warmup = kSweepWarmup;
    s.measure = kSweepMeasure;
    s.grids = {{labels,
                {PrefetchScheme::Nlp, PrefetchScheme::FdpEnqueue,
                 PrefetchScheme::FdpIdeal},
                variants,
                /*withBaseline=*/true}};
    s.notes =
        "set FDIP_TRACE_PATHS=<path>[:<path>...] to sweep your own "
        "traces (docs/TRACES.md)";

    s.render = [workloads, variants](const Sweep &sweep) {
        AsciiTable t({"workload", "variant", "scheme", "IPC",
                      "L1-I MPKI", "speedup"});
        for (const auto &w : workloads) {
            for (const auto &v : variants) {
                for (PrefetchScheme scheme :
                     {PrefetchScheme::Nlp, PrefetchScheme::FdpEnqueue,
                      PrefetchScheme::FdpIdeal}) {
                    const SimResults &r = sweep.run(w.label, scheme, v.key);
                    t.addRow({w.label,
                              v.key.empty() ? "full-warmup" : v.key,
                              r.scheme,
                              AsciiTable::num(r.ipc, 3),
                              AsciiTable::num(r.mpki, 2),
                              AsciiTable::pct(
                                  sweep.speedup(w.label, scheme, v.key),
                                  1)});
                }
            }
        }
        print(t.render());
    };
    return s;
}

FDIP_REGISTER_EXPERIMENT(makeSpec);

} // namespace
