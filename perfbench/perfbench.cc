/**
 * @file perfbench.cc
 * The simulator benchmark program. Runs one workload for a host-time
 * budget, checks the simulated outputs, and prints one metric per line
 * followed by a single JSON result line (the last line of stdout):
 *
 *   fdip_perfbench --workload fdp_gcc --seed 1 --seconds 10 --trace 0 \
 *       --work-dir DIR
 *
 * --trace 0 reports the end-to-end metrics (host time of untraced
 * runs); --trace 1 reports the per-layer metrics from the traced step
 * loop (traced_loop.hh) after verifying it against a plain Simulator.
 * Workloads, metrics and checks are documented in README.md.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/fnv.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"
#include "trace/trace_file.hh"
#include "traced_loop.hh"

namespace fdip
{
namespace
{

using Clock = std::chrono::steady_clock;

// Instruction budgets per core (warmup + measured).
// Each repetition is kept short (0.2-0.4 s on a 2 GHz Xeon vCPU) so a
// run holds many of them.
constexpr std::uint64_t kWarmupInsts = 50 * 1000;
constexpr std::uint64_t kMeasureInsts = 500 * 1000;
constexpr std::uint64_t kMc4WarmupInsts = 20 * 1000;
constexpr std::uint64_t kMc4MeasureInsts = 80 * 1000;
constexpr std::uint64_t kZooWarmupInsts = 10 * 1000;
constexpr std::uint64_t kZooMeasureInsts = 50 * 1000;
constexpr unsigned kZooJobs = 2;
const std::vector<std::string> kZooProfiles = {"gcc", "li"};

/**
 * The seed picks the region of interest: every core fast-forwards
 * (seed mod 64) x 2048 instructions of its canonical suite program
 * before warmup. Programs generated from other profile seeds differ in
 * host cost per instruction by up to 1.7x, which would swamp the
 * signal, so the programs stay the suite's own.
 */
std::uint64_t
roiOffset(std::uint64_t seed)
{
    return (seed % 64) * 2048;
}

/** Repetitions per run, at least. */
constexpr std::size_t kMinReps = 3;
/** Records timed per trace source in the trace.next_ns measurement. */
constexpr std::uint64_t kNextCalls = 500 * 1000;

/** Environment knobs that change what is measured; refused when set. */
constexpr const char *kMeasuredEnv[] = {
    "FDIP_NO_SKIP",   "FDIP_TRACE",        "FDIP_TRACE_CAP",
    "FDIP_SAMPLES",   "FDIP_SAMPLE_INTERVAL", "FDIP_FAULT",
    "FDIP_CACHE_DIR", "FDIP_NO_CACHE",     "FDIP_CACHE_BUDGET_MB",
    "FDIP_JOBS",      "FDIP_RETRIES",      "FDIP_RETRY_BASE_MS",
    "FDIP_SIM_TIMEOUT_S",
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/**
 * The fastest repetition: host interference only ever adds time, and
 * on a shared host it comes in multi-second episodes that move a
 * run's median by 20-30%, so host-time metrics report the minimum.
 */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double
meanOf(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/**
 * This process image's resident high-water mark (VmHWM). getrusage's
 * ru_maxrss is not used: it keeps the forking parent's peak across
 * exec, so under a launcher it reports the launcher's size.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    fatal("no VmHWM line in /proc/self/status");
}

std::uint64_t
digestOf(const SimResults &r)
{
    return fnv1aHash(serializeResults(r));
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workDir;
};

/** Metrics, failure accounting, and the final output lines. */
class Report
{
  public:
    /** A metric for the JSON line (and the table). */
    void
    add(const std::string &name, double value, const char *unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** A table-only line: shown by name, not part of the JSON. */
    void
    note(const std::string &name, double value, const char *unit)
    {
        notes.push_back({name, value, unit});
    }

    /**
     * Run @p fn as one attempted simulation. A SimError (SimTimeout
     * included) counts it as failed.
     */
    bool
    attempt(const std::string &what, const std::function<void()> &fn)
    {
        ++attempted;
        try {
            fn();
            return true;
        } catch (const SimError &e) {
            fail(what + ": " + e.what());
            return false;
        }
    }

    /** Simulations attempted elsewhere (a Runner sweep's points). */
    void countAttempts(std::uint64_t n) { attempted += n; }

    /** A failed output check counts against the simulation it checks. */
    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            fail(what);
    }

    /** Print the table and the JSON line; @p with_metrics false
     *  withholds the metrics (unverified per-layer numbers). */
    void
    print(const Options &o, bool with_metrics) const
    {
        std::printf("perfbench: workload %s, seed %llu, %s run, "
                    "build %s, compiler %s\n",
                    o.workload.c_str(),
                    static_cast<unsigned long long>(o.seed),
                    o.trace ? "traced" : "untraced", PERFBENCH_BUILD_TYPE,
                    PERFBENCH_COMPILER);
        double failed_frac = attempted == 0 ? 1.0
            : static_cast<double>(failed) / static_cast<double>(attempted);
        std::printf("  %-40s %.6g (%llu of %llu)\n", "failed_frac",
                    failed_frac, static_cast<unsigned long long>(failed),
                    static_cast<unsigned long long>(attempted));
        for (const auto *list : {&metrics, &notes}) {
            for (const Metric &m : *list)
                std::printf("  %-40s %.6g %s\n", m.name.c_str(), m.value,
                            m.unit);
        }

        bool finite = true;
        for (const Metric &m : metrics)
            finite = finite && std::isfinite(m.value);
        bool correct = attempted > 0 && failed == 0 && finite;
        std::string json = strprintf(
            "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
            "\"metrics\": {",
            correct ? "true" : "false",
            static_cast<unsigned long long>(std::max<std::uint64_t>(
                attempted, 1)),
            static_cast<unsigned long long>(failed));
        if (with_metrics && finite) {
            const char *sep = "";
            for (const Metric &m : metrics) {
                json += strprintf("%s\"%s\": {\"value\": %.17g, "
                                  "\"unit\": \"%s\"}",
                                  sep, m.name.c_str(), m.value, m.unit);
                sep = ", ";
            }
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
    }

  private:
    struct Metric
    {
        std::string name;
        double value;
        const char *unit;
    };

    void
    fail(const std::string &what)
    {
        ++failed;
        std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
    }

    std::vector<Metric> metrics;
    std::vector<Metric> notes;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

// ---------------------------------------------------------------------
// Workload machines
// ---------------------------------------------------------------------

SimConfig
withBudget(SimConfig cfg, std::uint64_t seed, std::uint64_t warmup,
           std::uint64_t measure)
{
    cfg.skipInsts = roiOffset(seed);
    cfg.warmupInsts = warmup;
    cfg.measureInsts = measure;
    return cfg;
}

/** The machine of a single-simulation workload. */
SimConfig
singleConfig(const std::string &workload, std::uint64_t seed)
{
    if (workload == "fdp_gcc") {
        return withBudget(
            makeBaselineConfig("gcc", PrefetchScheme::FdpRemove), seed,
            kWarmupInsts, kMeasureInsts);
    }
    if (workload == "walk_replay") {
        SimConfig cfg = makeBaselineConfig("vortex", PrefetchScheme::None);
        applyVmConfig(cfg, TlbPrefetchPolicy::Wait, PageMapKind::Scrambled,
                      /*itlb_entries=*/16);
        cfg.vm.walkLatency = 200;
        applyTlbHierarchy(cfg, /*l2_entries=*/0, /*num_walkers=*/0,
                          /*tlb_prefetch=*/true);
        return withBudget(cfg, seed, kWarmupInsts, kMeasureInsts);
    }
    // mc4_mix
    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::FdpRemove);
    applyMultiCore(cfg, 4, {"gcc", "vortex", "go", "perl"});
    cfg.mem.l2.sizeBytes = 256 * 1024;
    return withBudget(cfg, seed, kMc4WarmupInsts, kMc4MeasureInsts);
}

SimConfig
zooConfig(const std::string &profile, PrefetchScheme scheme,
          std::uint64_t seed)
{
    return withBudget(makeBaselineConfig(profile, scheme), seed,
                      kZooWarmupInsts, kZooMeasureInsts);
}

/** The profile core @p core of @p cfg simulates, seeded as
 *  Simulator::buildCore seeds it. */
WorkloadProfile
coreProfile(const SimConfig &cfg, unsigned core)
{
    WorkloadProfile p = findProfile(
        cfg.coreWorkloads.empty() ? cfg.workload : cfg.coreWorkloads[core]);
    p.seed += cfg.seedOffset + core;
    return p;
}

/** Record @p insts of core 0's stream into a v2 trace file. */
void
captureTrace(const SimConfig &cfg, const std::string &path,
             std::uint64_t insts)
{
    WorkloadProfile p = coreProfile(cfg, 0);
    auto prog = buildProgram(p);
    SyntheticExecutor exec(*prog, p);
    writeTraceFile(path, exec, insts, prog->base, prog->codeEnd());
}

Cycle
cycleCap(const SimConfig &cfg)
{
    return static_cast<Cycle>(
               cfg.cycleLimitPerInst *
               static_cast<double>(cfg.warmupInsts + cfg.measureInsts)) +
        10000;
}

// ---------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------

/**
 * Every core must cross its warmup and total budgets in the cycle it
 * reaches them: the committed count at each crossing lies within one
 * retire group of the configured budget.
 */
void
checkBudget(Report &rep, Simulator &sim, const SimConfig &cfg,
            const SimResults &r)
{
    std::uint64_t total = cfg.warmupInsts + cfg.measureInsts;
    std::uint64_t width = cfg.backend.retireWidth;
    rep.check(r.status == RunStatus::Ok && std::isfinite(r.ipc),
              "result status not Ok");
    for (std::size_t i = 0; i < sim.numCores(); ++i) {
        const Simulator::Core &c = sim.core(i);
        bool ok = c.finished && c.endInsts >= total &&
            c.endInsts < total + width && c.warmupInsts >= cfg.warmupInsts &&
            c.warmupInsts < cfg.warmupInsts + width;
        rep.check(ok, strprintf("core %zu committed %llu/%llu (warmup "
                                "%llu/%llu), budget missed",
                                i,
                                static_cast<unsigned long long>(c.endInsts),
                                static_cast<unsigned long long>(total),
                                static_cast<unsigned long long>(
                                    c.warmupInsts),
                                static_cast<unsigned long long>(
                                    cfg.warmupInsts)));
    }
}

/** The same check for a Runner result, which exposes no cores. */
void
checkPointBudget(Report &rep, const SimResults &r, const SimConfig &cfg)
{
    std::uint64_t width = cfg.backend.retireWidth;
    bool ok = r.status == RunStatus::Ok &&
        r.instructions + width > cfg.measureInsts &&
        r.instructions < cfg.measureInsts + width;
    rep.check(ok, strprintf("%s/%s measured %llu of %llu insts",
                            r.workload.c_str(), r.scheme.c_str(),
                            static_cast<unsigned long long>(r.instructions),
                            static_cast<unsigned long long>(
                                cfg.measureInsts)));
}

bool
sameHistogram(const Histogram &a, const Histogram &b)
{
    if (a.count() != b.count() || a.weightedTotal() != b.weightedTotal() ||
        a.numBuckets() != b.numBuckets())
        return false;
    for (std::size_t v = 0; v < a.numBuckets(); ++v) {
        if (a.bucket(v) != b.bucket(v))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// Traced runs
// ---------------------------------------------------------------------

/** Span totals summed over every traced simulation of a run. */
struct LayerTotals
{
    std::array<double, kNumSpans> ns{};
    std::array<std::uint64_t, kNumSpans> calls{};
    double loopSeconds = 0.0;
    Cycle cycles = 0;
    Cycle skipped = 0;

    void
    add(const TracedLoop &loop)
    {
        for (unsigned s = 0; s < kNumSpans; ++s) {
            ns[s] += loop.spanNs(static_cast<Span>(s));
            calls[s] += loop.spanCalls(static_cast<Span>(s));
        }
        loopSeconds += loop.loopSeconds();
        cycles += loop.now();
        skipped += loop.skippedCycles();
    }
};

/**
 * Run @p cfg through the traced loop to its full budget, then advance
 * a plain Simulator with step() to the same cycle and require every
 * component's stats, every FTQ occupancy histogram and every commit
 * count to match. Only a verified loop is added to @p totals.
 */
bool
traceAndVerify(Report &rep, const SimConfig &cfg, LayerTotals &totals)
{
    bool ok = false;
    rep.attempt("traced " + cfg.workload, [&] {
        Simulator traced(cfg);
        TracedLoop loop(traced);
        loop.runUntilCommitted(cfg.warmupInsts + cfg.measureInsts,
                               cycleCap(cfg));

        Simulator plain(cfg);
        while (plain.now() < loop.now())
            plain.step();
        bool same = plain.now() == loop.now() &&
            collectMachineStats(plain).entries() ==
                collectMachineStats(traced).entries();
        for (std::size_t i = 0; same && i < plain.numCores(); ++i) {
            same = plain.core(i).backend->committed() ==
                    traced.core(i).backend->committed() &&
                sameHistogram(plain.core(i).ftq->occupancyHist(),
                              traced.core(i).ftq->occupancyHist());
        }
        rep.check(same, strprintf("traced loop of %s diverged from "
                                  "Simulator::step() by cycle %llu",
                                  cfg.workload.c_str(),
                                  static_cast<unsigned long long>(
                                      loop.now())));
        if (same) {
            totals.add(loop);
            ok = true;
        }
    });
    return ok;
}

/** Per-span metrics: ns per call, share of loop time, calls/kcycle. */
void
addSpanMetrics(Report &rep, const LayerTotals &t)
{
    double loop_ns = t.loopSeconds * 1e9;
    double kcycles = static_cast<double>(t.cycles) / 1000.0;
    for (unsigned s = 0; s < kNumSpans; ++s) {
        std::string name = kSpanNames[s];
        double calls = static_cast<double>(t.calls[s]);
        rep.add(name, calls > 0 ? t.ns[s] / calls : 0.0, "ns");
        rep.add(name + ".share", loop_ns > 0 ? t.ns[s] / loop_ns : 0.0,
                "frac");
        rep.add(name + ".calls_per_kcyc", kcycles > 0 ? calls / kcycles
                                                      : 0.0,
                "1/kcyc");
    }
    double attempts = static_cast<double>(t.calls[SpanSkipCheck]);
    rep.add("sim.skip_frac", t.cycles > 0
                ? static_cast<double>(t.skipped) /
                      static_cast<double>(t.cycles)
                : 0.0,
            "frac");
    rep.add("sim.skip_yield", attempts > 0
                ? static_cast<double>(t.calls[SpanSkipCharge]) / attempts
                : 0.0,
            "frac");
}

/** Simulated model counters (deterministic; explanations, not gates). */
void
addModelMetrics(Report &rep, const std::vector<SimResults> &results)
{
    std::vector<double> ipc, mpki, bus, cov, acc, occ, walks;
    for (const SimResults &r : results) {
        double kinsts = static_cast<double>(r.instructions) / 1000.0;
        ipc.push_back(r.ipc);
        mpki.push_back(r.mpki);
        bus.push_back(r.l2BusUtil);
        cov.push_back(r.prefetchCoverage);
        acc.push_back(r.prefetchAccuracy);
        occ.push_back(r.ftqOccupancy.mean());
        walks.push_back(kinsts > 0 ? r.stats.value("mmu.walks") / kinsts
                                   : 0.0);
    }
    rep.add("core.ipc", meanOf(ipc), "inst/cyc");
    rep.add("mem.l1i_mpki", meanOf(mpki), "1/kinst");
    rep.add("mem.l2bus_util", meanOf(bus), "frac");
    rep.add("prefetch.coverage", meanOf(cov), "frac");
    rep.add("prefetch.accuracy", meanOf(acc), "frac");
    rep.add("frontend.ftq_occ_mean", meanOf(occ), "entries");
    rep.add("vm.walks_pki", meanOf(walks), "1/kinst");
}

/**
 * Host ns per next() of the synthetic executor and of the trace-file
 * reader over the same stream (core 0's profile), checking the
 * two streams agree. Returns {synthetic, file}.
 */
std::pair<double, double>
timeTraceSources(Report &rep, const SimConfig &cfg, const std::string &dir)
{
    std::pair<double, double> ns{0.0, 0.0};
    rep.attempt("trace source timing", [&] {
        WorkloadProfile p = coreProfile(cfg, 0);
        auto prog = buildProgram(p);
        std::string path = dir + "/next_timing.fdip.trace";
        {
            SyntheticExecutor writer_src(*prog, p);
            writeTraceFile(path, writer_src, kNextCalls, prog->base,
                           prog->codeEnd());
        }
        SyntheticExecutor exec(*prog, p);
        TraceFileReader reader(path);
        Fnv1a live, file;
        auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < kNextCalls; ++i)
            live.u64(exec.next().pc);
        double live_s = secondsSince(t0);
        t0 = Clock::now();
        for (std::uint64_t i = 0; i < kNextCalls; ++i)
            file.u64(reader.next().pc);
        double file_s = secondsSince(t0);
        rep.check(live.h == file.h,
                  "trace reader stream differs from the executor's");
        double n = static_cast<double>(kNextCalls);
        ns = {live_s * 1e9 / n, file_s * 1e9 / n};
    });
    return ns;
}

// ---------------------------------------------------------------------
// Single-simulation workloads: fdp_gcc, walk_replay, mc4_mix
// ---------------------------------------------------------------------

/** Untraced repetitions of construct + run() and their checks. */
struct Reps
{
    std::vector<double> setup;
    std::vector<double> run;
    /** Whole-machine simulated cycles of one run (every rep alike). */
    Cycle cycles = 0;
    SimResults first;
};

Reps
repeatRuns(Report &rep, const SimConfig &cfg, double seconds)
{
    Reps reps;
    std::uint64_t digest = 0;
    auto start = Clock::now();
    while (reps.run.size() < kMinReps || secondsSince(start) < seconds) {
        bool ok = rep.attempt("run " + cfg.workload, [&] {
            auto t0 = Clock::now();
            Simulator sim(cfg);
            double setup = secondsSince(t0);
            t0 = Clock::now();
            SimResults r = sim.run();
            double run = secondsSince(t0);

            checkBudget(rep, sim, cfg, r);
            std::uint64_t d = digestOf(r);
            if (reps.run.empty()) {
                digest = d;
                reps.first = r;
                reps.cycles = sim.now();
            }
            rep.check(d == digest && sim.now() == reps.cycles,
                      "results changed between repetitions");
            reps.setup.push_back(setup);
            reps.run.push_back(run);
        });
        if (!ok && reps.run.empty())
            break; // the first attempt failed: nothing to repeat
    }
    return reps;
}

bool
runSingle(Report &rep, const Options &o)
{
    SimConfig cfg = singleConfig(o.workload, o.seed);
    if (o.workload == "walk_replay") {
        // The replay fast-forwards like the live run, and must never
        // wrap: capture well past the budget plus the front end's
        // lookahead.
        std::uint64_t insts =
            cfg.skipInsts + cfg.warmupInsts + cfg.measureInsts;
        std::string path = o.workDir + "/walk_replay.fdip.trace";
        rep.attempt("trace capture", [&] {
            captureTrace(cfg, path, insts + insts / 10 + 64 * 1000);
        });
        cfg.tracePath = path;
    }

    double run_budget = o.trace ? o.seconds / 2.0 : o.seconds;
    Reps reps = repeatRuns(rep, cfg, run_budget);
    if (reps.run.empty())
        return false;

    if (o.workload == "walk_replay") {
        SimConfig live = cfg;
        live.tracePath.clear();
        rep.attempt("live reference run", [&] {
            SimResults r = simulate(live);
            rep.check(serializeResults(r) == serializeResults(reps.first),
                      "walk_replay replay differs from the live run");
        });
    }

    double run_s = fastest(reps.run);
    if (!o.trace) {
        rep.add("run_s", run_s, "s");
        rep.add("sim_kcyc_per_s",
                static_cast<double>(reps.cycles) / run_s / 1000.0,
                "kcyc/s");
        rep.add("setup_s", median(reps.setup), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.note("run_s.median", median(reps.run), "s");
        rep.note("repetitions", static_cast<double>(reps.run.size()), "");
        return true;
    }

    // A replayed trace builds no program.
    std::vector<double> build;
    for (std::size_t k = 0; k < kMinReps && cfg.tracePath.empty(); ++k) {
        auto t0 = Clock::now();
        for (unsigned c = 0; c < cfg.numCores; ++c)
            buildProgram(coreProfile(cfg, c));
        build.push_back(secondsSince(t0));
    }

    LayerTotals totals;
    bool verified = traceAndVerify(rep, cfg, totals);
    auto [synth_ns, file_ns] = timeTraceSources(rep, cfg, o.workDir);

    addSpanMetrics(rep, totals);
    rep.add("trace.next_ns", cfg.tracePath.empty() ? synth_ns : file_ns,
            "ns");
    rep.add("trace.synth_next_ns", synth_ns, "ns");
    rep.add("trace.file_next_ns", file_ns, "ns");
    // setup_s in two parts: the program build, and everything else the
    // constructor does.
    rep.add("trace.build_program_s", median(build), "s");
    rep.add("sim.construct_s", median(reps.setup) - median(build), "s");
    rep.add("sim.cache_load_ms", 0.0, "ms");
    rep.add("sim.cache_store_ms", 0.0, "ms");
    rep.add("sim.cache_hit_frac", 0.0, "frac");
    rep.add("sim.parallel_eff", 0.0, "frac");
    rep.add("sweep_cold_s", 0.0, "s");
    rep.add("sweep_warm_s", 0.0, "s");
    addModelMetrics(rep, {reps.first});
    rep.add("trace_overhead_frac", totals.loopSeconds / run_s - 1.0,
            "frac");
    return verified;
}

// ---------------------------------------------------------------------
// zoo_sweep: Runner grid, cold then warm ResultCache pass
// ---------------------------------------------------------------------

struct ZooPoint
{
    std::string profile;
    PrefetchScheme scheme;
};

std::vector<ZooPoint>
zooGrid()
{
    std::vector<ZooPoint> grid;
    for (const std::string &p : kZooProfiles) {
        for (PrefetchScheme s : allPrefetchSchemes())
            grid.push_back({p, s});
    }
    return grid;
}

struct ZooPass
{
    double wall = 0.0;
    std::vector<SimResults> results;
    std::size_t hits = 0;
    std::size_t misses = 0;
};

/** One Runner pass over the grid against the cache in @p dir. */
ZooPass
runZooPass(Report &rep, const std::vector<ZooPoint> &grid,
           std::uint64_t seed, const std::string &dir)
{
    ZooPass pass;
    const std::uint64_t skip = roiOffset(seed);
    const std::string key =
        strprintf("roi%llu", static_cast<unsigned long long>(skip));
    Runner::Tweak tweak = [skip](SimConfig &c) { c.skipInsts = skip; };

    auto t0 = Clock::now();
    Runner runner(kZooWarmupInsts, kZooMeasureInsts);
    runner.setJobs(kZooJobs);
    runner.setRetryPolicy(0, 0);
    runner.setCacheDir(dir);
    for (const ZooPoint &p : grid)
        runner.enqueue(p.profile, p.scheme, key, tweak);
    runner.runPending();
    pass.wall = secondsSince(t0);

    // Runner isolates each point's SimError itself; its failures()
    // list is what counts them.
    rep.countAttempts(grid.size());
    for (const ZooPoint &p : grid)
        pass.results.push_back(runner.run(p.profile, p.scheme, key, tweak));
    for (const Runner::FailedPoint &f : runner.failures()) {
        rep.check(false, "zoo point " + f.workload + "/" + f.scheme +
                             " failed: " + f.error);
    }
    pass.hits = runner.cacheHits();
    pass.misses = runner.cacheMisses();
    return pass;
}

/** Cold + warm passes with their checks; returns false on failure. */
bool
zooRound(Report &rep, const std::vector<ZooPoint> &grid, std::uint64_t seed,
         const std::string &dir, ZooPass &cold, ZooPass &warm)
{
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    cold = runZooPass(rep, grid, seed, dir);
    warm = runZooPass(rep, grid, seed, dir);
    std::size_t n = grid.size();
    rep.check(cold.misses == n && cold.hits == 0,
              "cold pass did not simulate every point");
    rep.check(warm.hits == n, "warm pass did not hit every point");
    bool same = cold.results.size() == n && warm.results.size() == n;
    for (std::size_t i = 0; same && i < n; ++i) {
        same = serializeResults(cold.results[i]) ==
            serializeResults(warm.results[i]);
        checkPointBudget(rep, cold.results[i],
                         zooConfig(grid[i].profile, grid[i].scheme, seed));
    }
    rep.check(same, "warm results differ from cold results");
    return same;
}

bool
runZoo(Report &rep, const Options &o)
{
    const std::vector<ZooPoint> grid = zooGrid();
    const std::string dir = o.workDir + "/result_cache";

    std::vector<double> setup, cold_s, warm_s, eff, hit_frac;
    double cycles = 0.0;
    std::uint64_t digest = 0;
    std::vector<SimResults> first;
    double budget = o.trace ? o.seconds / 2.0 : o.seconds;
    auto start = Clock::now();
    while (cold_s.size() < kMinReps || secondsSince(start) < budget) {
        // setup_s: SimConfig to constructed Simulator, the mean over the
        // grid points, sampled every round so the median spans the run.
        double construct_s = 0.0;
        for (const ZooPoint &p : grid) {
            rep.attempt("zoo construct", [&] {
                SimConfig cfg = zooConfig(p.profile, p.scheme, o.seed);
                auto t0 = Clock::now();
                Simulator sim(cfg);
                construct_s += secondsSince(t0);
            });
        }
        setup.push_back(construct_s / static_cast<double>(grid.size()));

        ZooPass cold, warm;
        if (!zooRound(rep, grid, o.seed, dir, cold, warm))
            return false;
        Fnv1a d;
        double host = 0.0;
        for (const SimResults &r : cold.results) {
            d.u64(digestOf(r));
            host += r.hostSeconds;
        }
        if (cold_s.empty()) {
            digest = d.h;
            first = cold.results;
            for (const SimResults &r : first)
                cycles += static_cast<double>(r.totalCycles);
        }
        rep.check(d.h == digest,
                  "serializeResults digest changed between repetitions");
        cold_s.push_back(cold.wall);
        warm_s.push_back(warm.wall);
        eff.push_back(host / (cold.wall * kZooJobs));
        hit_frac.push_back(static_cast<double>(warm.hits) /
                           static_cast<double>(grid.size()));
    }

    if (!o.trace) {
        rep.add("run_s", fastest(cold_s), "s");
        rep.add("sim_kcyc_per_s", cycles / fastest(cold_s) / 1000.0,
                "kcyc/s");
        rep.add("setup_s", median(setup), "s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.note("run_s.median", median(cold_s), "s");
        rep.note("sweep_cold_s", fastest(cold_s), "s");
        rep.note("sweep_warm_s", fastest(warm_s), "s");
        rep.note("repetitions", static_cast<double>(cold_s.size()), "");
        return true;
    }

    // ResultCache::store/load per entry, on a fresh directory.
    std::vector<double> store_ms, load_ms;
    const std::string codec_dir = o.workDir + "/codec_cache";
    rep.attempt("cache codec", [&] {
        ResultCache cache(codec_dir, 0);
        for (std::size_t i = 0; i < grid.size(); ++i) {
            SimConfig cfg = zooConfig(grid[i].profile, grid[i].scheme,
                                      o.seed);
            std::uint64_t fp = cfg.fingerprint();
            auto t0 = Clock::now();
            cache.store(fp, cfg.warmupInsts, cfg.measureInsts, first[i]);
            store_ms.push_back(secondsSince(t0) * 1e3);
            t0 = Clock::now();
            auto loaded = cache.load(fp, cfg.warmupInsts, cfg.measureInsts);
            load_ms.push_back(secondsSince(t0) * 1e3);
            rep.check(loaded && serializeResults(*loaded) ==
                                    serializeResults(first[i]),
                      "ResultCache round trip changed a result");
        }
    });

    // Serial untraced runs (the overhead base), then the traced loop.
    LayerTotals totals;
    double untraced_s = 0.0;
    std::vector<double> build;
    bool verified = true;
    for (const ZooPoint &p : grid) {
        SimConfig cfg = zooConfig(p.profile, p.scheme, o.seed);
        rep.attempt("zoo serial run", [&] {
            auto t0 = Clock::now();
            buildProgram(coreProfile(cfg, 0));
            build.push_back(secondsSince(t0));
            Simulator sim(cfg);
            t0 = Clock::now();
            sim.run();
            untraced_s += secondsSince(t0);
        });
        verified = traceAndVerify(rep, cfg, totals) && verified;
    }
    SimConfig ref = zooConfig(grid.front().profile, grid.front().scheme,
                              o.seed);
    auto [synth_ns, file_ns] = timeTraceSources(rep, ref, o.workDir);

    addSpanMetrics(rep, totals);
    rep.add("trace.next_ns", synth_ns, "ns");
    rep.add("trace.synth_next_ns", synth_ns, "ns");
    rep.add("trace.file_next_ns", file_ns, "ns");
    rep.add("trace.build_program_s", median(build), "s");
    rep.add("sim.construct_s", median(setup) - median(build), "s");
    rep.add("sim.cache_load_ms", median(load_ms), "ms");
    rep.add("sim.cache_store_ms", median(store_ms), "ms");
    rep.add("sim.cache_hit_frac", median(hit_frac), "frac");
    rep.add("sim.parallel_eff", median(eff), "frac");
    rep.add("sweep_cold_s", fastest(cold_s), "s");
    rep.add("sweep_warm_s", fastest(warm_s), "s");
    addModelMetrics(rep, first);
    rep.add("trace_overhead_frac", totals.loopSeconds / untraced_s - 1.0,
            "frac");
    return verified;
}

// ---------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload fdp_gcc|walk_replay|mc4_mix|"
                 "zoo_sweep --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string flag = argv[i];
        std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = !value.empty() && *end == '\0' && value[0] != '-';
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0')
                usage(argv[0]);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage(argv[0]);
            o.trace = value == "1";
            have_trace = true;
        } else if (flag == "--work-dir") {
            o.workDir = value;
        } else {
            usage(argv[0]);
        }
    }
    bool known = o.workload == "fdp_gcc" || o.workload == "walk_replay" ||
        o.workload == "mc4_mix" || o.workload == "zoo_sweep";
    if (!known || !have_seed || !have_trace || !(o.seconds > 0.0) ||
        o.workDir.empty())
        usage(argv[0]);
    return o;
}

} // namespace
} // namespace fdip

int
main(int argc, char **argv)
{
    using namespace fdip;
    Options o = parseArgs(argc, argv);
    for (const char *name : kMeasuredEnv) {
        const char *v = std::getenv(name);
        if (v != nullptr && v[0] != '\0') {
            std::fprintf(stderr,
                         "%s: %s is set; it changes what is measured, "
                         "unset it\n",
                         argv[0], name);
            return 2;
        }
    }
    // Failures must surface as SimError so they are counted, not exit.
    setFatalMode(FatalMode::Throw);
    std::filesystem::create_directories(o.workDir);

    Report rep;
    bool verified = o.workload == "zoo_sweep" ? runZoo(rep, o)
                                              : runSingle(rep, o);
    // An unverified traced loop reports no per-layer numbers.
    rep.print(o, verified || !o.trace);
    return 0;
}
