/**
 * @file runner.hh
 * Experiment runner: executes grid points with memoization, so a bench
 * binary never simulates the same machine twice.
 *
 * A grid point's identity is its SimConfig::fingerprint(), which
 * covers the run lengths: the in-process memo, the on-disk result
 * cache and the failure records all key on it. The workload, scheme
 * and variant strings only label a point in reports, so two labels for
 * one machine share one simulation and no label can be served another
 * machine's results.
 *
 * Grid points are independent simulations, so a bench can enqueue()
 * its whole grid up front and runPending() executes the points on a
 * thread pool (--jobs N / FDIP_JOBS, default: hardware concurrency).
 * run() then serves every point from the in-process memo, keeping
 * table output deterministic regardless of execution order.
 *
 * Two reuse layers with distinct names:
 *  - the **memo** (in-process): the per-Runner map that dedups grid
 *    points inside one binary;
 *  - the **result cache** (on-disk, sim/result_cache.hh): shares
 *    completed results *across* binaries. Enabled by FDIP_CACHE_DIR;
 *    FDIP_NO_CACHE=1 turns it off.
 */

#ifndef FDIP_SIM_RUNNER_HH
#define FDIP_SIM_RUNNER_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/presets.hh"
#include "sim/result_cache.hh"
#include "sim/simulator.hh"

namespace fdip
{

/** Build + run one simulation from a fully-specified config. */
SimResults simulate(const SimConfig &cfg);

/**
 * The config of one grid point: the baseline machine for
 * (workload, scheme) with the given run lengths, then @p tweak.
 */
SimConfig gridConfig(const std::string &workload, PrefetchScheme scheme,
                     std::uint64_t warmup_insts,
                     std::uint64_t measure_insts,
                     const std::function<void(SimConfig &)> &tweak =
                         nullptr);

class Runner
{
  public:
    /**
     * @param warmup_insts warmup instructions per run
     * @param measure_insts measured instructions per run
     */
    Runner(std::uint64_t warmup_insts = 300 * 1000,
           std::uint64_t measure_insts = 1000 * 1000);

    using Tweak = std::function<void(SimConfig &)>;

    /**
     * A grid point whose simulation raised SimError. The sweep
     * carries on: the memo holds a Failed/TimedOut sentinel result
     * (all-NaN metrics, rendered as FAIL / TIMEOUT cells) and
     * this record preserves what actually happened.
     */
    struct FailedPoint
    {
        std::string workload;
        std::string scheme;
        /** Variant label the point was queued under ("" = none). */
        std::string variant;
        /** SimConfig::fingerprint() of the failing config. */
        std::uint64_t fingerprint = 0;
        /** what() of the error. */
        std::string error;
        bool timedOut = false;
    };

    /**
     * Results of @p cfg: served from the memo, else computed now
     * (serially). @p variant labels the point in failure reports.
     */
    const SimResults &run(const SimConfig &cfg,
                          const std::string &variant = "");

    /**
     * Queue @p cfg for runPending(). A config already memoized or
     * already queued is counted as a memo hit and ignored.
     */
    void enqueue(const SimConfig &cfg, const std::string &variant = "");

    /** run() of the gridConfig() for (workload, scheme, tweak) at this
     *  Runner's run lengths, labelled @p variant. */
    const SimResults &run(const std::string &workload,
                          PrefetchScheme scheme,
                          const std::string &variant = "",
                          const Tweak &tweak = nullptr);

    /** Speedup of (workload, scheme [, tweak]) over the no-prefetch
     *  baseline with the same tweak applied. */
    double speedup(const std::string &workload, PrefetchScheme scheme,
                   const std::string &variant = "",
                   const Tweak &tweak = nullptr);

    /** enqueue() of the gridConfig() for (workload, scheme, tweak). */
    void enqueue(const std::string &workload, PrefetchScheme scheme,
                 const std::string &variant = "",
                 const Tweak &tweak = nullptr);

    /** enqueue() both the scheme point and its no-prefetch baseline,
     *  as speedup() will request them. */
    void enqueueSpeedup(const std::string &workload,
                        PrefetchScheme scheme,
                        const std::string &variant = "",
                        const Tweak &tweak = nullptr);

    /**
     * Execute all queued points and memoize their results. Points run
     * concurrently on jobs() threads (in enqueue order when jobs()
     * is 1). Simulations are deterministic and share no state, so the
     * memo ends up identical to a serial sweep. When the on-disk
     * result cache is enabled, each point is first looked up there
     * (and stored back after simulating a miss).
     */
    void runPending();

    /** Thread count for runPending(); 0 is clamped to 1. */
    void setJobs(unsigned n) { numJobs = n == 0 ? 1 : n; }
    unsigned jobs() const { return numJobs; }

    /** FDIP_JOBS env var if set, else hardware concurrency. */
    static unsigned defaultJobs();

    /**
     * No-op: every point runs once. A simulation is deterministic, so
     * a point that raised SimError would raise it again on a retry.
     * Kept because perfbench/perfbench.cc still calls it.
     */
    void setRetryPolicy(unsigned, unsigned) {}

    /** Points whose simulation failed, in enqueue order. */
    const std::vector<FailedPoint> &failures() const { return failed; }
    /** Failed points whose error was a SimTimeout. */
    std::size_t timedOutPoints() const { return numTimedOut; }
    /** Corrupt/stale entries the on-disk cache quarantined. */
    std::size_t cacheQuarantined() const;
    /** Entries the on-disk cache's size-budget GC evicted at open. */
    std::size_t cacheEvicted() const;

    std::uint64_t warmupInsts() const { return warmup; }
    std::uint64_t measureInsts() const { return measure; }

    std::size_t memoizedRuns() const { return memo.size(); }
    std::size_t pendingRuns() const { return pending.size(); }

    /** Fingerprint of every queued point, in queue order. */
    std::vector<std::uint64_t> pendingFingerprints() const;

    /** Point the on-disk result cache at @p dir (tests; normal use is
     *  the FDIP_CACHE_DIR environment variable). */
    void setCacheDir(const std::string &dir);
    /** Drop the on-disk result cache (in-process memo is unaffected). */
    void disableCache();
    bool cacheEnabled() const { return diskCache != nullptr; }

    /** enqueue() requests served by the in-process memo (duplicate
     *  grid points, shared baselines). */
    std::size_t memoHits() const { return numMemoHits; }
    /** Points served from / simulated into the on-disk result cache
     *  across all runPending()/run() calls so far. */
    std::size_t cacheHits() const { return numCacheHits; }
    std::size_t cacheMisses() const { return numCacheMisses; }

    /**
     * Footer for the last runPending() batch: points executed, wall
     * seconds, jobs, summed per-run host seconds (wall vs. summed
     * shows parallel efficiency; either one drifting up across commits
     * is a simulator perf regression), plus a reuse line that keeps
     * the two layers distinct: "memo hits" are enqueues deduped by the
     * in-process memo, "cache hits" are points served from the on-disk
     * result cache instead of being simulated.
     */
    std::string sweepSummary() const;

  private:
    struct Point
    {
        SimConfig cfg;
        std::uint64_t fingerprint = 0;
        std::string variant;
        /** Deterministic distinct-point ordinal (enqueue/run order);
         *  the index FDIP_FAULT's throw@/hang@ faults address. */
        std::size_t index = 0;
    };

    /** One executed-or-loaded grid point. */
    struct Outcome
    {
        SimResults results;
        bool diskHit = false;
        /** The simulation raised SimError; results is a sentinel. */
        bool failedPoint = false;
        bool timedOut = false;
        std::string error;
    };

    /**
     * Serve @p p from the on-disk cache, or simulate (and store) —
     * with failure isolation: a point that raises SimError returns a
     * sentinel Outcome instead of propagating.
     */
    Outcome computePoint(const Point &p) const;

    /** Count one outcome against the hit/miss counters. */
    void accountCacheOutcome(const Outcome &o);

    /** Fold one outcome into the sweep gauges and counters. */
    void accountOutcome(const Outcome &o);

    /** Record failure bookkeeping for one completed point
     *  (single-threaded merge only). */
    void recordHealth(const Point &p, const Outcome &o);

    std::uint64_t warmup;
    std::uint64_t measure;
    unsigned numJobs = defaultJobs();
    /** In-process memo: every completed point, by fingerprint. */
    std::map<std::uint64_t, SimResults> memo;
    std::vector<Point> pending;
    /** Cross-binary on-disk result cache; nullptr when disabled. */
    std::unique_ptr<ResultCache> diskCache = ResultCache::fromEnv();

    /** Reuse counters (whole Runner lifetime). */
    std::size_t numMemoHits = 0;
    std::size_t numCacheHits = 0;
    std::size_t numCacheMisses = 0;

    /** Last-batch bookkeeping for sweepSummary(). */
    std::size_t sweepPoints = 0;
    double sweepWallSeconds = 0.0;
    double sweepHostSeconds = 0.0;
    /** Idle-skip totals over the batch (simulated cycles). */
    std::uint64_t sweepSkippedCycles = 0;
    std::uint64_t sweepTotalCycles = 0;

    /** Next Point::index (distinct points only, enqueue/run order). */
    std::size_t nextPointIndex = 0;

    /** Failure isolation (whole Runner lifetime). */
    std::vector<FailedPoint> failed;
    std::size_t numTimedOut = 0;
};

/** Geometric-mean speedup: gmean over (1 + s_i), minus 1. */
double gmeanSpeedup(const std::vector<double> &speedups);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

} // namespace fdip

#endif // FDIP_SIM_RUNNER_HH
