#include "sim/runner.hh"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <thread>

#include "common/env.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/logging.hh"

namespace fdip
{

SimResults
simulate(const SimConfig &cfg)
{
    Simulator sim(cfg);
    return sim.run();
}

SimConfig
gridConfig(const std::string &workload, PrefetchScheme scheme,
           std::uint64_t warmup_insts, std::uint64_t measure_insts,
           const std::function<void(SimConfig &)> &tweak)
{
    SimConfig cfg = makeBaselineConfig(workload, scheme);
    cfg.warmupInsts = warmup_insts;
    cfg.measureInsts = measure_insts;
    if (tweak)
        tweak(cfg);
    return cfg;
}

Runner::Runner(std::uint64_t warmup_insts, std::uint64_t measure_insts)
    : warmup(warmup_insts), measure(measure_insts)
{}

unsigned
Runner::defaultJobs()
{
    // Fallback 0 = auto-detect: a malformed FDIP_JOBS warns and falls
    // back to hardware concurrency, same as leaving it unset.
    std::uint64_t n = envUint("FDIP_JOBS", 0, 1);
    if (n >= 1)
        return static_cast<unsigned>(n);
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::size_t
Runner::cacheQuarantined() const
{
    return diskCache ? diskCache->quarantined() : 0;
}

std::size_t
Runner::cacheEvicted() const
{
    return diskCache ? diskCache->evicted() : 0;
}

Runner::Outcome
Runner::computePoint(const Point &p) const
{
    try {
        // Declare the point to the fault injector for the duration of
        // the simulation; with FDIP_FAULT unset this is two
        // thread-local stores.
        FaultInjector::PointScope scope(p.index);
        Outcome o;
        const SimConfig &cfg = p.cfg;
        // A loaded entry carries no host gauges: sweep footers account
        // only the simulations that actually executed.
        if (diskCache) {
            if (auto cached = diskCache->load(
                    p.fingerprint, cfg.warmupInsts, cfg.measureInsts)) {
                o.results = std::move(*cached);
                o.diskHit = true;
                return o;
            }
        }
        o.results = simulate(cfg);
        if (diskCache) {
            diskCache->store(p.fingerprint, cfg.warmupInsts,
                             cfg.measureInsts, o.results);
        }
        return o;
    } catch (const SimError &e) {
        // A simulation is deterministic, so running the point again
        // would fail the same way. Substitute a sentinel result so the
        // sweep (and its table) completes around this point. Both
        // sentinels are NaNs (the timed-out one tagged) so derived
        // ratios/means degrade to NaN as well.
        bool timed_out = dynamic_cast<const SimTimeout *>(&e) != nullptr;
        warn("point %zu (%s, %s, '%s') failed: %s", p.index,
             p.cfg.workload.c_str(), schemeName(p.cfg.scheme),
             p.variant.c_str(), e.what());
        double s = timed_out ? timedOutSentinel() : failedSentinel();
        Outcome o;
        o.results.workload = p.cfg.workload;
        o.results.scheme = schemeName(p.cfg.scheme);
        o.results.status =
            timed_out ? RunStatus::TimedOut : RunStatus::Failed;
        o.results.failReason = e.what();
        o.results.ipc = s;
        o.results.mpki = s;
        o.results.l2BusUtil = s;
        o.results.memBusUtil = s;
        o.results.prefetchAccuracy = s;
        o.results.prefetchCoverage = s;
        o.results.prefetchTimely = s;
        o.results.prefetchLate = s;
        o.results.prefetchPollution = s;
        o.results.condMispredictPerKilo = s;
        o.failedPoint = true;
        o.timedOut = timed_out;
        o.error = e.what();
        return o;
    }
}

void
Runner::accountCacheOutcome(const Outcome &o)
{
    // Failed points touched the cache but produced nothing reusable;
    // they are reported on the health line, not as misses.
    if (!diskCache || o.failedPoint)
        return;
    if (o.diskHit)
        ++numCacheHits;
    else
        ++numCacheMisses;
}

void
Runner::recordHealth(const Point &p, const Outcome &o)
{
    if (!o.failedPoint)
        return;
    if (o.timedOut)
        ++numTimedOut;
    FailedPoint f;
    f.workload = p.cfg.workload;
    f.scheme = schemeName(p.cfg.scheme);
    f.variant = p.variant;
    f.fingerprint = p.fingerprint;
    f.error = o.error;
    f.timedOut = o.timedOut;
    failed.push_back(std::move(f));
}

void
Runner::accountOutcome(const Outcome &o)
{
    sweepHostSeconds += o.results.hostSeconds;
    sweepSkippedCycles += o.results.skippedCycles;
    sweepTotalCycles += o.results.totalCycles;
    accountCacheOutcome(o);
}

const SimResults &
Runner::run(const SimConfig &cfg, const std::string &variant)
{
    std::uint64_t fp = cfg.fingerprint();
    auto it = memo.find(fp);
    if (it != memo.end())
        return it->second;

    Point p{cfg, fp, variant, nextPointIndex++};
    Outcome o = computePoint(p);
    accountCacheOutcome(o);
    recordHealth(p, o);
    return memo.emplace(fp, std::move(o.results)).first->second;
}

void
Runner::enqueue(const SimConfig &cfg, const std::string &variant)
{
    std::uint64_t fp = cfg.fingerprint();
    bool queued = memo.count(fp) != 0;
    for (std::size_t i = 0; !queued && i < pending.size(); ++i)
        queued = pending[i].fingerprint == fp;
    if (queued) {
        ++numMemoHits;
        return;
    }
    pending.push_back(Point{cfg, fp, variant, nextPointIndex++});
}

const SimResults &
Runner::run(const std::string &workload, PrefetchScheme scheme,
            const std::string &variant, const Tweak &tweak)
{
    return run(gridConfig(workload, scheme, warmup, measure, tweak),
               variant);
}

double
Runner::speedup(const std::string &workload, PrefetchScheme scheme,
                const std::string &variant, const Tweak &tweak)
{
    const SimResults &base =
        run(workload, PrefetchScheme::None, variant, tweak);
    const SimResults &with = run(workload, scheme, variant, tweak);
    return speedupOver(base, with);
}

void
Runner::enqueue(const std::string &workload, PrefetchScheme scheme,
                const std::string &variant, const Tweak &tweak)
{
    enqueue(gridConfig(workload, scheme, warmup, measure, tweak), variant);
}

void
Runner::enqueueSpeedup(const std::string &workload, PrefetchScheme scheme,
                       const std::string &variant, const Tweak &tweak)
{
    enqueue(workload, PrefetchScheme::None, variant, tweak);
    enqueue(workload, scheme, variant, tweak);
}

std::vector<std::uint64_t>
Runner::pendingFingerprints() const
{
    std::vector<std::uint64_t> out;
    out.reserve(pending.size());
    for (const auto &p : pending)
        out.push_back(p.fingerprint);
    return out;
}

void
Runner::setCacheDir(const std::string &dir)
{
    diskCache = std::make_unique<ResultCache>(dir);
}

void
Runner::disableCache()
{
    diskCache.reset();
}

void
Runner::runPending()
{
    if (pending.empty())
        return;

    auto wall_start = std::chrono::steady_clock::now();
    sweepPoints = pending.size();
    sweepHostSeconds = 0.0;
    sweepSkippedCycles = 0;
    sweepTotalCycles = 0;

    // Each worker pulls the next unclaimed point; results land in a
    // per-point slot, so no locking and no ordering dependence. With
    // one job the calling thread works through the queue in order.
    std::vector<Outcome> outcomes(pending.size());
    std::atomic<std::size_t> next{0};
    auto work = [this, &outcomes, &next]() {
        while (true) {
            std::size_t i = next.fetch_add(1);
            if (i >= pending.size())
                return;
            outcomes[i] = computePoint(pending[i]);
        }
    };
    unsigned workers = numJobs;
    if (workers > pending.size())
        workers = static_cast<unsigned>(pending.size());
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            threads.emplace_back(work);
        for (auto &t : threads)
            t.join();
    }

    // Memoize in enqueue order: memo contents (and any iteration over
    // them) match a serial sweep exactly. Health records land here
    // too, single-threaded, so FailedPoints keep enqueue order.
    for (std::size_t i = 0; i < pending.size(); ++i) {
        accountOutcome(outcomes[i]);
        recordHealth(pending[i], outcomes[i]);
        memo.emplace(pending[i].fingerprint,
                     std::move(outcomes[i].results));
    }
    pending.clear();
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall_start;
    sweepWallSeconds = wall.count();
}

std::string
Runner::sweepSummary() const
{
    double skip_pct = sweepTotalCycles == 0 ? 0.0
        : 100.0 * static_cast<double>(sweepSkippedCycles) /
          static_cast<double>(sweepTotalCycles);
    std::string out = strprintf(
        "sweep: %zu points in %.1fs wall (%u jobs, %.1fs summed "
        "host time, %.1f%% of simulated cycles skipped)\n",
        sweepPoints, sweepWallSeconds, numJobs, sweepHostSeconds,
        skip_pct);
    // Two reuse layers, reported separately so they cannot be
    // conflated: "memo hits" were deduped inside this process,
    // "cache hits" were loaded from the cross-binary disk cache.
    out += strprintf("reuse: %zu memo hits (in-process dedup); ",
                     numMemoHits);
    if (diskCache) {
        out += strprintf("result cache: %zu hits, %zu misses "
                         "(on-disk, %s)\n",
                         numCacheHits, numCacheMisses,
                         diskCache->dir().c_str());
    } else {
        out += "result cache: disabled (set FDIP_CACHE_DIR)\n";
    }
    // Zero-noise health line: only present when something actually
    // went wrong (failures, quarantined or evicted entries).
    std::size_t quarantined = cacheQuarantined();
    std::size_t evicted = cacheEvicted();
    if (!failed.empty() || quarantined > 0 || evicted > 0) {
        out += strprintf("health: %zu failed points (%zu timed out); "
                         "cache: %zu quarantined, %zu evicted\n",
                         failed.size(), numTimedOut, quarantined,
                         evicted);
    }
    return out;
}

double
gmeanSpeedup(const std::vector<double> &speedups)
{
    if (speedups.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double s : speedups) {
        // Failed-point sentinels are NaNs (as is any ratio computed
        // against one), degrading the whole aggregate to FAIL instead
        // of panicking mid-table.
        if (!std::isfinite(s))
            return failedSentinel();
        panic_if(1.0 + s <= 0.0, "speedup below -100%%");
        log_sum += std::log(1.0 + s);
    }
    return std::exp(log_sum / static_cast<double>(speedups.size())) - 1.0;
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

} // namespace fdip
