/**
 * @file fetch_engine.hh
 * Consumes the FTQ head, performs demand instruction-cache accesses
 * (one cache block per cycle), and streams fetched instructions into
 * the backend queue. Detects the delivery of a mispredicted branch and
 * schedules the pipeline redirect.
 */

#ifndef FDIP_FRONTEND_FETCH_ENGINE_HH
#define FDIP_FRONTEND_FETCH_ENGINE_HH

#include <vector>

#include "common/stats.hh"
#include "core/backend.hh"
#include "frontend/ftq.hh"
#include "mem/hierarchy.hh"
#include "prefetch/prefetcher.hh"
#include "vm/mmu.hh"

namespace fdip
{

class FetchEngine
{
  public:
    /** Redirect latency for decode-fixable misfetches. */
    static constexpr Cycle kDecodeRedirectLatency = 3;
    /** Redirect latency for execute-resolved mispredictions. */
    static constexpr Cycle kResolveRedirectLatency = 12;

    struct Config
    {
        unsigned fetchWidth = 8;
    };

    FetchEngine(Ftq &ftq, MemHierarchy &mem, Backend &backend,
                const Config &config);

    void addPrefetcher(Prefetcher *pf) { prefetchers.push_back(pf); }

    /** Wire the VM subsystem (nullptr: flat physical addressing). */
    void setMmu(Mmu *m) { mmu = m; }

    void tick(Cycle now);

    /**
     * Quiescence protocol: the earliest future cycle fetch changes
     * state on its own — stall expiry or the pending redirect. now + 1
     * when fetch would act next cycle; kNever when it is blocked on an
     * empty FTQ or a full backend (their refill/drain is another
     * component's event). Never returns a cycle <= @p now.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Bulk-apply the per-cycle stall accounting of @p cycles ticks in
     * which fetch provably does nothing, mirroring tick()'s early-out
     * branches. Callers may only charge ranges in which
     * nextEventCycle() reported quiescence.
     */
    void chargeIdleCycles(Cycle now, Cycle cycles);

    bool redirectPending() const { return redirectAt != neverCycle; }
    Cycle redirectTime() const { return redirectAt; }

    /** The simulator performed the redirect: reset fetch state. */
    void squash();

    StatSet stats;

  private:
    StatSet::Counter stItlbStallCycles =
        stats.registerCounter("fetch.itlb_stall_cycles");
    StatSet::Counter stMissStallCycles =
        stats.registerCounter("fetch.miss_stall_cycles");
    StatSet::Counter stFtqEmptyCycles =
        stats.registerCounter("fetch.ftq_empty_cycles");
    StatSet::Counter stBackendFullCycles =
        stats.registerCounter("fetch.backend_full_cycles");
    StatSet::Counter stItlbMisses = stats.registerCounter("fetch.itlb_misses");
    StatSet::Counter stMshrRetryCycles =
        stats.registerCounter("fetch.mshr_retry_cycles");
    StatSet::Counter stDemandMisses =
        stats.registerCounter("fetch.demand_misses");
    StatSet::Counter stWrongPathMisses =
        stats.registerCounter("fetch.wrong_path_misses");
    StatSet::Counter stWrongPathDelivered =
        stats.registerCounter("fetch.wrong_path_delivered");
    StatSet::Counter stRedirectsScheduled =
        stats.registerCounter("fetch.redirects_scheduled");
    StatSet::Counter stDecodeRedirects =
        stats.registerCounter("fetch.decode_redirects");
    StatSet::Counter stResolveRedirects =
        stats.registerCounter("fetch.resolve_redirects");
    StatSet::Counter stDelivered = stats.registerCounter("fetch.delivered");
    StatSet::Counter stSquashes = stats.registerCounter("fetch.squashes");

    Ftq &ftq;
    MemHierarchy &mem;
    Backend &backend;
    Config cfg;
    Mmu *mmu = nullptr;

    Cycle stallUntil = 0;
    /** The current stall waits on a page walk, not a cache fill. */
    bool stalledOnWalk = false;
    Cycle redirectAt = neverCycle;
    std::vector<Prefetcher *> prefetchers;
};

} // namespace fdip

#endif // FDIP_FRONTEND_FETCH_ENGINE_HH
