/**
 * @file mmu.hh
 * The instruction-side virtual-memory subsystem: a two-level TLB
 * hierarchy (ITLB backed by an optional L2 TLB) over the program's
 * page table, with page-table walks served by a bounded pool of
 * walkers and per-page merging of concurrent requests.
 *
 * An ITLB miss splits three ways:
 *  - L2-TLB hit: the translation refills the ITLB after a short
 *    fixed latency, without occupying a walker;
 *  - full walk, walker free: a page-table walk starts immediately;
 *  - full walk, walkers saturated: the walk queues. Demand walks
 *    enter the queue ahead of prefetch-triggered walks, so prefetch
 *    translation traffic can never delay the fetch engine's walks.
 *
 * The fetch engine translates demand fetches here (stalling for the
 * walk on a miss); prefetchers probe translations through one of the
 * three policies from the literature:
 *
 *  - Drop: a candidate whose page needs a full walk is discarded
 *          (an L2-TLB hit is not a walk, so it proceeds after the
 *          L2 latency).
 *  - Wait: the candidate waits for a page walk, then issues; the walk
 *          fills neither TLB level (no speculative TLB pollution).
 *  - Fill: like Wait, but the completed walk also fills the ITLB and
 *          L2 TLB, pre-warming the translation for the later demand.
 *
 * A fourth mechanism decouples translation lookahead from the block
 * prefetcher entirely: the TLB prefetcher (vm/tlb_prefetcher.hh)
 * walks the FTQ and warms translations through
 * tlbPrefetchTranslate() before any demand or prefetch probe arrives.
 */

#ifndef FDIP_VM_MMU_HH
#define FDIP_VM_MMU_HH

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace fdip
{

class Program;
class Tracer;

/** What a prefetcher does with a candidate whose page misses the ITLB. */
enum class TlbPrefetchPolicy : std::uint8_t
{
    Drop,
    Wait,
    Fill,
};

const char *tlbPolicyName(TlbPrefetchPolicy policy);

struct VmConfig
{
    bool enable = false;
    unsigned pageBytes = 4096;
    unsigned itlbEntries = 64;
    unsigned itlbAssoc = 4;
    /** Fixed page-table walk latency in cycles. */
    Cycle walkLatency = 30;
    TlbPrefetchPolicy prefetchPolicy = TlbPrefetchPolicy::Drop;
    PageMapKind mapping = PageMapKind::Identity;

    /** Second-level TLB size; 0 disables it (single-level hierarchy,
     *  every ITLB miss is a full walk — the pre-L2 model). */
    unsigned l2TlbEntries = 0;
    unsigned l2TlbAssoc = 8;
    /** ITLB-refill latency on an L2-TLB hit. */
    Cycle l2TlbLatency = 8;

    /** Page-table walkers; 0 = unlimited walk concurrency (the
     *  pre-bounded model). With N walkers, excess walks queue, demand
     *  walks ahead of prefetch walks. */
    unsigned numWalkers = 0;

    /** Decoupled TLB prefetcher: walk the FTQ ahead of the block
     *  prefetcher and warm ITLB/L2-TLB translations. */
    bool tlbPrefetch = false;
};

/** Outcome of one demand translation. */
struct TlbAccess
{
    bool hit = true;
    Addr paddr = invalidAddr;
    /** When the translation is usable (now on a hit, walk end on miss). */
    Cycle readyAt = 0;
};

/** Outcome of one prefetch translation probe. */
struct PfTranslation
{
    enum class Status
    {
        Ready,   ///< translation available this cycle
        Walking, ///< usable once the backing walk/refill completes
        Dropped, ///< candidate must be discarded (Drop policy)
    };

    Status status = Status::Ready;
    Addr paddr = invalidAddr;
    /** Completion when known; kNever while queued for a walker. */
    Cycle readyAt = 0;
    /** Walk reference for live Mmu::walkPending() polling. */
    Addr vpn = invalidAddr;
    std::uint64_t walkId = 0; ///< 0: no in-flight walk backs this
};

/**
 * Cached issue-time translation of one prefetch candidate, resolved
 * at most once via Prefetcher::resolveTranslation(). While walkId is
 * nonzero the candidate waits on the referenced in-flight walk (whose
 * completion may slide under bounded walker bandwidth, so readiness
 * is polled from the Mmu rather than read from a cached cycle).
 */
struct PfTranslationState
{
    bool translated = false;
    Addr paddr = invalidAddr;
    /** Completion estimate at probe time; kNever while queued. */
    Cycle readyAt = 0;
    Addr vpn = invalidAddr;
    std::uint64_t walkId = 0; ///< 0: not waiting on any walk
};

class Mmu
{
  public:
    Mmu(const VmConfig &config, Addr code_base, Addr code_end);
    Mmu(const VmConfig &config, const Program &prog);

    bool enabled() const { return cfg.enable; }

    /** Complete due walks/refills (installing TLB fills) and start
     *  queued walks on freed walkers; once a cycle. */
    void tick(Cycle now);

    /**
     * Quiescence protocol: the earliest in-flight walk or L2-refill
     * completion (the MMU's only self-driven state changes); kNever
     * when nothing is in flight. Queued walks need no event of their
     * own — they start on a walker completion, which is already
     * reported. Never returns a cycle <= @p now.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Translate a demand fetch. On an ITLB miss the L2 TLB is probed;
     * a hit schedules an ITLB refill, a miss starts (or joins) a page
     * walk — queueing ahead of any prefetch walks when the walkers
     * are saturated. @c readyAt reports the completion (exact even
     * for a queued walk: nothing can overtake a demand); the fill
     * always lands in the ITLB, so a retry at @c readyAt hits.
     */
    TlbAccess demandTranslate(Addr vaddr, Cycle now);

    /**
     * Translation probe for a prefetch candidate, applying the
     * configured policy. Side-effect-free on the TLB ordering; Wait
     * and Fill start (or join) a page walk on a full miss. A queued
     * walk reports readyAt = kNever — poll walkPending() instead.
     */
    PfTranslation prefetchTranslate(Addr vaddr, Cycle now);

    /**
     * Translation warm-up request from the TLB prefetcher: starts (or
     * joins) a prefetch-priority walk or L2 refill that fills both
     * TLB levels. Ready when the ITLB already holds the page.
     */
    PfTranslation tlbPrefetchTranslate(Addr vaddr, Cycle now);

    /** Untimed page-table peek (simulator-internal filter probes). */
    Addr translateFunctional(Addr vaddr) const;

    /** Pure ITLB probe: would @p vaddr translate without a walk? */
    bool tlbHolds(Addr vaddr) const;

    /** Is the walk identified by (vpn, walk_id) still in flight
     *  (queued or active)? False once completed (or never started). */
    bool walkPending(Addr vpn, std::uint64_t walk_id) const;

    /**
     * Completion cycle of the walk identified by (vpn, walk_id):
     * the exact cycle while active, kNever while still queued for a
     * walker, 0 when already completed.
     */
    Cycle walkReadyCycle(Addr vpn, std::uint64_t walk_id) const;

    /** In-flight translations: active + queued walks + L2 refills. */
    std::size_t walksInFlight() const { return walks.size(); }
    /** Walks waiting for a free walker. */
    std::size_t walksQueued() const { return walkQueue.size(); }

    /** nullptr when the L2 TLB is disabled (l2TlbEntries == 0). */
    Tlb *l2Tlb() { return l2_.get(); }
    const Tlb *l2Tlb() const { return l2_.get(); }
    const PageTable &pageTable() const { return pt; }

    /** Aggregate MMU + ITLB + L2-TLB statistics into @p out. */
    void collectStats(StatSet &out) const;

    /** Emit walk/refill lifetime spans to @p t (null disables). */
    void setTracer(Tracer *t) { tracer = t; }

    StatSet stats;

  private:
    StatSet::Counter stWalkMerges = stats.registerCounter("mmu.walk_merges");
    StatSet::Counter stWalks = stats.registerCounter("mmu.walks");
    StatSet::Counter stDemandWalks =
        stats.registerCounter("mmu.demand_walks");
    StatSet::Counter stPfTlbHits = stats.registerCounter("mmu.pf_tlb_hits");
    StatSet::Counter stPfTlbMisses =
        stats.registerCounter("mmu.pf_tlb_misses");
    StatSet::Counter stPfDropped = stats.registerCounter("mmu.pf_dropped");
    StatSet::Counter stPfWalks = stats.registerCounter("mmu.pf_walks");
    StatSet::Counter stPfFills = stats.registerCounter("mmu.pf_fills");
    StatSet::Counter stL2HitFills =
        stats.registerCounter("mmu.l2tlb_hit_fills");
    StatSet::Counter stPfL2Hits =
        stats.registerCounter("mmu.pf_l2tlb_hits");
    StatSet::Counter stWalksQueued =
        stats.registerCounter("mmu.walks_queued");
    StatSet::Counter stWalkQueueCycles =
        stats.registerCounter("mmu.walk_queue_cycles");
    StatSet::Counter stDemandQueueCycles =
        stats.registerCounter("mmu.demand_queue_cycles");
    StatSet::Counter stWalkUpgrades =
        stats.registerCounter("mmu.walk_upgrades");
    StatSet::Counter stTlbPfWalks =
        stats.registerCounter("mmu.tlbpf_walks");

    /**
     * One in-flight translation: a page-table walk (active on a
     * walker, or queued for one) or an L2-TLB-hit ITLB refill (fixed
     * short latency, no walker).
     */
    struct Walk
    {
        std::uint64_t id = 0;
        /** Completion cycle; kNever while queued for a walker. */
        Cycle readyAt = kNever;
        Cycle queuedAt = 0;
        bool started = false;
        /** False: L2-TLB-hit refill (never queues, needs no walker). */
        bool isWalk = true;
        /** Demand-priority (queues ahead of prefetch walks). */
        bool demand = false;
        bool fillItlb = false;
        bool fillL2 = false;
    };

    /**
     * Start, queue, or join the walk for @p vpn. @p created reports
     * whether a new walk was launched (false when the request merged
     * into an in-flight one; a demand joining a queued prefetch walk
     * upgrades its queue priority and fills).
     */
    Walk &requestWalk(Addr vpn, Cycle now, bool is_demand, bool fill_itlb,
                      bool fill_l2, bool &created);

    /** Create (or join) an L2-TLB-hit ITLB refill for @p vpn. */
    Walk &requestL2Refill(Addr vpn, Cycle now, bool fill_itlb,
                          bool &created);

    /**
     * Deterministic start cycle of a demand walk enqueued at @p now
     * behind @p demands_ahead queued demand walks (bounded mode, all
     * walkers busy): simulate the walker pool serving the queued
     * demands first. Exact because nothing ever overtakes a demand.
     */
    Cycle boundedWalkStart(Cycle now, std::size_t demands_ahead) const;

    /** Queue insertion point for a demand walk: after the queued
     *  demands, before every queued prefetch walk. */
    std::size_t demandQueuePosition() const;

    void applyFills(const Walk &walk, Addr vpn);

    VmConfig cfg;
    PageTable pt;
    Tlb itlb_;
    std::unique_ptr<Tlb> l2_;
    std::map<Addr, Walk> walks;
    /** VPNs of un-started walks in service order (demands first). */
    std::deque<Addr> walkQueue;
    /** Per-walker busy-until cycle; empty in unlimited mode. */
    std::vector<Cycle> walkerFreeAt;
    std::uint64_t nextWalkId = 1;
    Tracer *tracer = nullptr;
};

} // namespace fdip

#endif // FDIP_VM_MMU_HH
