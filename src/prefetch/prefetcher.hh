/**
 * @file prefetcher.hh
 * Interface every instruction prefetcher implements. The fetch engine
 * notifies prefetchers of demand accesses; the simulator ticks them
 * once per cycle (after demand fetch, so prefetchers only ever see
 * leftover tag ports and idle buses).
 *
 * The scheme catalog lives in docs/PREFETCHERS.md; every
 * implementation registered in allPrefetchSchemes() is held to the
 * shared contract suite in tests/test_scheme_conformance.cc.
 */

#ifndef FDIP_PREFETCH_PREFETCHER_HH
#define FDIP_PREFETCH_PREFETCHER_HH

#include <string>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/hierarchy.hh"
#include "prefetch/piq.hh"
#include "vm/mmu.hh"

namespace fdip
{

class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    virtual std::string name() const = 0;

    /** Per-cycle work: probing, issuing, scanning. */
    virtual void tick(Cycle now) {}

    /**
     * Quiescence protocol: the earliest future cycle at which tick()
     * would do anything beyond the fixed per-cycle charges replayed by
     * chargeIdleCycles() — now + 1 when it would act next cycle (scan,
     * probe, translate, or issue), a head-of-line walk completion when
     * it is waiting on the MMU, kNever when it is fully idle. Must
     * never return a cycle <= @p now.
     */
    virtual Cycle nextEventCycle(Cycle now) const { return kNever; }

    /**
     * Bulk-apply the per-cycle stall accounting of @p cycles ticks in
     * which this prefetcher provably does nothing (e.g. head-of-line
     * TLB-wait counters). Callers may only charge ranges in which
     * nextEventCycle() reported quiescence.
     */
    virtual void chargeIdleCycles(Cycle now, Cycle cycles) {}

    /**
     * Demand access notification from the fetch engine.
     * @param block_addr aligned virtual block address accessed
     * @param access the hierarchy's verdict for this access
     * @param now current cycle
     */
    virtual void
    onDemandAccess(Addr block_addr, const FetchAccess &access, Cycle now)
    {}

    /** Branch-misprediction redirect: squash speculative work. */
    virtual void onRedirect(Cycle now) {}

    /** Wire the VM subsystem (nullptr: flat physical addressing). */
    void setMmu(Mmu *m) { mmu_ = m; }

    StatSet stats;

  protected:
    /** What a candidate's cached translation allows this cycle. */
    enum class TrResolve
    {
        Ready,   ///< issue with @c state.paddr
        Waiting, ///< page walk in progress; retry later
        Dropped, ///< discard the candidate (Drop policy)
    };

    /**
     * Translation probe for a candidate virtual block address,
     * applying the configured prefetch-translation policy. Without an
     * MMU the candidate is Ready at its own address.
     */
    PfTranslation
    translateForPrefetch(Addr vaddr, Cycle now)
    {
        if (mmu_ == nullptr) {
            PfTranslation res;
            res.paddr = vaddr;
            res.readyAt = now;
            return res;
        }
        return mmu_->prefetchTranslate(vaddr, now);
    }

    /**
     * Resolve a candidate's cached translation: probe at most once,
     * then poll the MMU until the backing walk (if any) completes.
     * Polling (rather than comparing against a cached completion
     * cycle) is what makes bounded walker bandwidth work: a queued
     * prefetch walk's completion slides when demand walks overtake
     * it, so only the MMU knows when the candidate is really ready.
     */
    TrResolve
    resolveTranslation(PfTranslationState &state, Addr vaddr, Cycle now)
    {
        if (!state.translated) {
            PfTranslation tr = translateForPrefetch(vaddr, now);
            if (tr.status == PfTranslation::Status::Dropped)
                return TrResolve::Dropped;
            state.translated = true;
            state.paddr = tr.paddr;
            state.readyAt = tr.readyAt;
            state.vpn = tr.vpn;
            state.walkId = tr.walkId;
        }
        if (state.walkId != 0) {
            if (mmu_ != nullptr &&
                mmu_->walkPending(state.vpn, state.walkId)) {
                return TrResolve::Waiting;
            }
            state.walkId = 0; // walk completed: latch the resolution
        }
        return TrResolve::Ready;
    }

    /**
     * Earliest cycle a translated candidate can act, for
     * nextEventCycle(): now + 1 when its walk is done (or it never
     * had one), the completion cycle while the walk is active, and
     * kNever while the walk is still queued for a walker — the
     * MMU's own walker-completion events cover the start, so the
     * machine is guaranteed to tick before the state can change.
     */
    Cycle
    translationWakeCycle(const PfTranslationState &state, Cycle now) const
    {
        if (state.walkId == 0 || mmu_ == nullptr)
            return now + 1;
        Cycle ready = mmu_->walkReadyCycle(state.vpn, state.walkId);
        if (ready == 0)
            return now + 1; // walk done: candidate acts next cycle
        if (ready == kNever)
            return kNever; // queued: wake on the MMU's walker events
        return ready <= now + 1 ? now + 1 : ready;
    }

    /**
     * Is this translated candidate still waiting on an in-flight
     * walk? Used by chargeIdleCycles() to bulk-apply head-of-line
     * TLB-wait counters across a quiescent window (the caller
     * guarantees no walk completes inside the window).
     */
    bool
    translationWaiting(const PfTranslationState &state) const
    {
        return state.walkId != 0 && mmu_ != nullptr &&
            mmu_->walkPending(state.vpn, state.walkId);
    }

    /**
     * Untimed page-table peek for filter probes that compare a virtual
     * candidate against physically-tagged structures (L1 tags, MSHRs).
     */
    Addr
    translateFunctional(Addr vaddr) const
    {
        return mmu_ == nullptr ? vaddr : mmu_->translateFunctional(vaddr);
    }

    Mmu *mmu_ = nullptr;
};

/**
 * A prefetcher whose candidates wait in one bounded queue (a Piq) and
 * drain in order onto the idle L2 bus: translate, skip a block the
 * L1-I already holds, issue into the prefetch buffer. Subclasses only
 * decide what to enqueue. The head blocks the queue while its page
 * walk is pending or the hierarchy has no resource for it.
 *
 * Counters: <prefix>.tlb_dropped, .tlb_wait_stalls, .already_cached,
 * .issue_stalls, .issued, .redundant.
 */
class QueuedPrefetcher : public Prefetcher
{
  public:
    void
    tick(Cycle now) override
    {
        while (!queue_.empty()) {
            PiqEntry &c = queue_.front();
            switch (resolveTranslation(c.tr, c.blockAddr, now)) {
              case TrResolve::Dropped:
                queue_.popFront();
                stTlbDropped.inc();
                continue;
              case TrResolve::Waiting:
                stTlbWaitStalls.inc();
                return; // head-of-line wait for the page walk
              case TrResolve::Ready:
                break;
            }
            if (mem.tagProbe(c.tr.paddr)) {
                queue_.popFront();
                stAlreadyCached.inc();
                continue;
            }
            auto result = mem.issuePrefetch(c.tr.paddr, now,
                                            FillDest::PrefetchBuffer);
            if (result == MemHierarchy::PfIssue::NoResource) {
                stIssueStalls.inc();
                return;
            }
            queue_.popFront();
            if (result == MemHierarchy::PfIssue::Issued)
                stIssued.inc();
            else
                stRedundant.inc();
        }
    }

    /** The head acts next cycle unless it waits on a page walk. */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        return queue_.empty() ? kNever
                              : translationWakeCycle(queue_.front().tr, now);
    }

    void
    chargeIdleCycles(Cycle now, Cycle cycles) override
    {
        if (!queue_.empty() && translationWaiting(queue_.front().tr))
            stTlbWaitStalls.inc(cycles);
    }

  protected:
    QueuedPrefetcher(MemHierarchy &mem_ref, const std::string &prefix,
                     std::size_t queue_entries)
        : mem(mem_ref), queue_(checkedCapacity(prefix, queue_entries)),
          stTlbDropped(stats.registerCounter(prefix + ".tlb_dropped")),
          stTlbWaitStalls(
              stats.registerCounter(prefix + ".tlb_wait_stalls")),
          stAlreadyCached(
              stats.registerCounter(prefix + ".already_cached")),
          stIssueStalls(stats.registerCounter(prefix + ".issue_stalls")),
          stIssued(stats.registerCounter(prefix + ".issued")),
          stRedundant(stats.registerCounter(prefix + ".redundant"))
    {}

    enum class Enqueued
    {
        Duplicate,       ///< already queued: nothing changed
        Added,           ///< appended
        DisplacedOldest, ///< appended after dropping the full queue's head
    };

    /** Append @p block_addr unless it is queued; a full queue drops
     *  its oldest candidate to make room. */
    Enqueued
    enqueue(Addr block_addr)
    {
        if (queue_.contains(block_addr))
            return Enqueued::Duplicate;
        bool displaced = queue_.full();
        if (displaced)
            queue_.popFront();
        queue_.push(block_addr);
        return displaced ? Enqueued::DisplacedOldest : Enqueued::Added;
    }

    MemHierarchy &mem;

  private:
    static std::size_t
    checkedCapacity(const std::string &prefix, std::size_t entries)
    {
        fatal_if(entries == 0, "%s candidate queue needs at least one entry",
                 prefix.c_str());
        return entries;
    }

    Piq queue_;
    StatSet::Counter stTlbDropped;
    StatSet::Counter stTlbWaitStalls;
    StatSet::Counter stAlreadyCached;
    StatSet::Counter stIssueStalls;
    StatSet::Counter stIssued;
    StatSet::Counter stRedundant;
};

/** A "true" L1-I miss: nothing anywhere had the block. */
inline bool
isTrueMiss(const FetchAccess &a)
{
    return !a.hitL1 && !a.hitPrefetchBuffer && !a.hitStreamBuffer &&
        !a.mergedInflight && !a.retry;
}

} // namespace fdip

#endif // FDIP_PREFETCH_PREFETCHER_HH
