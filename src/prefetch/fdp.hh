/**
 * @file fdp.hh
 * Fetch-Directed Prefetching — the paper's primary contribution.
 *
 * Every cycle the prefetch engine scans FTQ entries past the fetch
 * point, converts them into candidate cache-block addresses, filters
 * them, and enqueues survivors into the PIQ. The scan resumes where
 * the previous cycle's stopped (an FtqCursor, as the TLB prefetcher's
 * does), so each candidate is examined once.
 * The PIQ issues prefetches to the L2 over the (idle) L2 bus; fills
 * land in the fully-associative prefetch buffer probed by demand
 * fetches.
 *
 * Cache Probe Filtering (CPF) variants:
 *  - None:    everything the FTQ predicts is prefetched.
 *  - Enqueue: a candidate enters the PIQ only when an idle L1 tag port
 *             is available this cycle *and* the probe misses.
 *  - Remove:  candidates always enter the PIQ; idle ports are used
 *             opportunistically to probe waiting entries and remove
 *             ones that turn out to be cached.
 *  - Ideal:   unlimited probe bandwidth (filtering upper bound).
 */

#ifndef FDIP_PREFETCH_FDP_HH
#define FDIP_PREFETCH_FDP_HH

#include "common/recent_filter.hh"
#include "frontend/ftq.hh"
#include "prefetch/piq.hh"
#include "prefetch/prefetcher.hh"

namespace fdip
{

enum class CpfMode
{
    None,
    Enqueue,           ///< conservative: no idle port, no enqueue
    EnqueueAggressive, ///< no idle port: enqueue unprobed
    Remove,
    Ideal,
};

class FdpPrefetcher : public Prefetcher
{
  public:
    /** Everything but the CPF mode, which the scheme chooses. */
    struct Config
    {
        std::size_t piqEntries = 16;
        /** Candidate blocks examined per cycle during the FTQ scan. */
        unsigned scanWidth = 4;
        /** Prefetches issued to the L2 per cycle. */
        unsigned issueWidth = 2;
        /** Recently-requested filter size (suppresses re-requests). */
        unsigned recentFilterEntries = 16;
        /**
         * Ablation: fill prefetches straight into the L1-I instead of
         * the prefetch buffer (exposes wrong-path pollution).
         */
        bool fillIntoL1 = false;
    };

    FdpPrefetcher(Ftq &ftq, MemHierarchy &mem, CpfMode mode,
                  const Config &config);

    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void chargeIdleCycles(Cycle now, Cycle cycles) override;
    void onRedirect(Cycle now) override;

    const Piq &piq() const { return piq_; }

  private:
    StatSet::Counter stCpfProbes = stats.registerCounter("fdp.cpf_probes");
    StatSet::Counter stCpfFiltered =
        stats.registerCounter("fdp.cpf_filtered");
    StatSet::Counter stTlbDropped = stats.registerCounter("fdp.tlb_dropped");
    StatSet::Counter stTlbWaitStalls =
        stats.registerCounter("fdp.tlb_wait_stalls");
    StatSet::Counter stIssueStalls =
        stats.registerCounter("fdp.issue_stalls");
    StatSet::Counter stIssued = stats.registerCounter("fdp.issued");
    StatSet::Counter stIssueRedundant =
        stats.registerCounter("fdp.issue_redundant");
    StatSet::Counter stCandidates = stats.registerCounter("fdp.candidates");
    StatSet::Counter stDedupDropped =
        stats.registerCounter("fdp.dedup_dropped");
    StatSet::Counter stEnqueueNoPort =
        stats.registerCounter("fdp.enqueue_no_port");
    StatSet::Counter stRedirects = stats.registerCounter("fdp.redirects");

    void probeWaitingEntries(Cycle now);
    void issuePrefetches(Cycle now);
    void scanFtq(Cycle now);

    Ftq &ftq;
    MemHierarchy &mem;
    CpfMode mode_;
    Config cfg;
    Piq piq_;
    /** Blocks recently enqueued: a candidate found here is dropped. */
    RecentFilter recentlyRequested;
    /** The next candidate: every block before it has been examined. */
    FtqCursor cursor;
};

} // namespace fdip

#endif // FDIP_PREFETCH_FDP_HH
