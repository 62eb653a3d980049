/**
 * @file oracle.hh
 * Oracle instruction prefetcher: an upper bound on any front-end-
 * directed scheme. It reads the *correct-path* future directly from
 * the trace window and prefetches the next N instruction blocks ahead
 * of the verified front-end position. It still pays real bus
 * occupancy, MSHR limits, and fill latency — only its addresses are
 * perfect.
 */

#ifndef FDIP_PREFETCH_ORACLE_HH
#define FDIP_PREFETCH_ORACLE_HH

#include <vector>

#include "bpu/bpu.hh"
#include "common/recent_filter.hh"
#include "prefetch/prefetcher.hh"
#include "trace/executor.hh"

namespace fdip
{

class OraclePrefetcher : public Prefetcher
{
  public:
    /** Candidates examined per cycle. */
    static constexpr unsigned kScanWidth = 4;
    /** Issue attempts per cycle. */
    static constexpr unsigned kIssueWidth = 2;
    /** Recently requested blocks the scan skips. */
    static constexpr unsigned kRecentFilterEntries = 32;

    struct Config
    {
        /** Lookahead window in instructions. */
        unsigned lookaheadInsts = 256;
    };

    OraclePrefetcher(TraceWindow &trace, const Bpu &bpu,
                     MemHierarchy &mem, const Config &config);

    std::string name() const override { return "oracle"; }
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;

  private:
    StatSet::Counter stIssueStalls =
        stats.registerCounter("oracle.issue_stalls");
    StatSet::Counter stIssued = stats.registerCounter("oracle.issued");
    StatSet::Counter stCandidates =
        stats.registerCounter("oracle.candidates");

    TraceWindow &trace;
    const Bpu &bpu;
    MemHierarchy &mem;
    Config cfg;
    /** Next trace position to scan for candidate blocks. */
    InstSeqNum scanSeq = 0;
    RecentFilter recentlyRequested;
    std::vector<Addr> pending;
};

} // namespace fdip

#endif // FDIP_PREFETCH_ORACLE_HH
