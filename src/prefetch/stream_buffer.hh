/**
 * @file stream_buffer.hh
 * Jouppi-style instruction stream buffers: on an L1-I miss, a buffer is
 * allocated and prefetches the successive cache blocks into its FIFO
 * slots. Demand misses probe the buffers (fully-associative lookup
 * across slots, the Farkas/Palacharla-Kessler improvement); a hit moves
 * the block into the L1 and the buffer streams further ahead. An
 * optional two-miss allocation filter suppresses one-off miss streams.
 */

#ifndef FDIP_PREFETCH_STREAM_BUFFER_HH
#define FDIP_PREFETCH_STREAM_BUFFER_HH

#include <deque>
#include <vector>

#include "common/recent_filter.hh"
#include "prefetch/prefetcher.hh"

namespace fdip
{

class StreamBufferPrefetcher : public Prefetcher,
                               public StreamFillClient,
                               public StreamProbeClient
{
  public:
    /** Blocks each buffer holds or has in flight. */
    static constexpr unsigned kDepth = 4;
    /** Recent true misses the allocation filter remembers. */
    static constexpr unsigned kMissHistoryEntries = 16;

    struct Config
    {
        unsigned numBuffers = 4;
        /** Allocate only on the second of two sequential misses. */
        bool allocationFilter = true;
    };

    StreamBufferPrefetcher(MemHierarchy &mem, const Config &config);

    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void chargeIdleCycles(Cycle now, Cycle cycles) override;
    void onDemandAccess(Addr block_addr, const FetchAccess &access,
                        Cycle now) override;

    // StreamFillClient
    void streamFill(std::uint32_t stream_id, Addr block_addr) override;

    // StreamProbeClient
    bool probeAndConsume(Addr block_addr, Cycle now) override;

  private:
    struct Slot
    {
        /** Virtual block address in the miss stream. */
        Addr vaddr = invalidAddr;
        /** Physical block address fills and demand probes match on. */
        Addr paddr = invalidAddr;
        bool filled = false;
    };

    struct Buffer
    {
        bool active = false;
        std::deque<Slot> slots;
        /** Next sequential virtual block this buffer will request. */
        Addr nextAddr = invalidAddr;
        /** Issue-time translation of @c nextAddr (VM runs only). */
        PfTranslationState tr;
        std::uint64_t lruStamp = 0;
        bool requestInFlight = false;
    };

    StatSet::Counter stReallocations =
        stats.registerCounter("sb.reallocations");
    StatSet::Counter stAllocations = stats.registerCounter("sb.allocations");
    StatSet::Counter stFilteredAllocations =
        stats.registerCounter("sb.filtered_allocations");
    StatSet::Counter stHits = stats.registerCounter("sb.hits");
    StatSet::Counter stSkippedSlots =
        stats.registerCounter("sb.skipped_slots");
    StatSet::Counter stOrphanFills = stats.registerCounter("sb.orphan_fills");
    StatSet::Counter stFills = stats.registerCounter("sb.fills");
    StatSet::Counter stTlbStopped = stats.registerCounter("sb.tlb_stopped");
    StatSet::Counter stTlbWaitCycles =
        stats.registerCounter("sb.tlb_wait_cycles");
    StatSet::Counter stSkippedRedundant =
        stats.registerCounter("sb.skipped_redundant");
    StatSet::Counter stIssued = stats.registerCounter("sb.issued");
    StatSet::Counter stIssueStalls = stats.registerCounter("sb.issue_stalls");

    /** Advance the stream head one block, discarding its translation. */
    void advanceHead(Buffer &b);

    void allocate(Addr miss_addr);

    MemHierarchy &mem;
    Config cfg;
    std::vector<Buffer> buffers;
    /** Recent true misses, repeats included (allocation filter). */
    RecentFilter missHistory;
    std::uint64_t lruClock = 0;
};

} // namespace fdip

#endif // FDIP_PREFETCH_STREAM_BUFFER_HH
