/**
 * @file prefetch_buffer.hh
 * The fully-associative prefetch buffer of the MICRO-32 design:
 * prefetched blocks land here instead of the L1-I so that useless
 * prefetches cannot pollute the cache. A demand hit promotes the block
 * into the L1-I and frees the entry. FIFO replacement.
 */

#ifndef FDIP_MEM_PREFETCH_BUFFER_HH
#define FDIP_MEM_PREFETCH_BUFFER_HH

#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

class PrefetchBuffer
{
  public:
    explicit PrefetchBuffer(unsigned entries = 32);

    bool probe(Addr block_addr) const;

    /** Demand hit: remove the entry (block promotes to L1). */
    bool consume(Addr block_addr);

    /** Prefetch fill; FIFO-evicts when full (a wasted prefetch).
     *  Returns the evicted block, if any, for lifecycle attribution. */
    std::optional<Addr> insert(Addr block_addr);

    void clear();

    unsigned size() const { return static_cast<unsigned>(buf.size()); }
    unsigned capacity() const { return cap; }

    StatSet stats;

  private:
    StatSet::Counter stConsumed = stats.registerCounter("pfbuf.consumed");
    StatSet::Counter stDuplicateFills =
        stats.registerCounter("pfbuf.duplicate_fills");
    StatSet::Counter stUnusedEvictions =
        stats.registerCounter("pfbuf.unused_evictions");
    StatSet::Counter stFills = stats.registerCounter("pfbuf.fills");
    StatSet::Counter stFlushedEntries =
        stats.registerCounter("pfbuf.flushed_entries");

    struct Slot
    {
        Addr addr;
    };

    /** Oldest first. At most a few dozen slots, so a contiguous
     *  array beats a deque even with front erasure. */
    std::vector<Slot> buf;
    unsigned cap;
};

} // namespace fdip

#endif // FDIP_MEM_PREFETCH_BUFFER_HH
