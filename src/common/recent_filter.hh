/**
 * @file recent_filter.hh
 * Fixed-size FIFO ring of recently seen addresses: the "don't ask
 * twice" filter of the FDP, oracle and TLB prefetchers, the shadow
 * decoder's recently-scanned lines and the stream buffer's miss
 * history. Lookup is a linear scan, as in the small CAM it models;
 * a PresenceCounts filter only cuts a miss short.
 */

#ifndef FDIP_COMMON_RECENT_FILTER_HH
#define FDIP_COMMON_RECENT_FILTER_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/presence_counts.hh"
#include "common/types.hh"

namespace fdip
{

class RecentFilter
{
  public:
    /** Capacity 0 holds nothing: contains() is always false. */
    explicit RecentFilter(std::size_t capacity)
        : ring(capacity, invalidAddr)
    {
        fatal_if(capacity > PresenceCounts::kMaxKeys,
                 "recent filter of %zu entries: at most %zu", capacity,
                 PresenceCounts::kMaxKeys);
        // The empty slots are counted too, so contains(invalidAddr)
        // answers exactly as the scan does.
        for (std::size_t i = 0; i < capacity; ++i)
            present.add(invalidAddr);
    }

    /** Is @p addr among the last `capacity` inserts? invalidAddr
     *  marks an empty slot, so it is never a meaningful query. */
    bool
    contains(Addr addr) const
    {
        return present.mayContain(addr) &&
            std::find(ring.begin(), ring.end(), addr) != ring.end();
    }

    /**
     * Hold @p addr in place of the oldest address, and return that
     * address (invalidAddr while the ring is still filling, and always
     * at capacity 0). Inserting a held address holds it twice.
     */
    Addr
    insert(Addr addr)
    {
        if (ring.empty())
            return invalidAddr;
        Addr evicted = ring[next];
        ring[next] = addr;
        present.remove(evicted);
        present.add(addr);
        next = next + 1 == ring.size() ? 0 : next + 1;
        return evicted;
    }

  private:
    std::vector<Addr> ring;
    std::size_t next = 0;
    PresenceCounts present;
};

} // namespace fdip

#endif // FDIP_COMMON_RECENT_FILTER_HH
