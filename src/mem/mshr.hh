/**
 * @file mshr.hh
 * Miss status holding registers: track outstanding fills so demand
 * misses can merge with in-flight prefetches (partial latency hiding)
 * and duplicate requests are suppressed. find() scans the file, as
 * the MSHRs' associative match does; a PresenceCounts filter only cuts
 * a miss short.
 */

#ifndef FDIP_MEM_MSHR_HH
#define FDIP_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "common/presence_counts.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

/** Where a completed fill should be delivered. */
enum class FillDest : std::uint8_t
{
    DemandL1,        ///< straight into the L1-I
    PrefetchBuffer,  ///< into the fully-associative prefetch buffer
    StreamBuffer,    ///< into a stream-buffer slot
};

struct MshrEntry
{
    bool valid = false;
    Addr blockAddr = invalidAddr;
    /** Fill completion and kind are fixed at allocation: the file's
     *  counts and earliest fill are kept from them. Callers holding an
     *  entry may retarget only @c dest, @c fillL2 and @c streamId. */
    Cycle readyAt = neverCycle;
    bool isPrefetch = false;
    bool fillL2 = false;   ///< the fill also installs into the L2
    FillDest dest = FillDest::DemandL1;
    std::uint32_t streamId = 0;
};

class MshrFile
{
  public:
    explicit MshrFile(unsigned entries = 16);

    MshrEntry *find(Addr block_addr);
    const MshrEntry *find(Addr block_addr) const;

    /** Allocate an entry; nullptr when the file is full. */
    MshrEntry *allocate(Addr block_addr, Cycle ready_at, bool is_prefetch,
                        FillDest dest);

    void free(MshrEntry &entry);

    bool full() const { return inUse_ == capacity(); }
    unsigned inUse() const { return inUse_; }
    unsigned prefetchesInFlight() const { return prefetches_; }
    unsigned capacity() const
    {
        return static_cast<unsigned>(entries.size());
    }

    /**
     * Collect entries whose fill has arrived (readyAt <= now). The
     * caller dispatches and then frees them.
     */
    std::vector<MshrEntry *> ready(Cycle now);

    /** Earliest in-flight fill completion; kNever when idle. */
    Cycle nextReadyCycle() const { return earliest_; }

    void clear();

    StatSet stats;

  private:
    StatSet::Counter stAllocations =
        stats.registerCounter("mshr.allocations");
    StatSet::Counter stAllocFailures =
        stats.registerCounter("mshr.alloc_failures");

    Cycle scanEarliest() const;

    std::vector<MshrEntry> entries;
    unsigned inUse_ = 0;
    unsigned prefetches_ = 0;
    Cycle earliest_ = kNever;
    PresenceCounts present;
};

} // namespace fdip

#endif // FDIP_MEM_MSHR_HH
