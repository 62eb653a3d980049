/**
 * @file ftq.hh
 * The Fetch Target Queue: the decoupling buffer between the branch
 * prediction unit and the fetch engine, and the source of prefetch
 * candidates for fetch-directed prefetching. The head entry is the
 * fetch point; deeper entries are the predicted future fetch stream.
 * An FtqCursor walks that lookahead one cache block at a time, so a
 * scanner (FDP, the TLB prefetcher) resumes where it stopped.
 */

#ifndef FDIP_FRONTEND_FTQ_HH
#define FDIP_FRONTEND_FTQ_HH

#include <algorithm>

#include "common/circular_queue.hh"
#include "common/histogram.hh"
#include "common/stats.hh"
#include "bpu/bpu.hh"

namespace fdip
{

class Tracer;

struct FtqEntry
{
    FetchBlock blk;
    /** Cache blocks the fetch block spans (computed once at push). */
    unsigned numBlocks = 0;
    /** Fetch-engine progress: instructions already delivered. */
    unsigned fetchedInsts = 0;
    /** Cycle this entry entered the queue (tracing only). */
    Cycle pushedAt = 0;
};

class Ftq
{
  public:
    Ftq(std::size_t capacity, unsigned block_bytes);

    bool full() const { return q.full(); }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return q.capacity(); }

    void push(const FetchBlock &blk);

    FtqEntry &head() { return q.front(); }
    const FtqEntry &head() const { return q.front(); }
    void popHead();

    FtqEntry &at(std::size_t i) { return q.at(i); }
    const FtqEntry &at(std::size_t i) const { return q.at(i); }

    /** Squash everything (branch misprediction recovery). */
    void flush();

    /**
     * Sequence number of entry 0: entries are numbered in push order,
     * and popHead and flush advance it past the entries they remove.
     * A scan position kept as a sequence number (FtqCursor) stays
     * valid while the queue shifts under it.
     */
    std::uint64_t headSeq() const { return headSeq_; }

    /** Number of cache blocks entry @p i spans. */
    unsigned numCacheBlocks(std::size_t i) const { return q.at(i).numBlocks; }

    /** Aligned address of cache block @p k of entry @p i. */
    Addr
    cacheBlockAddr(std::size_t i, unsigned k) const
    {
        return ((q.at(i).blk.startPc >> blockShift) + k) << blockShift;
    }

    /** Record the current occupancy (call once per cycle; idle-cycle
     *  skipping passes the number of cycles being charged). */
    void sampleOccupancy(std::uint64_t cycles = 1);

    /**
     * Quiescence protocol: the FTQ is passive — it only changes state
     * when the BPU pushes or the fetch engine pops — so it never
     * schedules an event of its own.
     */
    Cycle nextEventCycle(Cycle now) const { return kNever; }

    const Histogram &occupancyHist() const { return occupancy; }

    /** Drop occupancy samples collected so far (warmup boundary). */
    void resetOccupancy() { occupancy.reset(); }

    /** Emit entry-lifetime spans to @p t (null disables). */
    void setTracer(Tracer *t) { tracer = t; }

    StatSet stats;

  private:
    StatSet::Counter stPushedBlocks =
        stats.registerCounter("ftq.pushed_blocks");
    StatSet::Counter stPushedInsts = stats.registerCounter("ftq.pushed_insts");
    StatSet::Counter stPoppedBlocks =
        stats.registerCounter("ftq.popped_blocks");
    StatSet::Counter stFlushes = stats.registerCounter("ftq.flushes");
    StatSet::Counter stFlushedBlocks =
        stats.registerCounter("ftq.flushed_blocks");

    CircularQueue<FtqEntry> q;
    /** log2 of the cache block size. */
    unsigned blockShift;
    Histogram occupancy;
    std::uint64_t headSeq_ = 0;
    Tracer *tracer = nullptr;
};

/**
 * A scan position over the FTQ's lookahead (the entries past the fetch
 * point): a cache block of an entry, the entry named by sequence number
 * (Ftq::headSeq) so that the position stays put while the queue shifts
 * under it. Every block before it has been scanned and none from it
 * on. Once its entry reaches the fetch point or is flushed, the next
 * block is entry 1's first: every queued block is unscanned again. A
 * default cursor, and one after restart(), starts there too.
 */
class FtqCursor
{
  public:
    /**
     * Visit the unscanned blocks in order, each by its aligned address,
     * moving past each one @p visit returns true for. The scan stops
     * at, and leaves the cursor on, the first block it returns false
     * for.
     */
    template <typename Visit>
    void
    scan(const Ftq &ftq, Visit &&visit)
    {
        if (seq <= ftq.headSeq()) {
            seq = ftq.headSeq() + 1;
            blk = 0;
        }
        for (std::size_t i = seq - ftq.headSeq(); i < ftq.size();
             ++i, ++seq, blk = 0) {
            for (unsigned n = ftq.numCacheBlocks(i); blk < n; ++blk) {
                if (!visit(ftq.cacheBlockAddr(i, blk)))
                    return;
            }
        }
    }

    /** True exactly when no unscanned block remains. */
    bool
    done(const Ftq &ftq) const
    {
        return std::max(seq, ftq.headSeq() + 1) >=
               ftq.headSeq() + ftq.size();
    }

    /** Forget all progress: the next block is entry 1's first. */
    void restart() { seq = 0; }

  private:
    /** Entry number of the next block; at or below headSeq it has
     *  left the lookahead, and the scan restarts at entry 1. */
    std::uint64_t seq = 0;
    unsigned blk = 0;
};

} // namespace fdip

#endif // FDIP_FRONTEND_FTQ_HH
