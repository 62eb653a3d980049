/**
 * @file piq.hh
 * Prefetch Instruction Queue: FIFO of candidate cache-block addresses
 * awaiting prefetch issue, with the probe state of the remove-variant
 * of cache probe filtering. It is the one candidate queue of the
 * prefetch layer: FDP's PIQ and the queue QueuedPrefetcher drains for
 * NLP and MANA.
 */

#ifndef FDIP_PREFETCH_PIQ_HH
#define FDIP_PREFETCH_PIQ_HH

#include "common/circular_queue.hh"
#include "common/types.hh"
#include "vm/mmu.hh"

namespace fdip
{

struct PiqEntry
{
    /** Candidate virtual block address from the FTQ scan. */
    Addr blockAddr = invalidAddr;
    /** Issue-time translation state (VM runs only). */
    PfTranslationState tr;
};

class Piq
{
  public:
    explicit Piq(std::size_t capacity = 16);

    bool full() const { return q.full(); }
    bool empty() const { return q.empty(); }
    std::size_t size() const { return q.size(); }
    std::size_t capacity() const { return q.capacity(); }

    void push(Addr block_addr);
    PiqEntry &at(std::size_t i) { return q.at(i); }
    const PiqEntry &at(std::size_t i) const { return q.at(i); }
    PiqEntry &front() { return q.front(); }
    const PiqEntry &front() const { return q.front(); }
    void popFront();

    /** Remove entry @p i (probe said the block is already cached). */
    void removeAt(std::size_t i);

    /**
     * Remove-CPF probe state. Entries [0, probedPrefix()) were verified
     * to miss in the L1; the rest await a probe. The verified entries
     * always form a prefix: probes go in queue order, push appends an
     * unprobed entry, and a probe hit removes the entry at the prefix
     * boundary.
     */
    std::size_t probedPrefix() const { return probed_; }

    /** The entry at probedPrefix() missed its probe: it joins the
     *  prefix. */
    void extendProbedPrefix();

    bool contains(Addr block_addr) const;

    void flush();

  private:
    CircularQueue<PiqEntry> q;
    std::size_t probed_ = 0;
};

} // namespace fdip

#endif // FDIP_PREFETCH_PIQ_HH
