/**
 * @file nlp.hh
 * Tagged next-line prefetching (Smith): on a demand miss, or on the
 * first use of a block that arrived by prefetch, request the next
 * sequential block(s) into the prefetch buffer.
 */

#ifndef FDIP_PREFETCH_NLP_HH
#define FDIP_PREFETCH_NLP_HH

#include <deque>

#include "prefetch/prefetcher.hh"

namespace fdip
{

class NlpPrefetcher : public Prefetcher
{
  public:
    struct Config
    {
        /** Sequential blocks requested per trigger. */
        unsigned degree = 1;
        /** Pending-candidate queue size. */
        std::size_t queueEntries = 8;
    };

    NlpPrefetcher(MemHierarchy &mem, const Config &config);

    std::string name() const override { return "nlp"; }
    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void chargeIdleCycles(Cycle now, Cycle cycles) override;
    void onDemandAccess(Addr block_addr, const FetchAccess &access,
                        Cycle now) override;

  private:
    struct Cand
    {
        Addr vaddr = invalidAddr;
        /** Issue-time translation state (VM runs only). */
        PfTranslationState tr;
    };

    StatSet::Counter stTriggers = stats.registerCounter("nlp.triggers");
    StatSet::Counter stTlbDropped = stats.registerCounter("nlp.tlb_dropped");
    StatSet::Counter stTlbWaitStalls =
        stats.registerCounter("nlp.tlb_wait_stalls");
    StatSet::Counter stAlreadyCached =
        stats.registerCounter("nlp.already_cached");
    StatSet::Counter stIssueStalls =
        stats.registerCounter("nlp.issue_stalls");
    StatSet::Counter stIssued = stats.registerCounter("nlp.issued");
    StatSet::Counter stRedundant = stats.registerCounter("nlp.redundant");

    MemHierarchy &mem;
    Config cfg;
    std::deque<Cand> pending;
};

} // namespace fdip

#endif // FDIP_PREFETCH_NLP_HH
