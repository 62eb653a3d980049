/**
 * @file nlp.hh
 * Tagged next-line prefetching (Smith): on a demand miss, or on the
 * first use of a block that arrived by prefetch, request the next
 * sequential block(s) into the prefetch buffer.
 */

#ifndef FDIP_PREFETCH_NLP_HH
#define FDIP_PREFETCH_NLP_HH

#include "prefetch/prefetcher.hh"

namespace fdip
{

class NlpPrefetcher : public QueuedPrefetcher
{
  public:
    /** Pending-candidate queue size. */
    static constexpr std::size_t kQueueEntries = 8;

    struct Config
    {
        /** Sequential blocks requested per trigger. */
        unsigned degree = 1;
    };

    NlpPrefetcher(MemHierarchy &mem, const Config &config);

    std::string name() const override { return "nlp"; }
    void onDemandAccess(Addr block_addr, const FetchAccess &access,
                        Cycle now) override;

  private:
    StatSet::Counter stTriggers = stats.registerCounter("nlp.triggers");

    Config cfg;
};

} // namespace fdip

#endif // FDIP_PREFETCH_NLP_HH
