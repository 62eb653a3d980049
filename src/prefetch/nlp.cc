#include "prefetch/nlp.hh"

#include "common/logging.hh"

namespace fdip
{

NlpPrefetcher::NlpPrefetcher(MemHierarchy &mem_ref, const Config &config)
    : QueuedPrefetcher(mem_ref, "nlp", kQueueEntries), cfg(config)
{
    fatal_if(cfg.degree == 0, "NLP degree must be nonzero");
}

void
NlpPrefetcher::onDemandAccess(Addr block_addr, const FetchAccess &access,
                              Cycle now)
{
    // Trigger on a true miss or on first use of a prefetched block
    // (the "tag" of tagged next-line prefetching).
    bool trigger = isTrueMiss(access) || access.hitPrefetchBuffer;
    if (!trigger)
        return;
    stTriggers.inc();
    unsigned bb = mem.l1i().config().blockBytes;
    for (unsigned d = 1; d <= cfg.degree; ++d)
        enqueue(block_addr + Addr(d) * bb);
}

} // namespace fdip
