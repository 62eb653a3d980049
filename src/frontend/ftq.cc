#include "frontend/ftq.hh"

#include "common/logging.hh"
#include "obs/tracer.hh"

namespace fdip
{

Ftq::Ftq(std::size_t capacity, unsigned block_bytes)
    : q(capacity), blockBytes(block_bytes), occupancy(capacity)
{
    fatal_if(!isPowerOf2(block_bytes), "cache block size must be 2^n");
}

void
Ftq::push(const FetchBlock &blk)
{
    panic_if(full(), "push to full FTQ");
    FtqEntry e;
    e.blk = blk;
    Addr first = alignDown(blk.startPc, blockBytes);
    Addr last = alignDown(blk.endPc() - instBytes, blockBytes);
    e.numBlocks = static_cast<unsigned>((last - first) / blockBytes) + 1;
    if (tracer != nullptr)
        e.pushedAt = tracer->now();
    q.push(e);
    stPushedBlocks.inc();
    stPushedInsts.inc(blk.numInsts);
}

void
Ftq::popHead()
{
    if (tracer != nullptr) {
        const FtqEntry &e = q.front();
        tracer->complete("ftq_entry", kTidFrontend, e.pushedAt,
                         tracer->now(), "pc", e.blk.startPc, "outcome",
                         "fetched");
    }
    q.pop();
    ++headSeq_;
    stPoppedBlocks.inc();
}

void
Ftq::flush()
{
    if (tracer != nullptr) {
        for (std::size_t i = 0; i < q.size(); ++i) {
            const FtqEntry &e = q.at(i);
            tracer->complete("ftq_entry", kTidFrontend, e.pushedAt,
                             tracer->now(), "pc", e.blk.startPc, "outcome",
                             "squashed");
        }
    }
    stFlushes.inc();
    stFlushedBlocks.inc(q.size());
    headSeq_ += q.size();
    q.clear();
}

void
Ftq::sampleOccupancy(std::uint64_t cycles)
{
    occupancy.sample(q.size(), cycles);
}

} // namespace fdip
