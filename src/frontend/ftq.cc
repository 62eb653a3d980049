#include "frontend/ftq.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "obs/tracer.hh"

namespace fdip
{

Ftq::Ftq(std::size_t capacity, unsigned block_bytes)
    : q(capacity), blockShift(floorLog2(block_bytes)), occupancy(capacity)
{
    fatal_if(!isPowerOf2(block_bytes), "cache block size must be 2^n");
}

void
Ftq::push(const FetchBlock &blk)
{
    panic_if(full(), "push to full FTQ");
    // The slot may be a recycled one: write every field.
    FtqEntry &e = q.append();
    e.blk = blk;
    Addr first = blk.startPc >> blockShift;
    Addr last = (blk.endPc() - instBytes) >> blockShift;
    e.numBlocks = static_cast<unsigned>(last - first) + 1;
    e.fetchedInsts = 0;
    e.pushedAt = tracer != nullptr ? tracer->now() : 0;
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
