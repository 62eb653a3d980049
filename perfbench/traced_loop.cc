#include "traced_loop.hh"

#include "common/error.hh"
#include "mem/shared_mem.hh"
#include "vm/tlb_prefetcher.hh"

namespace fdip
{

const std::array<const char *, kNumSpans> kSpanNames = {
    "sim.skip_check_ns",
    "sim.skip_charge_ns",
    "mem.tick_ns",
    "vm.mmu_tick_ns",
    "frontend.redirect_ns",
    "core.backend_tick_ns",
    "frontend.fetch_tick_ns",
    "vm.tlbpf_tick_ns",
    "prefetch.tick_ns",
    "bpu.predict_ns",
    "frontend.ftq_push_ns",
    "trace.retire_ns",
};

TracedLoop::TracedLoop(Simulator &sim)
    : skipping_(sim.skippingEnabled())
{
    for (std::size_t i = 0; i < sim.numCores(); ++i)
        cores_.push_back(&sim.core(i));
}

double
TracedLoop::spanNs(Span s) const
{
    return std::chrono::duration<double, std::nano>(ticks_[s]).count();
}

double
TracedLoop::loopSeconds() const
{
    Clock::duration total{};
    for (Clock::duration d : ticks_)
        total += d;
    return std::chrono::duration<double>(total).count();
}

void
TracedLoop::runUntilCommitted(std::uint64_t insts, Cycle cycle_cap)
{
    auto finished = [this, insts] {
        for (const Simulator::Core *c : cores_) {
            if (c->backend->committed() < insts)
                return false;
        }
        return true;
    };
    while (!finished()) {
        step();
        if (now_ > cycle_cap)
            sim_timeout("traced loop wedged at cycle %llu",
                        static_cast<unsigned long long>(now_));
    }
}

Cycle
TracedLoop::idleCycles() const
{
    for (const Simulator::Core *c : cores_) {
        if (!c->ftq->full())
            return 0;
    }
    Cycle now = now_;
    Cycle next = cores_.front()->fetch->nextEventCycle(now);
    auto consider = [&next, now](Cycle ev) {
        if (ev < next)
            next = ev;
        return next > now + 1;
    };
    if (next <= now + 1)
        return 0;
    for (const Simulator::Core *c : cores_) {
        if (c->id != 0 && !consider(c->fetch->nextEventCycle(now)))
            return 0;
        if (!consider(c->backend->nextEventCycle(now)) ||
            !consider(c->bpu->nextEventCycle(now)) ||
            !consider(c->ftq->nextEventCycle(now)) ||
            !consider(c->mmu->nextEventCycle(now)) ||
            !consider(c->mem->nextEventCycle(now)) ||
            (c->tlbPf != nullptr &&
             !consider(c->tlbPf->nextEventCycle(now)))) {
            return 0;
        }
        for (const auto &pf : c->prefetchers) {
            if (!consider(pf->nextEventCycle(now)))
                return 0;
        }
    }
    return next == kNever ? 0 : next - now - 1;
}

void
TracedLoop::stepCore(Simulator::Core &c)
{
    c.mem->tick(now_);
    mark(SpanMemTick);
    c.mmu->tick(now_);
    mark(SpanMmuTick);

    if (c.fetch->redirectPending() && now_ >= c.fetch->redirectTime()) {
        c.bpu->redirect();
        c.ftq->flush();
        c.fetch->squash();
        c.backend->squashWrongPath();
        for (auto &pf : c.prefetchers)
            pf->onRedirect(now_);
        mark(SpanRedirect);
    }

    c.backend->tick(now_);
    mark(SpanBackendTick);
    c.fetch->tick(now_);
    mark(SpanFetchTick);
    if (c.tlbPf != nullptr) {
        c.tlbPf->tick(now_);
        mark(SpanTlbPfTick);
    }
    for (auto &pf : c.prefetchers) {
        pf->tick(now_);
        mark(SpanPfTick);
    }

    if (!c.ftq->full()) {
        FetchBlock blk = c.bpu->predictBlock();
        mark(SpanPredict);
        c.ftq->push(blk);
    }
    c.ftq->sampleOccupancy();
    mark(SpanFtqPush);
}

void
TracedLoop::step()
{
    last_ = Clock::now();
    if (skipping_) {
        Cycle idle = idleCycles();
        mark(SpanSkipCheck);
        if (idle > 0) {
            for (Simulator::Core *c : cores_) {
                c->backend->chargeIdleCycles(now_, idle);
                c->fetch->chargeIdleCycles(now_, idle);
                for (auto &pf : c->prefetchers)
                    pf->chargeIdleCycles(now_, idle);
                c->ftq->sampleOccupancy(idle);
            }
            now_ += idle;
            skipped_ += idle;
            mark(SpanSkipCharge);
        }
    }
    ++now_;

    // Same round-robin service order as Simulator::step().
    std::size_t n = cores_.size();
    std::size_t first = n == 1 ? 0 : static_cast<std::size_t>(now_ % n);
    for (std::size_t k = 0; k < n; ++k)
        stepCore(*cores_[(first + k) % n]);

    for (Simulator::Core *c : cores_) {
        c->trace->retireUpTo(c->backend->committed());
        mark(SpanRetire);
    }
}

StatSet
collectMachineStats(Simulator &sim)
{
    StatSet out;
    for (std::size_t i = 0; i < sim.numCores(); ++i) {
        Simulator::Core &c = sim.core(i);
        c.mem->collectStats(out, /*include_shared=*/false);
        if (c.mmu->enabled())
            c.mmu->collectStats(out);
        if (c.tlbPf != nullptr)
            out.merge(c.tlbPf->stats);
        out.merge(c.bpu->stats);
        if (c.bpu->ftb())
            out.merge(c.bpu->ftb()->stats);
        if (c.bpu->btb())
            out.merge(c.bpu->btb()->stats);
        out.merge(c.ftq->stats);
        out.merge(c.fetch->stats);
        out.merge(c.backend->stats);
        for (const auto &pf : c.prefetchers)
            out.merge(pf->stats);
    }
    sim.sharedMem().collectStats(out);
    return out;
}

} // namespace fdip
