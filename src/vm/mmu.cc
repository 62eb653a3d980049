#include "vm/mmu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/tracer.hh"
#include "trace/program.hh"

namespace fdip
{

namespace
{

/** Seed of the scrambled page-frame permutation. */
constexpr std::uint64_t kPageMapSeed = 0xf0d1;

} // namespace

const char *
tlbPolicyName(TlbPrefetchPolicy policy)
{
    switch (policy) {
      case TlbPrefetchPolicy::Drop: return "drop";
      case TlbPrefetchPolicy::Wait: return "wait";
      case TlbPrefetchPolicy::Fill: return "fill";
    }
    return "?";
}

Mmu::Mmu(const VmConfig &config, Addr code_base, Addr code_end)
    : cfg(config),
      pt(code_base, code_end, cfg.pageBytes, cfg.mapping, kPageMapSeed),
      itlb_("itlb", {cfg.itlbEntries, cfg.itlbAssoc})
{
    fatal_if(cfg.enable && cfg.walkLatency == 0,
             "page-walk latency must be nonzero");
    if (cfg.l2TlbEntries > 0) {
        fatal_if(cfg.l2TlbLatency == 0,
                 "L2 TLB hit latency must be nonzero");
        l2_ = std::make_unique<Tlb>(
            "l2tlb", Tlb::Config{cfg.l2TlbEntries, cfg.l2TlbAssoc});
    }
    if (cfg.numWalkers > 0)
        walkerFreeAt.assign(cfg.numWalkers, 0);
}

Mmu::Mmu(const VmConfig &config, const Program &prog)
    : Mmu(config, prog.base, prog.codeEnd())
{}

void
Mmu::applyFills(const Walk &walk, Addr vpn)
{
    if (walk.fillItlb)
        itlb_.insert(vpn);
    if (walk.fillL2 && l2_ != nullptr)
        l2_->insert(vpn);
}

void
Mmu::tick(Cycle now)
{
    if (!cfg.enable || walks.empty())
        return;
    // Complete due walks and refills first: the walkers they held are
    // free for queued walks in the same cycle.
    for (auto it = walks.begin(); it != walks.end();) {
        if (it->second.started && it->second.readyAt <= now) {
            if (tracer != nullptr) {
                const Walk &w = it->second;
                // Queue wait = time between the request and the walk
                // actually occupying a walker (0 for L2 refills).
                Cycle wait = w.isWalk
                    ? (w.readyAt - cfg.walkLatency) - w.queuedAt : 0;
                tracer->complete(w.isWalk ? "walk" : "l2_refill", kTidVm,
                                 w.queuedAt, now, "queue_wait", wait,
                                 "kind", w.demand ? "demand" : "prefetch");
            }
            applyFills(it->second, it->first);
            it = walks.erase(it);
        } else {
            ++it;
        }
    }
    // Start queued walks on freed walkers, demands first (the queue
    // is kept in service order).
    while (!walkQueue.empty()) {
        auto free_it = std::find_if(
            walkerFreeAt.begin(), walkerFreeAt.end(),
            [now](Cycle c) { return c <= now; });
        if (free_it == walkerFreeAt.end())
            break;
        Addr vpn = walkQueue.front();
        walkQueue.pop_front();
        Walk &w = walks.at(vpn);
        Cycle ready = now + cfg.walkLatency;
        panic_if(w.demand && w.readyAt != ready,
                 "queued demand walk started at the wrong cycle");
        w.started = true;
        w.readyAt = ready;
        *free_it = ready;
        stWalkQueueCycles.inc(now - w.queuedAt);
        if (w.demand)
            stDemandQueueCycles.inc(now - w.queuedAt);
    }
}

Cycle
Mmu::nextEventCycle(Cycle now) const
{
    // Queued walks start on a walker completion, which is itself a
    // started walk's event, so only started entries are scanned.
    Cycle next = kNever;
    for (const auto &[vpn, walk] : walks) {
        if (walk.started && walk.readyAt < next)
            next = walk.readyAt;
    }
    return next <= now ? now + 1 : next;
}

std::size_t
Mmu::demandQueuePosition() const
{
    std::size_t pos = 0;
    while (pos < walkQueue.size() && walks.at(walkQueue[pos]).demand)
        ++pos;
    return pos;
}

Cycle
Mmu::boundedWalkStart(Cycle now, std::size_t demands_ahead) const
{
    std::vector<Cycle> free = walkerFreeAt;
    for (std::size_t k = 0;; ++k) {
        auto it = std::min_element(free.begin(), free.end());
        Cycle start = *it < now ? now : *it;
        if (k == demands_ahead)
            return start;
        *it = start + cfg.walkLatency;
    }
}

Mmu::Walk &
Mmu::requestWalk(Addr vpn, Cycle now, bool is_demand, bool fill_itlb,
                 bool fill_l2, bool &created)
{
    auto it = walks.find(vpn);
    if (it != walks.end()) {
        // A walk (or refill) for this page is already in flight: join
        // it. A demand joining a non-filling prefetch walk upgrades it
        // to fill, and a demand joining a *queued* prefetch walk also
        // upgrades its queue priority — it moves ahead of every other
        // queued prefetch walk, making its completion exact again.
        Walk &w = it->second;
        w.fillItlb |= fill_itlb;
        w.fillL2 |= fill_l2;
        if (is_demand && !w.demand) {
            w.demand = true;
            if (!w.started) {
                auto q = std::find(walkQueue.begin(), walkQueue.end(),
                                   vpn);
                panic_if(q == walkQueue.end(),
                         "un-started walk missing from the queue");
                walkQueue.erase(q);
                std::size_t pos = demandQueuePosition();
                w.readyAt = boundedWalkStart(now, pos) +
                    cfg.walkLatency;
                walkQueue.insert(
                    walkQueue.begin() + static_cast<long>(pos), vpn);
                stWalkUpgrades.inc();
            }
        }
        stWalkMerges.inc();
        created = false;
        return w;
    }

    Walk w;
    w.id = nextWalkId++;
    w.queuedAt = now;
    w.isWalk = true;
    w.demand = is_demand;
    w.fillItlb = fill_itlb;
    w.fillL2 = fill_l2;

    bool start_now = true;
    if (!walkerFreeAt.empty()) {
        auto free_it = std::find_if(
            walkerFreeAt.begin(), walkerFreeAt.end(),
            [now](Cycle c) { return c <= now; });
        // Invariant: a free walker implies an empty queue (tick()
        // drains the queue onto freed walkers before components run).
        start_now = free_it != walkerFreeAt.end() && walkQueue.empty();
        if (start_now)
            *free_it = now + cfg.walkLatency;
    }
    if (start_now) {
        w.started = true;
        w.readyAt = now + cfg.walkLatency;
    } else {
        w.started = false;
        // A queued demand's completion is exact: demands are served
        // FIFO and prefetch walks never overtake them. A queued
        // prefetch walk's completion is unknown (later demands may
        // still jump ahead): readyAt stays kNever until it starts.
        if (is_demand) {
            w.readyAt = boundedWalkStart(now, demandQueuePosition()) +
                cfg.walkLatency;
        }
        stWalksQueued.inc();
    }
    auto [ins, ok] = walks.emplace(vpn, w);
    if (!w.started) {
        std::size_t pos = is_demand ? demandQueuePosition()
                                    : walkQueue.size();
        walkQueue.insert(walkQueue.begin() + static_cast<long>(pos),
                         vpn);
    }
    stWalks.inc();
    created = true;
    return ins->second;
}

Mmu::Walk &
Mmu::requestL2Refill(Addr vpn, Cycle now, bool fill_itlb, bool &created)
{
    auto it = walks.find(vpn);
    if (it != walks.end()) {
        it->second.fillItlb |= fill_itlb;
        stWalkMerges.inc();
        created = false;
        return it->second;
    }
    Walk w;
    w.id = nextWalkId++;
    w.queuedAt = now;
    w.started = true;
    w.isWalk = false;
    w.fillItlb = fill_itlb;
    w.fillL2 = false; // already resident in the L2 TLB
    w.readyAt = now + cfg.l2TlbLatency;
    auto [ins, ok] = walks.emplace(vpn, w);
    created = true;
    return ins->second;
}

TlbAccess
Mmu::demandTranslate(Addr vaddr, Cycle now)
{
    TlbAccess res;
    res.paddr = vaddr;
    res.readyAt = now;
    if (!cfg.enable)
        return res;

    res.paddr = pt.translate(vaddr);
    Addr vpn = pt.vpn(vaddr);
    if (itlb_.access(vpn))
        return res;

    res.hit = false;
    bool created = false;
    // Join an in-flight walk/refill before probing the L2 TLB: a page
    // with a walk in flight cannot be L2-resident (fills install only
    // at completion, which erases the walk).
    if (walks.count(vpn) != 0) {
        Walk &w = requestWalk(vpn, now, /*is_demand=*/true,
                              /*fill_itlb=*/true,
                              /*fill_l2=*/l2_ != nullptr, created);
        res.readyAt = w.readyAt;
        return res;
    }
    if (l2_ != nullptr && l2_->access(vpn)) {
        Walk &w = requestL2Refill(vpn, now, /*fill_itlb=*/true, created);
        if (created)
            stL2HitFills.inc();
        res.readyAt = w.readyAt;
        return res;
    }
    Walk &w = requestWalk(vpn, now, /*is_demand=*/true,
                          /*fill_itlb=*/true,
                          /*fill_l2=*/l2_ != nullptr, created);
    if (created)
        stDemandWalks.inc();
    res.readyAt = w.readyAt;
    return res;
}

PfTranslation
Mmu::prefetchTranslate(Addr vaddr, Cycle now)
{
    PfTranslation res;
    res.paddr = vaddr;
    res.readyAt = now;
    if (!cfg.enable)
        return res;

    res.paddr = pt.translate(vaddr);
    Addr vpn = pt.vpn(vaddr);
    res.vpn = vpn;
    if (itlb_.lookup(vpn)) {
        stPfTlbHits.inc();
        return res;
    }

    stPfTlbMisses.inc();
    bool fill = cfg.prefetchPolicy == TlbPrefetchPolicy::Fill;
    bool created = false;
    auto it = walks.find(vpn);

    if (cfg.prefetchPolicy == TlbPrefetchPolicy::Drop) {
        // Drop refuses to wait on any page walk — including one
        // already in flight for this page. It does ride the short L2
        // refill path: an L2-TLB hit is a TLB access, not a walk.
        if (it != walks.end() && !it->second.isWalk) {
            Walk &w = requestL2Refill(vpn, now, /*fill_itlb=*/false,
                                      created);
            res.status = PfTranslation::Status::Walking;
            res.readyAt = w.readyAt;
            res.walkId = w.id;
            return res;
        }
        if (it == walks.end() && l2_ != nullptr && l2_->lookup(vpn)) {
            stPfL2Hits.inc();
            Walk &w = requestL2Refill(vpn, now, /*fill_itlb=*/false,
                                      created);
            res.status = PfTranslation::Status::Walking;
            res.readyAt = w.readyAt;
            res.walkId = w.id;
            return res;
        }
        res.status = PfTranslation::Status::Dropped;
        stPfDropped.inc();
        return res;
    }

    // Wait / Fill: join an in-flight walk or refill before probing
    // the L2 TLB (a page with a walk in flight is not L2-resident).
    if (it != walks.end()) {
        Walk &w = requestWalk(vpn, now, /*is_demand=*/false,
                              /*fill_itlb=*/fill,
                              /*fill_l2=*/fill && l2_ != nullptr,
                              created);
        res.status = PfTranslation::Status::Walking;
        res.readyAt = w.readyAt;
        res.walkId = w.id;
        return res;
    }

    // L2-TLB hit: a short ITLB refill instead of a full walk. The
    // ITLB is only polluted under the Fill policy.
    if (l2_ != nullptr && l2_->lookup(vpn)) {
        stPfL2Hits.inc();
        Walk &w = requestL2Refill(vpn, now, /*fill_itlb=*/fill, created);
        res.status = PfTranslation::Status::Walking;
        res.readyAt = w.readyAt;
        res.walkId = w.id;
        return res;
    }

    Walk &w = requestWalk(vpn, now, /*is_demand=*/false,
                          /*fill_itlb=*/fill,
                          /*fill_l2=*/fill && l2_ != nullptr, created);
    res.status = PfTranslation::Status::Walking;
    res.readyAt = w.readyAt;
    res.walkId = w.id;
    if (created) {
        stPfWalks.inc();
        if (fill)
            stPfFills.inc();
    }
    return res;
}

PfTranslation
Mmu::tlbPrefetchTranslate(Addr vaddr, Cycle now)
{
    PfTranslation res;
    res.paddr = vaddr;
    res.readyAt = now;
    if (!cfg.enable)
        return res;

    res.paddr = pt.translate(vaddr);
    Addr vpn = pt.vpn(vaddr);
    res.vpn = vpn;
    if (itlb_.lookup(vpn))
        return res;

    bool created = false;
    if (walks.count(vpn) == 0 && l2_ != nullptr && l2_->lookup(vpn)) {
        Walk &w = requestL2Refill(vpn, now, /*fill_itlb=*/true, created);
        res.status = PfTranslation::Status::Walking;
        res.readyAt = w.readyAt;
        res.walkId = w.id;
        return res;
    }
    Walk &w = requestWalk(vpn, now, /*is_demand=*/false,
                          /*fill_itlb=*/true,
                          /*fill_l2=*/l2_ != nullptr, created);
    res.status = PfTranslation::Status::Walking;
    res.readyAt = w.readyAt;
    res.walkId = w.id;
    if (created)
        stTlbPfWalks.inc();
    return res;
}

bool
Mmu::walkPending(Addr vpn, std::uint64_t walk_id) const
{
    auto it = walks.find(vpn);
    return it != walks.end() && it->second.id == walk_id;
}

Cycle
Mmu::walkReadyCycle(Addr vpn, std::uint64_t walk_id) const
{
    auto it = walks.find(vpn);
    if (it == walks.end() || it->second.id != walk_id)
        return 0;
    return it->second.started ? it->second.readyAt : kNever;
}

Addr
Mmu::translateFunctional(Addr vaddr) const
{
    return cfg.enable ? pt.translate(vaddr) : vaddr;
}

bool
Mmu::tlbHolds(Addr vaddr) const
{
    return !cfg.enable || itlb_.lookup(pt.vpn(vaddr));
}

void
Mmu::collectStats(StatSet &out) const
{
    out.merge(stats);
    out.merge(itlb_.stats);
    if (l2_ != nullptr)
        out.merge(l2_->stats);
}

} // namespace fdip
