#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>
#include <limits>

#include "common/env.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "obs/telemetry.hh"
#include "trace/champsim.hh"
#include "trace/profile.hh"
#include "vm/tlb_prefetcher.hh"

namespace fdip
{

namespace
{

/** Bucket-wise sum of per-core histograms (same geometry per config). */
Histogram
sumHistograms(const std::vector<const Histogram *> &hists)
{
    std::size_t buckets = 1;
    for (const Histogram *h : hists)
        buckets = std::max(buckets, h->numBuckets());
    Histogram out(buckets - 1);
    for (const Histogram *h : hists) {
        for (std::size_t v = 0; v < h->numBuckets(); ++v) {
            if (h->bucket(v) > 0)
                out.sample(v, h->bucket(v));
        }
    }
    return out;
}

} // namespace

double
speedupOver(const SimResults &baseline, const SimResults &other)
{
    // Degenerate baselines (wedged or zero-length runs) yield NaN so
    // sweep harnesses can tolerate and report them instead of dying.
    if (baseline.ipc <= 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return other.ipc / baseline.ipc - 1.0;
}

Simulator::Simulator(const SimConfig &config)
    : cfg(config)
{
    cfg.validate();

    shared_ = std::make_unique<SharedMem>(cfg.mem);
    cores_.reserve(cfg.numCores);
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        auto c = std::make_unique<Core>();
        buildCore(*c, i);
        cores_.push_back(std::move(c));
    }

    forceTick = cfg.forceTick || envFlag("FDIP_NO_SKIP");

    ObsConfig obs = cfg.obs;
    obs.applyEnv();
    if (obs.enabled()) {
        telem_ = std::make_unique<Telemetry>(obs, cfg.workload,
                                             schemeName(cfg.scheme));
        tracer_ = telem_->tracer();
        sampler_ = telem_->sampler();
        if (tracer_ != nullptr) {
            // Trace lanes are single-machine shaped; attach them to
            // core 0 so multi-core traces stay readable.
            Core &c0 = *cores_.front();
            c0.ftq->setTracer(tracer_);
            c0.mmu->setTracer(tracer_);
            c0.mem->setTracer(tracer_);
        }
    }
}

void
Simulator::buildCore(Core &c, unsigned id)
{
    c.id = id;
    c.workload = cfg.coreWorkloads.empty() ? cfg.workload
        : cfg.coreWorkloads[id];
    std::string trace_path = cfg.coreWorkloads.empty()
        ? cfg.tracePath : traceLabelPath(c.workload);

    // Fast-forward happens before any component sees the stream, so
    // skip-N positions the region of interest identically for trace
    // and synthetic sources. A synthetic core copies a start the
    // process fast-forwarded once for its profile and skip.
    Addr trace_code_base = 0;
    Addr trace_code_end = 0;
    if (!trace_path.empty()) {
        auto src = openTraceWorkload(trace_path);
        trace_code_base = src->codeBase();
        trace_code_end = src->codeEnd();
        for (std::uint64_t i = 0; i < cfg.skipInsts; ++i)
            src->next();
        c.exec = std::move(src);
    } else {
        WorkloadProfile profile =
            cfg.customProfile && cfg.coreWorkloads.empty()
            ? *cfg.customProfile
            : findProfile(c.workload);
        // Homogeneous multi-core mixes still run distinct instruction
        // streams: each core's seed is offset by its id (identity for
        // core 0, so a single-core machine is unchanged).
        profile.seed += cfg.seedOffset + id;
        c.prog = sharedProgram(profile);
        c.exec = std::make_unique<SyntheticExecutor>(
            *sharedStart(profile, cfg.skipInsts));
    }
    c.trace = std::make_unique<TraceWindow>(*c.exec);

    c.bpu = std::make_unique<Bpu>(*c.trace, cfg.bpu);

    c.mmu = c.prog != nullptr
        ? std::make_unique<Mmu>(cfg.vm, *c.prog)
        : std::make_unique<Mmu>(cfg.vm, trace_code_base, trace_code_end);
    c.mem = std::make_unique<MemHierarchy>(cfg.mem, *shared_, id,
                                           cfg.numCores);
    c.ftq = std::make_unique<Ftq>(cfg.ftqEntries,
                                  cfg.mem.l1i.blockBytes);
    c.backend = std::make_unique<Backend>(cfg.backend);
    c.fetch = std::make_unique<FetchEngine>(*c.ftq, *c.mem, *c.backend,
                                            cfg.fetch);
    c.fetch->setMmu(c.mmu.get());

    if (cfg.vm.enable && cfg.vm.tlbPrefetch) {
        c.tlbPf = std::make_unique<TlbPrefetcher>(*c.ftq, *c.mmu,
                                                  TlbPrefetcher::Config{});
    }

    auto fdp = [&](CpfMode mode) {
        return std::make_unique<FdpPrefetcher>(*c.ftq, *c.mem, mode,
                                               cfg.fdp);
    };
    std::unique_ptr<Prefetcher> pf;
    switch (cfg.scheme) {
      case PrefetchScheme::None:
        break;
      case PrefetchScheme::Nlp:
        pf = std::make_unique<NlpPrefetcher>(*c.mem, cfg.nlp);
        break;
      case PrefetchScheme::StreamBuffer:
        pf = std::make_unique<StreamBufferPrefetcher>(*c.mem, cfg.sb);
        break;
      case PrefetchScheme::FdpNone:
        pf = fdp(CpfMode::None);
        break;
      case PrefetchScheme::FdpEnqueue:
        pf = fdp(CpfMode::Enqueue);
        break;
      case PrefetchScheme::FdpEnqueueAggressive:
        pf = fdp(CpfMode::EnqueueAggressive);
        break;
      case PrefetchScheme::FdpRemove:
        pf = fdp(CpfMode::Remove);
        break;
      case PrefetchScheme::FdpIdeal:
        pf = fdp(CpfMode::Ideal);
        break;
      case PrefetchScheme::Oracle:
        pf = std::make_unique<OraclePrefetcher>(*c.trace, *c.bpu, *c.mem,
                                                cfg.oracle);
        break;
      case PrefetchScheme::Mana:
        pf = std::make_unique<ManaPrefetcher>(*c.mem, cfg.mana);
        break;
      case PrefetchScheme::ShadowBtb:
        // Pre-fills whichever target buffer the front-end runs on
        // (FTB for the block-based default, BTB/partitioned otherwise);
        // trace replay has no program to decode, so the decoder idles.
        pf = std::make_unique<ShadowBtbPrefetcher>(
            c.bpu->ftb(), c.bpu->btb(), *c.mem, c.prog.get(), cfg.shadow);
        break;
    }
    if (pf != nullptr) {
        pf->setMmu(c.mmu.get());
        c.fetch->addPrefetcher(pf.get());
        c.prefetchers.push_back(std::move(pf));
    }
}

Simulator::~Simulator() = default;

Simulator::Core &
Simulator::core(std::size_t i)
{
    fatal_if(i >= cores_.size(),
             "core index %zu out of range (numCores %zu)", i,
             cores_.size());
    return *cores_[i];
}

const Simulator::Core &
Simulator::core(std::size_t i) const
{
    fatal_if(i >= cores_.size(),
             "core index %zu out of range (numCores %zu)", i,
             cores_.size());
    return *cores_[i];
}

void
Simulator::skipIdleCycles()
{
    // Every BPU delivers a prediction every cycle its FTQ has room, so
    // the frontier only freezes once ALL FTQs are full: one busy core
    // pins the whole machine to per-cycle ticking.
    for (const auto &c : cores_) {
        if (!c->ftq->full())
            return;
    }

    // Gather the minimum next-event cycle, cheapest components first;
    // anything due next cycle ends the attempt immediately.
    Cycle now = curCycle;
    Cycle next = cores_.front()->fetch->nextEventCycle(now);
    auto consider = [&next, now](Cycle ev) {
        if (ev < next)
            next = ev;
        return next > now + 1;
    };
    if (next <= now + 1)
        return;
    for (const auto &cp : cores_) {
        Core &c = *cp;
        if (c.id != 0 && !consider(c.fetch->nextEventCycle(now)))
            return;
        if (!consider(c.backend->nextEventCycle(now)) ||
            !consider(c.bpu->nextEventCycle(now)) ||
            !consider(c.ftq->nextEventCycle(now)) ||
            !consider(c.mmu->nextEventCycle(now)) ||
            !consider(c.mem->nextEventCycle(now)) ||
            (c.tlbPf != nullptr &&
             !consider(c.tlbPf->nextEventCycle(now)))) {
            return;
        }
        for (auto &pf : c.prefetchers) {
            if (!consider(pf->nextEventCycle(now)))
                return;
        }
    }
    // Sample boundaries cap a jump so interval rows land at exactly
    // the same cycles as with per-cycle ticking; splitting one jump in
    // two is bit-identical by the chargeIdleCycles contract.
    if (sampler_ != nullptr && !consider(sampler_->nextBoundary()))
        return;
    // kNever across the board is a wedged machine: fall back to
    // per-cycle ticking so the cycle-cap diagnostics fire exactly as
    // they would without skipping.
    if (next == kNever)
        return;

    // Jump to just before the event; the normal step executes it.
    Cycle idle = next - now - 1;
    for (const auto &cp : cores_) {
        Core &c = *cp;
        c.backend->chargeIdleCycles(now, idle);
        c.fetch->chargeIdleCycles(now, idle);
        for (auto &pf : c.prefetchers)
            pf->chargeIdleCycles(now, idle);
        c.ftq->sampleOccupancy(idle);
    }
    curCycle += idle;
    numSkipped += idle;
}

void
Simulator::stepCore(Core &c)
{
    c.mem->tick(curCycle);
    c.mmu->tick(curCycle);

    if (c.fetch->redirectPending() &&
        curCycle >= c.fetch->redirectTime()) {
        if (tracer_ != nullptr && c.id == 0)
            tracer_->instant("redirect", kTidFrontend);
        c.bpu->redirect();
        c.ftq->flush();
        c.fetch->squash();
        c.backend->squashWrongPath();
        for (auto &pf : c.prefetchers)
            pf->onRedirect(curCycle);
    }

    c.backend->tick(curCycle);
    c.fetch->tick(curCycle);
    // Translation lookahead runs ahead of the block prefetchers so a
    // warmed page is visible to this cycle's prefetch probes.
    if (c.tlbPf != nullptr)
        c.tlbPf->tick(curCycle);
    for (auto &pf : c.prefetchers)
        pf->tick(curCycle);

    if (!c.ftq->full())
        c.ftq->push(c.bpu->predictBlock());

    c.ftq->sampleOccupancy();
}

void
Simulator::step()
{
    if (!forceTick)
        skipIdleCycles();
    ++curCycle;
    if (tracer_ != nullptr)
        tracer_->setNow(curCycle);

    // Round-robin bus/L2 arbitration: the core serviced first rotates
    // every cycle, so no core gets a standing priority on the shared
    // buses. A single-core machine always starts at core 0, keeping
    // its step order exactly the classic sequence.
    std::size_t n = cores_.size();
    std::size_t i = n == 1 ? 0 : static_cast<std::size_t>(curCycle % n);
    for (std::size_t k = 0; k < n; ++k) {
        stepCore(*cores_[i]);
        if (++i == n)
            i = 0;
    }

    if (sampler_ != nullptr && sampler_->due(curCycle))
        recordSample();
    for (const auto &c : cores_)
        c->trace->retireUpTo(c->backend->committed());
}

void
Simulator::recordSample()
{
    StatSet cum;
    collectAll(cum);
    Core &c0 = *cores_.front();
    telem_->recordSample(curCycle, cum, c0.ftq->occupancyHist().count(),
                         c0.ftq->occupancyHist().weightedTotal(),
                         c0.mmu->walksQueued());
}

void
Simulator::collectCore(const Core &c, StatSet &out) const
{
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

void
Simulator::collectAll(StatSet &out) const
{
    std::uint64_t committed = 0;
    for (const auto &c : cores_) {
        collectCore(*c, out);
        committed += c->backend->committed();
    }
    shared_->collectStats(out);
    out.set("sim.cycles", static_cast<double>(curCycle));
    out.set("sim.committed", static_cast<double>(committed));
}

SimResults
deriveResults(std::string workload, std::string scheme, StatSet delta,
              Histogram occ, Histogram pft)
{
    auto cycles_delta = static_cast<Cycle>(delta.value("sim.cycles"));
    auto insts_delta =
        static_cast<std::uint64_t>(delta.value("sim.committed"));

    SimResults r;
    r.workload = std::move(workload);
    r.scheme = std::move(scheme);
    r.cycles = cycles_delta;
    r.instructions = insts_delta;
    r.ipc = cycles_delta == 0 ? 0.0
        : static_cast<double>(insts_delta) /
          static_cast<double>(cycles_delta);

    double kinsts = static_cast<double>(insts_delta) / 1000.0;
    double true_misses = delta.value("mem.demand_misses") -
        delta.value("mem.inflight_merges");
    r.mpki = kinsts > 0.0 ? true_misses / kinsts : 0.0;

    // Per-core rows carry no shared-bus counters; their utilization is
    // this core's share of the bus (the mem.*bus_busy_cycles tagged
    // counters) over the core's own window.
    double l2bus_busy = delta.has("l2bus.bus.busy_cycles")
        ? delta.value("l2bus.bus.busy_cycles")
        : delta.value("mem.l2bus_busy_cycles");
    double membus_busy = delta.has("membus.bus.busy_cycles")
        ? delta.value("membus.bus.busy_cycles")
        : delta.value("mem.membus_busy_cycles");
    r.l2BusUtil = cycles_delta == 0 ? 0.0
        : l2bus_busy / static_cast<double>(cycles_delta);
    r.memBusUtil = cycles_delta == 0 ? 0.0
        : membus_busy / static_cast<double>(cycles_delta);

    double issued = delta.value("mem.prefetches_issued");
    double useful = delta.value("pfbuf.consumed") +
        delta.value("sb.hits") +
        delta.value("mem.inflight_prefetch_merges");
    r.prefetchAccuracy = issued > 0.0 ? useful / issued : 0.0;

    double would_miss = useful + true_misses;
    r.prefetchCoverage = would_miss > 0.0 ? useful / would_miss : 0.0;

    if (issued > 0.0) {
        r.prefetchTimely = delta.value("pfattr.timely") / issued;
        r.prefetchLate = delta.value("pfattr.late") / issued;
        r.prefetchPollution = delta.value("pfattr.pollution") / issued;
    }
    r.pfTimeliness = std::move(pft);

    r.condMispredictPerKilo = kinsts > 0.0
        ? delta.value("bpu.diverge_cond") / kinsts : 0.0;

    r.ftqOccupancy = std::move(occ);
    r.stats = std::move(delta);
    return r;
}

SimResults
Simulator::run()
{
    auto host_start = std::chrono::steady_clock::now();
    double wall_limit_s =
        static_cast<double>(envUint("FDIP_SIM_TIMEOUT_S", 0));

    std::uint64_t total_insts = cfg.warmupInsts + cfg.measureInsts;
    Cycle cycle_cap = static_cast<Cycle>(
        cfg.cycleLimitPerInst * static_cast<double>(total_insts)) + 10000;

    // Watchdogs, checked once per step: the simulated-cycle ceiling
    // and wedge cap every time (cheap integer compares), the wall
    // deadline every 4096 steps (a clock read is not free).
    std::uint64_t num_steps = 0;
    auto watchdog = [&](const char *phase) {
        if (cfg.maxCycles != 0 && curCycle > cfg.maxCycles) {
            sim_timeout("simulated-cycle ceiling exceeded during %s: "
                        "cycle %llu > maxCycles %llu (%s/%s)",
                        phase,
                        static_cast<unsigned long long>(curCycle),
                        static_cast<unsigned long long>(cfg.maxCycles),
                        cfg.workload.c_str(), schemeName(cfg.scheme));
        }
        if (curCycle > cycle_cap) {
            sim_timeout("simulation wedged during %s (%s/%s)",
                        phase, cfg.workload.c_str(),
                        schemeName(cfg.scheme));
        }
        if (wall_limit_s > 0.0 && (++num_steps & 0xFFF) == 0) {
            std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - host_start;
            if (elapsed.count() > wall_limit_s) {
                sim_timeout("wall deadline of %.0f s exceeded during "
                            "%s (%s/%s)",
                            wall_limit_s, phase, cfg.workload.c_str(),
                            schemeName(cfg.scheme));
            }
        }
    };

    // Shared-component snapshots bracket the machine-wide measurement
    // window: [last core's warmup crossing, last core's finish].
    std::size_t cores_unwarmed = cores_.size();
    std::size_t cores_running = cores_.size();
    Cycle last_warmup_cycle = 0;
    Cycle last_end_cycle = 0;
    StatSet shared_at_warmup;
    StatSet shared_at_end;

    // Per-core warmup/finish crossings are checked after every step —
    // and once up front so a zero-length warmup snapshots at cycle 0
    // exactly as the classic two-loop structure did.
    auto check_crossings = [&] {
        for (const auto &cp : cores_) {
            Core &c = *cp;
            if (!c.warmed &&
                c.backend->committed() >= cfg.warmupInsts) {
                c.warmed = true;
                c.warmupCycle = curCycle;
                c.warmupInsts = c.backend->committed();
                collectCore(c, c.atWarmup);
                c.ftq->resetOccupancy();
                // The timeliness histogram restarts with the
                // measurement window, matching the counter deltas it
                // sits beside.
                c.mem->prefetchAttribution().resetHist();
                if (--cores_unwarmed == 0) {
                    shared_->collectStats(shared_at_warmup);
                    last_warmup_cycle = curCycle;
                    if (telem_ != nullptr)
                        telem_->rebaselineOccupancy();
                }
            }
            if (!c.finished &&
                c.backend->committed() >= total_insts) {
                c.finished = true;
                c.endCycle = curCycle;
                c.endInsts = c.backend->committed();
                collectCore(c, c.atEnd);
                c.occAtEnd = c.ftq->occupancyHist();
                c.pftAtEnd =
                    c.mem->prefetchAttribution().timelinessHist();
                if (--cores_running == 0) {
                    shared_->collectStats(shared_at_end);
                    last_end_cycle = curCycle;
                }
            }
        }
    };

    check_crossings();
    while (cores_running > 0) {
        const char *phase =
            cores_unwarmed > 0 ? "warmup" : "measurement";
        step();
        check_crossings();
        watchdog(phase);
    }

    // Aggregate row: every core's own-window delta summed, plus the
    // shared components' delta over the machine window. Per-core stats
    // therefore sum exactly to the aggregate values.
    StatSet agg = StatSet::subtract(shared_at_end, shared_at_warmup);
    std::uint64_t agg_insts = 0;
    std::vector<const Histogram *> occs;
    std::vector<const Histogram *> pfts;
    for (const auto &cp : cores_) {
        Core &c = *cp;
        agg.merge(StatSet::subtract(c.atEnd, c.atWarmup));
        agg_insts += c.endInsts - c.warmupInsts;
        occs.push_back(&c.occAtEnd);
        pfts.push_back(&c.pftAtEnd);
    }
    Cycle agg_cycles = last_end_cycle - last_warmup_cycle;
    agg.set("sim.cycles", static_cast<double>(agg_cycles));
    agg.set("sim.committed", static_cast<double>(agg_insts));

    SimResults r = deriveResults(cfg.workload, schemeName(cfg.scheme),
                                 std::move(agg), sumHistograms(occs),
                                 sumHistograms(pfts));

    // Per-core rows only on a multi-core machine: a single-core
    // result stays byte-identical to the pre-multicore format.
    if (cores_.size() > 1) {
        for (const auto &cp : cores_) {
            Core &c = *cp;
            StatSet d = StatSet::subtract(c.atEnd, c.atWarmup);
            Cycle cyc = c.endCycle - c.warmupCycle;
            std::uint64_t insts = c.endInsts - c.warmupInsts;
            d.set("sim.cycles", static_cast<double>(cyc));
            d.set("sim.committed", static_cast<double>(insts));
            r.perCore.push_back(deriveResults(c.workload,
                                              schemeName(cfg.scheme),
                                              std::move(d), c.occAtEnd,
                                              c.pftAtEnd));
        }
    }

    std::chrono::duration<double> host_elapsed =
        std::chrono::steady_clock::now() - host_start;
    r.hostSeconds = host_elapsed.count();
    if (r.hostSeconds > 0.0) {
        r.hostKcyclesPerSec = static_cast<double>(curCycle) /
            r.hostSeconds / 1000.0;
    }
    r.skippedCycles = numSkipped;
    r.totalCycles = curCycle;
    if (telem_ != nullptr)
        telem_->flush();
    return r;
}

} // namespace fdip
