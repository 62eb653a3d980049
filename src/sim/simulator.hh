/**
 * @file simulator.hh
 * Wires the whole system together — workload, BPU, FTQ, fetch engine,
 * memory hierarchy, prefetchers, backend — and runs the cycle loop.
 */

#ifndef FDIP_SIM_SIMULATOR_HH
#define FDIP_SIM_SIMULATOR_HH

#include <memory>
#include <vector>

#include "common/histogram.hh"
#include "sim/config.hh"
#include "trace/executor.hh"
#include "trace/synth_builder.hh"

namespace fdip
{

class TlbPrefetcher;
class Telemetry;
class Tracer;
class IntervalSampler;

/**
 * How a sweep point ended. Ok results come from Simulator::run();
 * Failed/TimedOut are sentinels the Runner substitutes when a point's
 * simulation threw SimError/SimTimeout — their numeric fields
 * hold a quiet NaN (Failed) or the tagged NaN timedOutSentinel()
 * (TimedOut), so tables render FAIL / TIMEOUT cells and anything
 * *derived* from them (ratios, means) degrades to NaN/FAIL instead
 * of silently poisoning aggregates.
 */
enum class RunStatus
{
    Ok = 0,
    Failed = 1,
    TimedOut = 2,
};

/** Everything a benchmark needs from one simulation run. */
struct SimResults
{
    std::string workload;
    std::string scheme;

    RunStatus status = RunStatus::Ok;
    /** what() of the point's error (empty when status is Ok). */
    std::string failReason;

    Cycle cycles = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;

    /** L1-I demand misses (not covered by any buffer) per kilo-inst. */
    double mpki = 0.0;
    double l2BusUtil = 0.0;
    double memBusUtil = 0.0;
    double prefetchAccuracy = 0.0;
    double prefetchCoverage = 0.0;

    /**
     * Prefetch lifecycle attribution, as fractions of issued
     * prefetches: timely (consumed from a buffer after the fill),
     * late (demand merged with the in-flight prefetch), pollution
     * (a prefetch L2 fill displaced a line a demand later missed on;
     * can exceed the other classes' complement since one prefetch can
     * pollute and still be useful).
     */
    double prefetchTimely = 0.0;
    double prefetchLate = 0.0;
    double prefetchPollution = 0.0;

    double condMispredictPerKilo = 0.0;

    /**
     * Host-side throughput gauges (whole run, warmup included). Not
     * part of the simulated results: they vary run to run and exist so
     * perf regressions in the simulator itself are visible in every
     * bench run.
     */
    double hostSeconds = 0.0;
    double hostKcyclesPerSec = 0.0;

    /**
     * Idle-cycle-skipping gauges (whole run, warmup included).
     * Deterministic for a given config and build, but zero under
     * SimConfig::forceTick / FDIP_NO_SKIP, so — like the host gauges —
     * they are excluded from serializeResults() parity comparisons.
     */
    Cycle skippedCycles = 0;
    Cycle totalCycles = 0;

    Histogram ftqOccupancy{0};

    /** Fill-to-first-use distance of timely prefetches (log2 buckets:
     *  bucket 0 = same cycle, bucket k = [2^(k-1), 2^k) cycles). */
    Histogram pfTimeliness{0};

    /** Raw measurement-window counter deltas from every component. */
    StatSet stats;

    /**
     * Per-core rows on a multi-core machine (docs/MULTICORE.md):
     * one entry per core, each measured over that core's own
     * [warmup-crossing, finish] window with core-private stats only
     * (plus its mem.l2bus_* and mem.membus_* bus-share counters).
     * Every core-private stat sums across these rows to the aggregate
     * row's value. EMPTY on a single-core machine, so single-core
     * serializeResults() output is byte-identical to the
     * pre-multicore format; per-core rows never nest further.
     */
    std::vector<SimResults> perCore;
};

/** ipc_b / ipc_a - 1: fractional speedup of b over a. */
double speedupOver(const SimResults &baseline, const SimResults &other);

/**
 * Build a result row from its measurement-window record: the stat
 * deltas (which carry sim.cycles and sim.committed) and the FTQ
 * occupancy and prefetch-timeliness histograms. Every scalar metric is
 * derived here and nowhere else, so a row parsed back from its
 * serialization (parseResults) recomputes exactly what the simulator
 * reported. Host gauges and perCore are left empty.
 */
SimResults deriveResults(std::string workload, std::string scheme,
                         StatSet delta, Histogram occ, Histogram pft);

class Simulator
{
  public:
    /**
     * One core's private component graph: instruction source, BPU,
     * FTQ, MMU/ITLB, fetch engine, backend, prefetchers, and the
     * private side of the memory hierarchy (L1-I/MSHRs/buffers) bound
     * to the machine's SharedMem. Plus the measurement bookkeeping
     * run() keeps per core: warmup/finish crossing snapshots.
     */
    struct Core
    {
        unsigned id = 0;
        /** This core's workload label (cfg.workload, or the
         *  coreWorkloads entry on a heterogeneous mix). */
        std::string workload;

        /** Synthetic workloads only; null when replaying a trace. */
        std::unique_ptr<Program> prog;
        std::unique_ptr<TraceSource> exec;
        std::unique_ptr<TraceWindow> trace;
        std::unique_ptr<Bpu> bpu;
        std::unique_ptr<Ftq> ftq;
        std::unique_ptr<Mmu> mmu;
        std::unique_ptr<TlbPrefetcher> tlbPf;
        std::unique_ptr<MemHierarchy> mem;
        std::unique_ptr<Backend> backend;
        std::unique_ptr<FetchEngine> fetch;
        std::vector<std::unique_ptr<Prefetcher>> prefetchers;

        /** Measurement-window bookkeeping (maintained by run()).
         *  A finished core keeps ticking — and contending for the
         *  shared L2/buses — until every core has finished; only its
         *  own counting stops at the crossing. */
        bool warmed = false;
        bool finished = false;
        Cycle warmupCycle = 0;
        Cycle endCycle = 0;
        std::uint64_t warmupInsts = 0;
        std::uint64_t endInsts = 0;
        StatSet atWarmup;
        StatSet atEnd;
        Histogram occAtEnd{0};
        Histogram pftAtEnd{0};
    };

    explicit Simulator(const SimConfig &config);
    ~Simulator();

    /** Run warmup + measurement; returns measurement-window results. */
    SimResults run();

    std::size_t numCores() const { return cores_.size(); }

    /** Core @p i's component graph; fatal on out-of-range. */
    Core &core(std::size_t i = 0);
    const Core &core(std::size_t i = 0) const;

    /** Access for white-box integration tests, routed through
     *  core(i) (default: core 0, so single-core tests read exactly
     *  the machine they built). */
    Bpu &bpu(std::size_t i = 0) { return *core(i).bpu; }
    Ftq &ftq(std::size_t i = 0) { return *core(i).ftq; }
    MemHierarchy &mem(std::size_t i = 0) { return *core(i).mem; }
    Backend &backend(std::size_t i = 0) { return *core(i).backend; }
    Mmu &mmu(std::size_t i = 0) { return *core(i).mmu; }
    /** The shared L2/bus/DRAM every core's hierarchy sits on. */
    SharedMem &sharedMem() { return *shared_; }
    /** nullptr unless vm.tlbPrefetch is enabled. */
    TlbPrefetcher *tlbPrefetcher(std::size_t i = 0)
    {
        return core(i).tlbPf.get();
    }
    FetchEngine &fetchEngine(std::size_t i = 0) { return *core(i).fetch; }
    std::size_t numPrefetchers() const
    {
        return core().prefetchers.size();
    }
    Prefetcher &prefetcher(std::size_t i)
    {
        return *core().prefetchers[i];
    }
    Cycle now() const { return curCycle; }

    /** True when this simulator may skip idle cycles (config knob and
     *  FDIP_NO_SKIP both clear). */
    bool skippingEnabled() const { return !forceTick; }

    /**
     * Advance one cycle (exposed for fine-grained tests). When idle
     * skipping is enabled and the whole machine is quiescent, one
     * step() jumps curCycle to the next event, charging the skipped
     * cycles exactly as per-cycle ticking would.
     */
    void step();

  private:
    /**
     * The event-driven fast path: when every core's components are
     * quiescent and no FTQ can accept a prediction, jump curCycle to
     * just before the minimum next-event cycle across the whole
     * machine, bulk-charging the per-cycle counters and the occupancy
     * histograms for the skipped range. The machine is quiescent only
     * when EVERY core is.
     */
    void skipIdleCycles();
    /** Build core @p id's component graph onto the shared memory. */
    void buildCore(Core &c, unsigned id);
    /** One core's slice of step(): ticks, redirect, predict, push. */
    void stepCore(Core &c);
    /** Core-private stats only (no shared L2/bus/DRAM, no sim.*). */
    void collectCore(const Core &c, StatSet &out) const;
    void collectAll(StatSet &out) const;
    /** Snapshot all stats and emit one interval sample row. */
    void recordSample();

    SimConfig cfg;
    /** The L2/buses/DRAM all cores contend for. */
    std::unique_ptr<SharedMem> shared_;
    /** The per-core component graphs (unique_ptr: stable addresses
     *  for the cross-component references inside each graph). */
    std::vector<std::unique_ptr<Core>> cores_;

    /** Telemetry (null when observability is fully off); tracer_ and
     *  sampler_ cache the telemetry's pillars for the hot path.
     *  Tracer lanes attach to core 0 only (see docs/MULTICORE.md). */
    std::unique_ptr<Telemetry> telem_;
    Tracer *tracer_ = nullptr;
    IntervalSampler *sampler_ = nullptr;

    Cycle curCycle = 0;
    /** Tick every cycle (config forceTick or FDIP_NO_SKIP=1). */
    bool forceTick = false;
    Cycle numSkipped = 0;
};

} // namespace fdip

#endif // FDIP_SIM_SIMULATOR_HH
