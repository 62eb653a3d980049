/**
 * @file hierarchy.hh
 * The instruction-side memory hierarchy: multi-ported L1-I tags, the
 * fully-associative prefetch buffer, a unified L2, the L1<->L2 and
 * L2<->memory buses, MSHRs, and DRAM. This is the single point through
 * which the fetch engine and every prefetcher touch memory, so demand
 * priority, bandwidth contention, and in-flight merging live here.
 */

#ifndef FDIP_MEM_HIERARCHY_HH
#define FDIP_MEM_HIERARCHY_HH

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"
#include "mem/prefetch_buffer.hh"
#include "mem/shared_mem.hh"
#include "mem/victim_cache.hh"
#include "obs/attribution.hh"

namespace fdip
{

/** Receives completed stream-buffer fills. */
class StreamFillClient
{
  public:
    virtual ~StreamFillClient() = default;
    virtual void streamFill(std::uint32_t stream_id, Addr block_addr) = 0;
};

/** Lets a stream buffer service demand misses before they go to L2. */
class StreamProbeClient
{
  public:
    virtual ~StreamProbeClient() = default;
    /** Return true (and shift/refill) if the block is held. */
    virtual bool probeAndConsume(Addr block_addr, Cycle now) = 0;
};

struct MemConfig
{
    Cache::Config l1i{.name = "l1i", .sizeBytes = 16 * 1024,
                      .assoc = 2, .blockBytes = 32};
    unsigned l1TagPorts = 2;

    Cache::Config l2{.name = "l2", .sizeBytes = 1024 * 1024,
                     .assoc = 8, .blockBytes = 32};
    Cycle l2HitLatency = 12;

    Cycle dramLatency = 70;
    unsigned l2BusBytesPerCycle = 8;
    unsigned memBusBytesPerCycle = 4;

    unsigned mshrs = 16;
    /** Cap on prefetches in flight (each holds one of the MSHRs). */
    unsigned maxOutstandingPrefetches = 8;
    unsigned prefetchBufferEntries = 32;
    /** Victim cache beside the L1-I; 0 disables (the default). */
    unsigned victimCacheEntries = 0;
    /**
     * Ablation: allow prefetch transfers to queue on busy buses
     * (delaying later demand traffic) instead of the default
     * idle-bus-only policy.
     */
    bool prefetchMayQueueOnBus = false;
};

/** Outcome of one demand-fetch block access. */
struct FetchAccess
{
    bool hitL1 = false;
    bool hitPrefetchBuffer = false;
    bool hitStreamBuffer = false;
    bool mergedInflight = false;       ///< joined an in-flight fill
    bool mergedInflightPrefetch = false;
    bool retry = false;                ///< no MSHR; try again next cycle
    Cycle readyAt = neverCycle;        ///< when instructions can stream
};

class MemHierarchy
{
  public:
    /** Single-core form: owns a private SharedMem (L2/buses/DRAM). */
    explicit MemHierarchy(const MemConfig &config);

    /**
     * Multi-core form: core @p core_id's private L1-I/MSHRs/buffers in
     * front of externally owned shared components. Requests reaching
     * the shared L2 are tagged with the core id (private address
     * spaces: no constructive sharing between cores), and the per-core
     * mem.l2bus_* and mem.membus_* share counters are enabled when
     * @p num_cores > 1.
     */
    MemHierarchy(const MemConfig &config, SharedMem &shared,
                 unsigned core_id, unsigned num_cores);

    /** Per-cycle maintenance: complete fills, reset tag ports. */
    void tick(Cycle now);

    /**
     * Quiescence protocol: the earliest future cycle at which this
     * hierarchy changes state on its own — the next MSHR fill
     * completion or bus-release time. kNever when nothing is in
     * flight. Never returns a cycle <= @p now.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Demand fetch of the block containing @p addr. Probes L1, the
     * prefetch buffer, stream buffers, and in-flight fills, in that
     * order; allocates an MSHR and goes to L2/memory on a true miss.
     * The caller must have reserved a tag port for this cycle.
     */
    FetchAccess demandFetch(Addr addr, Cycle now);

    /** Outcome of a prefetch issue attempt. */
    enum class PfIssue
    {
        Issued,      ///< request is on its way
        Redundant,   ///< block already buffered or in flight
        NoResource,  ///< MSHR/bus/budget exhausted: retry later
    };

    /**
     * Issue a prefetch for @p addr into @p dest. Redundant when the
     * block is already in flight or buffered; NoResource when the
     * prefetch budget, MSHRs, or the required bus are exhausted.
     */
    PfIssue issuePrefetch(Addr addr, Cycle now, FillDest dest,
                          std::uint32_t stream_id = 0);

    /** Cache-probe filter check: is the block in the L1-I? Tag check
     *  only; the caller must have reserved a tag port. */
    bool tagProbe(Addr addr) const;

    /** True when a prefetch for @p addr would be redundant. */
    bool prefetchRedundant(Addr addr) const;

    /** Tag-port arbitration, reset each cycle. */
    bool reserveTagPort();
    unsigned freeTagPorts() const;

    void setStreamFillClient(StreamFillClient *client)
    {
        streamFill = client;
    }

    void setStreamProbeClient(StreamProbeClient *client)
    {
        streamProbe = client;
    }

    /** Prefetch lifecycle attribution (always on; tracer optional). */
    PrefetchAttribution &prefetchAttribution() { return attr_; }

    /** Route prefetch lifecycle spans to @p t (null disables). */
    void setTracer(Tracer *t) { attr_.setTracer(t); }
    Tracer *tracer() const { return attr_.tracer(); }

    Cache &l1i() { return l1i_; }
    VictimCache &victimCache() { return vc; }
    Cache &l2() { return l2_; }
    PrefetchBuffer &pfBuffer() { return pfBuf; }
    Bus &l2Bus() { return l2Bus_; }
    Bus &memBus() { return memBus_; }
    MshrFile &mshrs() { return mshrFile; }
    unsigned coreId() const { return coreId_; }

    /**
     * Aggregate statistics into @p out. With @p include_shared false,
     * only this core's private components are collected (the caller
     * merges the SharedMem stats once, not once per core).
     */
    void collectStats(StatSet &out, bool include_shared = true) const;

    StatSet stats;

  private:
    StatSet::Counter stDemandAccesses =
        stats.registerCounter("mem.demand_accesses");
    StatSet::Counter stVictimHits = stats.registerCounter("mem.victim_hits");
    StatSet::Counter stPfbufHits = stats.registerCounter("mem.pfbuf_hits");
    StatSet::Counter stStreambufHits =
        stats.registerCounter("mem.streambuf_hits");
    StatSet::Counter stDemandMisses =
        stats.registerCounter("mem.demand_misses");
    StatSet::Counter stInflightRetargets =
        stats.registerCounter("mem.inflight_retargets");
    StatSet::Counter stInflightMerges =
        stats.registerCounter("mem.inflight_merges");
    StatSet::Counter stInflightPrefetchMerges =
        stats.registerCounter("mem.inflight_prefetch_merges");
    StatSet::Counter stDemandMshrStalls =
        stats.registerCounter("mem.demand_mshr_stalls");
    StatSet::Counter stPrefetchAttempts =
        stats.registerCounter("mem.prefetch_attempts");
    StatSet::Counter stPrefetchRedundant =
        stats.registerCounter("mem.prefetch_redundant");
    StatSet::Counter stPrefetchMshrStalls =
        stats.registerCounter("mem.prefetch_mshr_stalls");
    StatSet::Counter stPrefetchBusStalls =
        stats.registerCounter("mem.prefetch_bus_stalls");
    StatSet::Counter stPrefetchesIssued =
        stats.registerCounter("mem.prefetches_issued");
    /**
     * Per-core share of the shared buses, incremented only on a
     * multi-core machine (so single-core stat output is unchanged):
     * the cycles and transfer counts this core's fills occupied each
     * bus for. The bus's own bus.busy_cycles counters keep the total.
     */
    StatSet::Counter stL2BusShareCycles =
        stats.registerCounter("mem.l2bus_busy_cycles");
    StatSet::Counter stL2BusShareTransfers =
        stats.registerCounter("mem.l2bus_transfers");
    StatSet::Counter stMemBusShareCycles =
        stats.registerCounter("mem.membus_busy_cycles");
    StatSet::Counter stMemBusShareTransfers =
        stats.registerCounter("mem.membus_transfers");

    /** L2 lookup + bus/memory scheduling for a missing block. */
    Cycle fillLatency(Addr block_addr, Cycle now, bool is_prefetch,
                      bool &fills_l2, bool &granted);

    /** Install into the L1, spilling any victim to the victim cache. */
    void installL1(Addr block_addr);

    /**
     * Tag an L1-side block address with this core's id before it
     * reaches the shared L2 / attribution victim map. Cores model
     * private address spaces, so same-numbered blocks from different
     * cores are distinct lines. Identity for core 0, hence for every
     * single-core machine.
     */
    Addr sharedTag(Addr block_addr) const
    {
        return block_addr | (static_cast<Addr>(coreId_) << 56);
    }

    MemConfig cfg;
    /** Non-null only for the single-core ctor. */
    std::unique_ptr<SharedMem> ownedShared;
    Cache l1i_;
    Cache &l2_;
    VictimCache vc;
    PrefetchBuffer pfBuf;
    Bus &l2Bus_;
    Bus &memBus_;
    MshrFile mshrFile;
    Dram &dram;
    PrefetchAttribution attr_;
    StreamFillClient *streamFill = nullptr;
    StreamProbeClient *streamProbe = nullptr;
    unsigned portsUsed = 0;
    unsigned coreId_ = 0;
    /** True when this hierarchy shares its L2/buses with other cores. */
    bool multiCore_ = false;
};

} // namespace fdip

#endif // FDIP_MEM_HIERARCHY_HH
