/**
 * @file config.hh
 * Top-level simulation configuration: workload, front-end geometry,
 * memory hierarchy, prefetch scheme, and run lengths.
 */

#ifndef FDIP_SIM_CONFIG_HH
#define FDIP_SIM_CONFIG_HH

#include <optional>
#include <string>
#include <vector>

#include "bpu/bpu.hh"
#include "core/backend.hh"
#include "frontend/fetch_engine.hh"
#include "mem/hierarchy.hh"
#include "obs/telemetry.hh"
#include "prefetch/fdp.hh"
#include "prefetch/mana.hh"
#include "prefetch/nlp.hh"
#include "prefetch/oracle.hh"
#include "prefetch/shadow_btb.hh"
#include "prefetch/stream_buffer.hh"
#include "vm/mmu.hh"

namespace fdip
{

/** The prefetching schemes the MICRO-32 evaluation compares, plus the
 *  competitor zoo (docs/PREFETCHERS.md). */
enum class PrefetchScheme
{
    None,         ///< no-prefetch baseline
    Nlp,          ///< tagged next-line prefetching
    StreamBuffer, ///< Jouppi streaming buffers
    FdpNone,      ///< fetch-directed, no filtering
    FdpEnqueue,   ///< fetch-directed, enqueue cache-probe filtering
    FdpEnqueueAggressive, ///< enqueue CPF, unprobed on port shortage
    FdpRemove,    ///< fetch-directed, remove cache-probe filtering
    FdpIdeal,     ///< fetch-directed, ideal cache-probe filtering
    Oracle,       ///< perfect-address prefetcher (upper bound)
    Mana,         ///< MANA-style record/replay of region footprints
    ShadowBtb,    ///< shadow-branch decode pre-filling the BTB/FTB
};

const char *schemeName(PrefetchScheme scheme);
bool schemeIsFdp(PrefetchScheme scheme);

/**
 * Every registered scheme, in enum order. This is the registry the
 * conformance battery (tests/test_scheme_conformance.cc) and the
 * tick-skip differential matrix iterate; a scheme missing from it
 * escapes both, so additions here are mandatory, not optional.
 */
const std::vector<PrefetchScheme> &allPrefetchSchemes();

/** The registered scheme whose schemeName() is @p name, if any. */
std::optional<PrefetchScheme> schemeFromName(const std::string &name);

/** The file a "trace:<path>" workload label replays; "" for any other
 *  label (a suite or custom profile name). */
std::string traceLabelPath(const std::string &label);

struct SimConfig
{
    std::string workload = "gcc";
    /**
     * When set, this profile is simulated instead of looking
     * @c workload up in the built-in suite (the name is then only a
     * label). This is the hook for user-defined workloads.
     */
    std::optional<WorkloadProfile> customProfile;
    /**
     * When non-empty, the workload is replayed from this trace file
     * (native v2 via TraceFileReader, or ChampSim format via
     * ChampSimTraceReader — dispatched on extension) instead of the
     * synthetic executor; @c workload is then only a label. See
     * docs/TRACES.md.
     */
    std::string tracePath;
    /**
     * Fast-forward: discard this many instructions from the source
     * before the warmup phase begins (trace positioning into a region
     * of interest; also honored for synthetic workloads).
     */
    std::uint64_t skipInsts = 0;
    std::uint64_t warmupInsts = 300 * 1000;
    std::uint64_t measureInsts = 1000 * 1000;
    std::uint64_t seedOffset = 0; ///< extra seed entropy for replicates

    /**
     * Number of cores sharing one L2/bus/DRAM (docs/MULTICORE.md).
     * Each core gets a private frontend (BPU/FTQ/fetch/backend/MMU +
     * prefetchers) and a private L1-I; 1 is the classic single-core
     * machine and is bit-identical to the pre-multicore simulator.
     */
    unsigned numCores = 1;
    /**
     * Per-core workload labels for heterogeneous mixes. Empty (the
     * default) runs @c workload on every core; otherwise it must name
     * exactly numCores workloads, each either a built-in profile name
     * or "trace:<path>". Per-core seeds are offset by the core id so
     * homogeneous cores still execute distinct instruction streams.
     * customProfile is honored only when this is empty.
     */
    std::vector<std::string> coreWorkloads;

    std::size_t ftqEntries = 32;
    FetchEngine::Config fetch;
    BpuConfig bpu;
    Backend::Config backend;
    MemConfig mem;

    /** Virtual memory: ITLB, page table, prefetch-translation policy. */
    VmConfig vm;

    PrefetchScheme scheme = PrefetchScheme::None;
    FdpPrefetcher::Config fdp;
    NlpPrefetcher::Config nlp;
    StreamBufferPrefetcher::Config sb;
    OraclePrefetcher::Config oracle;
    ManaPrefetcher::Config mana;
    ShadowBtbPrefetcher::Config shadow;

    /** Abort if a run exceeds this many cycles per instruction. */
    double cycleLimitPerInst = 300.0;

    /**
     * Watchdog: hard ceiling on total simulated cycles (warmup +
     * measurement together); 0 = no ceiling beyond cycleLimitPerInst.
     * Exceeding it raises SimTimeout in FatalMode::Throw (so a sweep
     * renders the point as TIMEOUT) or exits the process.
     */
    std::uint64_t maxCycles = 0;

    /**
     * Escape hatch for differential testing: tick every cycle even
     * when the whole machine is quiescent, instead of jumping to the
     * next event. The FDIP_NO_SKIP=1 environment variable forces this
     * process-wide. Skipping is bit-identical to forced ticking by
     * contract (see tests/test_tick_skip.cc), so this only trades
     * host time.
     */
    bool forceTick = false;

    /**
     * Passive observability (interval sampling, event tracing). The
     * FDIP_SAMPLES / FDIP_TRACE environment variables overlay these at
     * Simulator construction. Deliberately EXCLUDED from fingerprint():
     * telemetry never affects simulated behaviour (see the parity
     * tests in tests/test_obs.cc), so it must not invalidate result
     * caches.
     */
    ObsConfig obs;

    /**
     * Order-independent hash of every knob that affects simulated
     * behaviour. Two configs with equal fingerprints simulate
     * identically, so it is a grid point's identity: the Runner's
     * memo and the result cache key on it.
     */
    std::uint64_t fingerprint() const;

    void validate() const;
};

} // namespace fdip

#endif // FDIP_SIM_CONFIG_HH
