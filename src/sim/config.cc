#include "sim/config.hh"

#include <iterator>
#include <string_view>

#include "common/fnv.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

void
hashCache(Fnv1a &f, const Cache::Config &c)
{
    f.s(c.name);
    f.u64(c.sizeBytes);
    f.u64(c.assoc);
    f.u64(c.blockBytes);
    f.u64(static_cast<std::uint64_t>(c.repl));
}

void
hashProfile(Fnv1a &f, const WorkloadProfile &p)
{
    f.s(p.name);
    f.u64(p.seed);
    f.u64(p.codeFootprintBytes);
    f.d(p.meanBlockInsts);
    f.d(p.meanBlocksPerFn);
    f.u64(p.callLevels);
    f.d(p.calleeZipf);
    f.d(p.wCond);
    f.d(p.wJump);
    f.d(p.wCall);
    f.d(p.wIndCall);
    f.d(p.wFallthrough);
    f.d(p.loopFraction);
    f.d(p.meanTripCount);
    f.d(p.patternFraction);
    f.d(p.biasLo);
    f.d(p.biasHi);
    f.u64(p.phaseLen);
    f.u64(p.dispatcherSites);
}

struct SchemeEntry
{
    PrefetchScheme scheme;
    const char *name;
};

/** Every registered scheme and its one name, in enum order. */
constexpr SchemeEntry kSchemes[] = {
    {PrefetchScheme::None, "none"},
    {PrefetchScheme::Nlp, "nlp"},
    {PrefetchScheme::StreamBuffer, "stream"},
    {PrefetchScheme::FdpNone, "fdp-nofilter"},
    {PrefetchScheme::FdpEnqueue, "fdp-enqueue"},
    {PrefetchScheme::FdpEnqueueAggressive, "fdp-enqueue-aggr"},
    {PrefetchScheme::FdpRemove, "fdp-remove"},
    {PrefetchScheme::FdpIdeal, "fdp-ideal"},
    {PrefetchScheme::Oracle, "oracle"},
    {PrefetchScheme::Mana, "mana"},
    {PrefetchScheme::ShadowBtb, "shadow-btb"},
};

constexpr bool
inEnumOrder()
{
    for (std::size_t i = 0; i < std::size(kSchemes); ++i) {
        if (static_cast<std::size_t>(kSchemes[i].scheme) != i)
            return false;
    }
    return true;
}
static_assert(inEnumOrder(), "kSchemes must list the schemes in enum order");

} // namespace

const char *
schemeName(PrefetchScheme scheme)
{
    auto i = static_cast<std::size_t>(scheme);
    return i < std::size(kSchemes) ? kSchemes[i].name : "?";
}

const std::vector<PrefetchScheme> &
allPrefetchSchemes()
{
    static const std::vector<PrefetchScheme> all = [] {
        std::vector<PrefetchScheme> v;
        for (const SchemeEntry &e : kSchemes)
            v.push_back(e.scheme);
        return v;
    }();
    return all;
}

std::optional<PrefetchScheme>
schemeFromName(const std::string &name)
{
    for (const SchemeEntry &e : kSchemes) {
        if (name == e.name)
            return e.scheme;
    }
    return std::nullopt;
}

std::string
traceLabelPath(const std::string &label)
{
    constexpr std::string_view prefix = "trace:";
    return label.starts_with(prefix) ? label.substr(prefix.size()) : "";
}

std::uint64_t
SimConfig::fingerprint() const
{
    Fnv1a f;
    f.s(workload);
    f.b(customProfile.has_value());
    if (customProfile)
        hashProfile(f, *customProfile);
    f.s(tracePath);
    f.u64(skipInsts);
    f.u64(warmupInsts);
    f.u64(measureInsts);
    f.u64(seedOffset);
    f.u64(numCores);
    f.u64(coreWorkloads.size());
    for (const auto &w : coreWorkloads)
        f.s(w);
    f.u64(ftqEntries);

    f.u64(fetch.fetchWidth);

    f.u64(static_cast<std::uint64_t>(bpu.targetBuffer));
    f.u64(static_cast<std::uint64_t>(bpu.predictor));
    f.u64(bpu.ftb.sets);
    f.u64(bpu.ftb.ways);
    f.u64(bpu.btb.sets);
    f.u64(bpu.btb.ways);
    f.u64(bpu.btb.tagBits);
    f.u64(bpu.btb.offsetBits);
    f.u64(bpu.pbtb.partitions.size());
    for (const auto &part : bpu.pbtb.partitions) {
        f.u64(part.offsetBits);
        f.u64(part.sets);
        f.u64(part.ways);
    }
    f.u64(bpu.pbtb.tagBits);

    f.u64(backend.retireWidth);
    f.u64(backend.queueDepth);

    hashCache(f, mem.l1i);
    f.u64(mem.l1TagPorts);
    hashCache(f, mem.l2);
    f.u64(mem.l2HitLatency);
    f.u64(mem.dramLatency);
    f.u64(mem.l2BusBytesPerCycle);
    f.u64(mem.memBusBytesPerCycle);
    f.u64(mem.mshrs);
    f.u64(mem.prefetchBufferEntries);
    f.u64(mem.victimCacheEntries);
    f.b(mem.prefetchMayQueueOnBus);
    f.u64(mem.maxOutstandingPrefetches);

    f.b(vm.enable);
    f.u64(vm.pageBytes);
    f.u64(vm.itlbEntries);
    f.u64(vm.itlbAssoc);
    f.u64(vm.walkLatency);
    f.u64(static_cast<std::uint64_t>(vm.prefetchPolicy));
    f.u64(static_cast<std::uint64_t>(vm.mapping));
    f.u64(vm.l2TlbEntries);
    f.u64(vm.l2TlbAssoc);
    f.u64(vm.l2TlbLatency);
    f.u64(vm.numWalkers);
    f.b(vm.tlbPrefetch);

    f.u64(static_cast<std::uint64_t>(scheme));
    // A scheme's private block names the machine only when the scheme
    // builds it: the knobs of an unbuilt scheme change nothing.
    switch (scheme) {
      case PrefetchScheme::None:
        break;
      case PrefetchScheme::Nlp:
        f.u64(nlp.degree);
        break;
      case PrefetchScheme::StreamBuffer:
        f.u64(sb.numBuffers);
        f.b(sb.allocationFilter);
        break;
      case PrefetchScheme::FdpNone:
      case PrefetchScheme::FdpEnqueue:
      case PrefetchScheme::FdpEnqueueAggressive:
      case PrefetchScheme::FdpRemove:
      case PrefetchScheme::FdpIdeal:
        f.u64(fdp.piqEntries);
        f.u64(fdp.scanWidth);
        f.u64(fdp.issueWidth);
        f.u64(fdp.recentFilterEntries);
        f.b(fdp.fillIntoL1);
        break;
      case PrefetchScheme::Oracle:
        f.u64(oracle.lookaheadInsts);
        break;
      case PrefetchScheme::Mana:
        f.u64(mana.regionBlocks);
        f.u64(mana.tableSets);
        f.u64(mana.tableWays);
        f.u64(mana.queueEntries);
        f.u64(mana.chainLength);
        break;
      case PrefetchScheme::ShadowBtb:
        f.u64(shadow.bogusNoiseDenom);
        break;
    }

    f.d(cycleLimitPerInst);
    f.u64(maxCycles);
    // forceTick is excluded: it changes host behaviour only, never
    // simulated results (enforced by the tick-skip parity tests).
    return f.h;
}

void
SimConfig::validate() const
{
    fatal_if(measureInsts == 0, "measureInsts must be nonzero");
    fatal_if(numCores == 0, "numCores must be at least 1");
    fatal_if(numCores > 64, "numCores out of range (max 64)");
    fatal_if(!coreWorkloads.empty() &&
                 coreWorkloads.size() != numCores,
             "coreWorkloads must name exactly numCores workloads");
    fatal_if(ftqEntries == 0, "FTQ needs at least one entry");
    fatal_if(cycleLimitPerInst <= 1.0, "cycle limit too low to finish");
    // VM knobs are checked even with vm.enable off. Every simulation
    // builds the MMU, whose page table and TLBs check their own
    // geometry (and the MMU its L2-TLB latency) as they are built.
    fatal_if(vm.pageBytes < mem.l1i.blockBytes,
             "VM pages must be at least one cache block");
    fatal_if(vm.walkLatency == 0, "page-walk latency must be nonzero");
    fatal_if(vm.walkLatency > 10000,
             "page-walk latency implausibly high");
    fatal_if(vm.l2TlbEntries > 0 && vm.l2TlbLatency >= vm.walkLatency,
             "L2 TLB hit latency must beat a full page walk");
    fatal_if(vm.numWalkers > 64, "walker count implausibly high");
}

} // namespace fdip
