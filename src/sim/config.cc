#include "sim/config.hh"

#include <cstring>
#include <string_view>

#include "common/fnv.hh"
#include "common/intmath.hh"
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

} // namespace

const char *
schemeName(PrefetchScheme scheme)
{
    switch (scheme) {
      case PrefetchScheme::None: return "none";
      case PrefetchScheme::Nlp: return "nlp";
      case PrefetchScheme::StreamBuffer: return "stream";
      case PrefetchScheme::FdpNone: return "fdp-nofilter";
      case PrefetchScheme::FdpEnqueue: return "fdp-enqueue";
      case PrefetchScheme::FdpEnqueueAggressive:
        return "fdp-enqueue-aggr";
      case PrefetchScheme::FdpRemove: return "fdp-remove";
      case PrefetchScheme::FdpIdeal: return "fdp-ideal";
      case PrefetchScheme::Oracle: return "oracle";
      case PrefetchScheme::Mana: return "mana";
      case PrefetchScheme::ShadowBtb: return "shadow-btb";
    }
    return "?";
}

const std::vector<PrefetchScheme> &
allPrefetchSchemes()
{
    static const std::vector<PrefetchScheme> all = {
        PrefetchScheme::None,
        PrefetchScheme::Nlp,
        PrefetchScheme::StreamBuffer,
        PrefetchScheme::FdpNone,
        PrefetchScheme::FdpEnqueue,
        PrefetchScheme::FdpEnqueueAggressive,
        PrefetchScheme::FdpRemove,
        PrefetchScheme::FdpIdeal,
        PrefetchScheme::Oracle,
        PrefetchScheme::Mana,
        PrefetchScheme::ShadowBtb,
    };
    return all;
}

std::optional<PrefetchScheme>
schemeFromName(const std::string &name)
{
    for (PrefetchScheme s : allPrefetchSchemes()) {
        if (name == schemeName(s))
            return s;
    }
    return std::nullopt;
}

std::string
traceLabelPath(const std::string &label)
{
    constexpr std::string_view prefix = "trace:";
    return label.starts_with(prefix) ? label.substr(prefix.size()) : "";
}

bool
schemeIsFdp(PrefetchScheme scheme)
{
    return scheme == PrefetchScheme::FdpNone ||
        scheme == PrefetchScheme::FdpEnqueue ||
        scheme == PrefetchScheme::FdpEnqueueAggressive ||
        scheme == PrefetchScheme::FdpRemove ||
        scheme == PrefetchScheme::FdpIdeal;
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
    f.u64(fdp.piqEntries);
    f.u64(fdp.scanWidth);
    f.u64(fdp.issueWidth);
    f.u64(fdp.recentFilterEntries);
    f.b(fdp.fillIntoL1);
    f.u64(nlp.degree);
    f.u64(sb.numBuffers);
    f.b(sb.allocationFilter);
    f.u64(oracle.lookaheadInsts);
    f.u64(mana.regionBlocks);
    f.u64(mana.tableSets);
    f.u64(mana.tableWays);
    f.u64(mana.queueEntries);
    f.u64(mana.chainLength);
    f.u64(shadow.queueEntries);
    f.u64(shadow.bogusNoiseDenom);

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
    fatal_if(fdp.piqEntries == 0, "FDP PIQ needs at least one entry");
    fatal_if(mana.regionBlocks == 0 || mana.regionBlocks > 64 ||
                 !isPowerOf2(mana.regionBlocks),
             "MANA region size must be a power-of-two block count "
             "<= 64");
    fatal_if(!isPowerOf2(mana.tableSets),
             "MANA table set count must be a power of two");
    fatal_if(mana.tableWays == 0, "MANA table needs at least one way");
    fatal_if(mana.queueEntries == 0,
             "MANA replay queue needs at least one entry");
    fatal_if(mana.chainLength == 0,
             "MANA chain length must be at least 1");
    fatal_if(shadow.queueEntries == 0,
             "shadow-btb scan queue needs at least one entry");
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
