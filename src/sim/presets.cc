#include "sim/presets.hh"

#include "common/intmath.hh"
#include "common/logging.hh"

namespace fdip
{

SimConfig
makeBaselineConfig(const std::string &workload, PrefetchScheme scheme)
{
    SimConfig cfg;
    cfg.workload = workload;
    // "trace:<path>" names a trace-file workload: the full label keys
    // memos/result rows, the path drives the replay (docs/TRACES.md).
    cfg.tracePath = traceLabelPath(workload);
    cfg.scheme = scheme;
    return cfg;
}

std::vector<BtbBudgetPoint>
btbBudgetLadder()
{
    // Unified block-based BTB: 8-way; entry = tag + type(2) + bbsize(5)
    // + target(46); tag shrinks one bit per doubling of sets. The
    // partitioned design at each rung is sized by
    // PartitionedBtb::makeDefaultConfig(ftbEntries) to fit inside the
    // same budget with ~2.4x the entries.
    return {
        {1024, 11.5},
        {2048, 22.75},
        {4096, 45.0},
        {8192, 89.0},
        {16384, 176.0},
        {32768, 348.0},
    };
}

void
applyFtbBudget(SimConfig &cfg, unsigned entries)
{
    fatal_if(entries < 8, "FTB budget too small");
    cfg.bpu.targetBuffer = TargetBuffer::Ftb;
    cfg.bpu.ftb.ways = 8;
    cfg.bpu.ftb.sets = std::max(1u, entries / cfg.bpu.ftb.ways);
    fatal_if(!isPowerOf2(cfg.bpu.ftb.sets),
             "FTB entries must give a power-of-two set count");
}

void
applyPartitionedBudget(SimConfig &cfg, unsigned unified_entries)
{
    cfg.bpu.targetBuffer = TargetBuffer::Partitioned;
    cfg.bpu.pbtb = PartitionedBtb::makeDefaultConfig(unified_entries);
}

void
applyVmConfig(SimConfig &cfg, TlbPrefetchPolicy policy,
              PageMapKind mapping, unsigned itlb_entries)
{
    fatal_if(!isPowerOf2(itlb_entries),
             "ITLB entries must be a power of two");
    cfg.vm.enable = true;
    cfg.vm.pageBytes = 4096;
    cfg.vm.walkLatency = 30;
    cfg.vm.itlbEntries = itlb_entries;
    cfg.vm.itlbAssoc = itlb_entries >= 4 ? 4 : itlb_entries;
    cfg.vm.prefetchPolicy = policy;
    cfg.vm.mapping = mapping;
}

void
applyTlbHierarchy(SimConfig &cfg, unsigned l2_entries,
                  unsigned num_walkers, bool tlb_prefetch)
{
    fatal_if(l2_entries != 0 && !isPowerOf2(l2_entries),
             "L2 TLB entries must be a power of two");
    cfg.vm.l2TlbEntries = l2_entries;
    cfg.vm.l2TlbAssoc = l2_entries >= 8 ? 8 : l2_entries;
    cfg.vm.l2TlbLatency = 8;
    cfg.vm.numWalkers = num_walkers;
    cfg.vm.tlbPrefetch = tlb_prefetch;
}

void
applyMultiCore(SimConfig &cfg, unsigned cores,
               std::vector<std::string> core_workloads)
{
    fatal_if(cores == 0, "numCores must be at least 1");
    fatal_if(!core_workloads.empty() && core_workloads.size() != cores,
             "core workload list must name one workload per core");
    cfg.numCores = cores;
    cfg.coreWorkloads = std::move(core_workloads);
}

} // namespace fdip
