/**
 * @file presets.hh
 * Canonical machine configurations: the baseline front-end of the
 * MICRO-32 study, plus the budget ladders used by the BTB-storage
 * extension experiments.
 */

#ifndef FDIP_SIM_PRESETS_HH
#define FDIP_SIM_PRESETS_HH

#include <vector>

#include "sim/config.hh"

namespace fdip
{

/**
 * The default machine for @p workload and @p scheme. The SimConfig
 * struct defaults are the baseline: 16KB 2-way L1-I (32B blocks, 2 tag
 * ports), 1MB L2, FTB-based decoupled front-end with a 32-entry FTQ,
 * hybrid direction predictor, 32-entry prefetch buffer. A
 * "trace:<path>" workload also sets tracePath.
 */
SimConfig makeBaselineConfig(const std::string &workload,
                             PrefetchScheme scheme = PrefetchScheme::None);

/** One rung of the BTB-storage ladder (extension experiments). */
struct BtbBudgetPoint
{
    unsigned ftbEntries;  ///< unified block-based BTB entries
    double ftbBudgetKB;   ///< unified storage at this rung
};

/** The six-rung ladder (1K..32K-entry unified block-based BTB). */
std::vector<BtbBudgetPoint> btbBudgetLadder();

/** Configure the unified block-based FTB at @p entries (8-way). */
void applyFtbBudget(SimConfig &cfg, unsigned entries);

/**
 * Configure the conventional front-end with the 4-partition BTB sized
 * to fit the storage of a @p unified_entries unified block-based BTB,
 * 16-bit tags.
 */
void applyPartitionedBudget(SimConfig &cfg, unsigned unified_entries);

/**
 * Enable the virtual-memory subsystem on any preset: 4KB pages,
 * 30-cycle page walks, and a 4-way (fully-associative below 4
 * entries) ITLB of @p itlb_entries. Every existing workload runs
 * unchanged with VM off; this switches the same machine to translated
 * fetch with the given prefetch-translation policy and page mapping.
 */
void applyVmConfig(SimConfig &cfg,
                   TlbPrefetchPolicy policy = TlbPrefetchPolicy::Drop,
                   PageMapKind mapping = PageMapKind::Scrambled,
                   unsigned itlb_entries = 64);

/**
 * Layer the two-level TLB hierarchy onto an applyVmConfig() machine:
 * an L2 TLB of @p l2_entries (8-way above 8 entries, fully
 * associative below; 0 disables it), @p num_walkers page-table
 * walkers (0 = unlimited), and optionally the decoupled FTQ TLB
 * prefetcher. With l2_entries == 0 and num_walkers == 0 the machine
 * is bit-identical to the single-level, unlimited-walker model.
 */
void applyTlbHierarchy(SimConfig &cfg, unsigned l2_entries,
                       unsigned num_walkers, bool tlb_prefetch = false);

/**
 * Scale any preset out to @p cores cores sharing one L2/bus/DRAM
 * (docs/MULTICORE.md). With @p core_workloads empty every core runs
 * cfg.workload (distinct per-core seeds); otherwise it must name one
 * workload — a profile name or "trace:<path>" — per core. cores == 1
 * restores the classic single-core machine bit-identically.
 */
void applyMultiCore(SimConfig &cfg, unsigned cores,
                    std::vector<std::string> core_workloads = {});

} // namespace fdip

#endif // FDIP_SIM_PRESETS_HH
