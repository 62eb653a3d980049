/**
 * @file shadow_btb.hh
 * Shadow-branch BTB prefill: newly arrived instruction cache lines are
 * scanned by a decoder running behind the fetch engine ("shadow"
 * decode), and every direct branch discovered is pre-filled into the
 * BTB/FTB before the fetch stream ever reaches it. The scheme issues
 * no memory requests at all — its entire effect is fewer BTB cold
 * misses, i.e. fewer decode-time redirects on never-seen branches.
 *
 * On the canonical 4-byte code space decode is exact inside the code
 * image; the bogusNoiseDenom knob models the variable-length-ISA
 * reality that some data bytes *look* like branches, by deterministically
 * marking a fraction of non-CF slots as branch-looking and pre-filling
 * a synthesized (in-image) target for them. Correct and bogus prefills
 * are counted separately (see docs/PREFETCHERS.md).
 */

#ifndef FDIP_PREFETCH_SHADOW_BTB_HH
#define FDIP_PREFETCH_SHADOW_BTB_HH

#include <deque>
#include <optional>

#include "common/recent_filter.hh"
#include "prefetch/prefetcher.hh"
#include "trace/code_image.hh"
#include "trace/instr.hh"

namespace fdip
{

class Ftb;
class PartitionedBtb;

class ShadowBtbPrefetcher : public Prefetcher
{
  public:
    /** Instruction slots decoded per cycle. */
    static constexpr unsigned kScanWidth = 8;
    /** Recently scanned lines that are not queued again. */
    static constexpr unsigned kRecentFilterEntries = 32;
    /** Pending cache-line scan queue size. */
    static constexpr std::size_t kQueueEntries = 8;
    /** Scheme-private metadata: the scan queue and recent filter, 6
     *  bytes per 48-bit line address (the prefill target store is the
     *  existing BTB/FTB). */
    static constexpr std::uint64_t kMetadataBytes =
        (kQueueEntries + kRecentFilterEntries) * 6;

    struct Config
    {
        /**
         * Model branch-looking data bytes: 1-in-N non-CF slots is
         * treated as a branch and pre-filled with a synthesized
         * (deterministic, in-image) target. On the canonical 4-byte
         * code space decode is exact, so the default is 0 (no bogus
         * prefills); the knob is the variable-length-ISA noise model
         * swept by R-X18's shadow-noise axis.
         */
        unsigned bogusNoiseDenom = 0;
    };

    /** Exactly one of @p ftb / @p btb is non-null (block-based vs
     *  conventional front-end). The decoder reads a CodeImage built
     *  from @p prog; @p prog may be null (trace replay), in which case
     *  nothing is ever decoded or pre-filled. */
    ShadowBtbPrefetcher(Ftb *ftb, PartitionedBtb *btb, MemHierarchy &mem,
                        const Program *prog, const Config &config);

    void tick(Cycle now) override;
    Cycle nextEventCycle(Cycle now) const override;
    void onDemandAccess(Addr block_addr, const FetchAccess &access,
                        Cycle now) override;

  private:
    void prefill(Addr block_start, Addr pc, InstClass cls, Addr target,
                 bool bogus);

    StatSet::Counter stLinesEnqueued =
        stats.registerCounter("shadow.lines_enqueued");
    StatSet::Counter stLinesScanned =
        stats.registerCounter("shadow.lines_scanned");
    StatSet::Counter stInstsScanned =
        stats.registerCounter("shadow.insts_scanned");
    StatSet::Counter stBranchesFound =
        stats.registerCounter("shadow.branches_found");
    StatSet::Counter stIndirectSkipped =
        stats.registerCounter("shadow.indirect_skipped");
    StatSet::Counter stAlreadyKnown =
        stats.registerCounter("shadow.already_known");
    StatSet::Counter stPrefillCorrect =
        stats.registerCounter("shadow.prefill_correct");
    StatSet::Counter stPrefillBogus =
        stats.registerCounter("shadow.prefill_bogus");
    StatSet::Counter stOutOfRange =
        stats.registerCounter("shadow.out_of_range_dropped");
    StatSet::Counter stQueueDrops =
        stats.registerCounter("shadow.queue_drops");
    StatSet::Counter stFiltered = stats.registerCounter("shadow.filtered");
    StatSet::Counter stNoImage = stats.registerCounter("shadow.no_image");

    Ftb *ftb;
    PartitionedBtb *btb;
    MemHierarchy &mem;
    /** Empty on trace replay. */
    std::optional<CodeImage> image;
    Config cfg;

    std::deque<Addr> scanQueue;
    RecentFilter recentlyScanned;

    /** Incremental scan state for the head line. */
    unsigned nextSlot = 0;
    Addr blockStart = invalidAddr;
};

} // namespace fdip

#endif // FDIP_PREFETCH_SHADOW_BTB_HH
