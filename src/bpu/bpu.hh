/**
 * @file bpu.hh
 * The branch prediction unit: the decoupled front-end's address
 * generation engine. Every cycle it can emit one fetch block (the unit
 * stored in the FTQ) by consulting its structures only — FTB or BTB,
 * direction predictor, and return address stack — exactly like the
 * hardware it models.
 *
 * Because the simulator is trace-driven, each block produced while the
 * BPU believes it is on the correct path is verified against the trace
 * on the spot. At the first diverging instruction the block is marked
 * with the culprit, and the BPU keeps generating blocks down its own
 * *predicted* (wrong) path; those blocks flow into the FTQ, get fetched
 * and even prefetched — modelling real wrong-path pollution — until the
 * simulator delivers the redirect and calls redirect().
 */

#ifndef FDIP_BPU_BPU_HH
#define FDIP_BPU_BPU_HH

#include <memory>

#include "common/stats.hh"
#include "common/types.hh"
#include "bpu/direction_predictor.hh"
#include "bpu/ftb.hh"
#include "bpu/partitioned_btb.hh"
#include "bpu/ras.hh"
#include "trace/executor.hh"

namespace fdip
{

/** One predicted fetch block: the FTQ's payload. */
struct FetchBlock
{
    Addr startPc = invalidAddr;
    unsigned numInsts = 0;

    bool endsInCF = false;       ///< block terminates in a predicted CF
    InstClass termCls = InstClass::NonCF;
    bool predTaken = false;
    Addr predTarget = invalidAddr;
    Addr nextFetchPc = invalidAddr;

    /** True when the whole block was produced past a divergence. */
    bool wrongPath = false;
    /** Leading instructions that are on the correct path. */
    unsigned validLen = 0;
    /** Divergence happens after instruction culpritIdx of this block. */
    bool diverges = false;
    unsigned culpritIdx = 0;
    InstClass culpritCls = InstClass::NonCF;
    /** Culprit is a direct unconditional: fixable at decode. */
    bool decodeFixable = false;
    /** Sequence number of the first instruction (correct path only). */
    InstSeqNum firstSeq = 0;

    Addr
    pcOf(unsigned idx) const
    {
        return startPc + Addr(idx) * instBytes;
    }

    Addr
    endPc() const
    {
        return startPc + Addr(numInsts) * instBytes;
    }
};

/** Which direction predictor the BPU instantiates. */
enum class PredictorKind : std::uint8_t
{
    Bimodal,
    Gshare,
    Local2Level,
    Hybrid,
};

const char *predictorKindName(PredictorKind kind);

/** Which target buffer feeds the FTQ: the design axis of the study. */
enum class TargetBuffer : std::uint8_t
{
    Ftb,         ///< basic-block fetch target buffer (the paper)
    Partitioned, ///< offset-partitioned BTB (FDIP Revisited); a unified
                 ///< BTB is one full-width partition
};

struct BpuConfig
{
    TargetBuffer targetBuffer = TargetBuffer::Ftb;
    PredictorKind predictor = PredictorKind::Hybrid;

    /** Geometry of each target buffer; only the chosen one is built. */
    Ftb::Config ftb;
    PartitionedBtb::Config pbtb;
};

class Bpu
{
  public:
    /** Longest fetch block predicted in one cycle. */
    static constexpr unsigned kMaxFetchBlockInsts = 8;
    /** Return-address-stack entries. */
    static constexpr unsigned kRasDepth = 32;

    /**
     * @param trace oracle correct-path stream
     * @param cfg target-buffer choice and structure geometry
     */
    Bpu(TraceWindow &trace, const BpuConfig &cfg);

    /** Produce the next fetch block and advance the predicted path. */
    FetchBlock predictBlock();

    /**
     * Deliver the resolution of the pending divergence: resynchronize
     * to the correct path with architectural history and RAS.
     */
    void redirect();

    bool onCorrectPath() const { return correctPath; }

    /** Sequence number of the culprit of the pending divergence. */
    InstSeqNum divergenceSeq() const { return divergeSeq; }

    /** Next correct-path sequence number the BPU will verify. */
    InstSeqNum nextVerifySeq() const { return nextSeq; }

    /**
     * Quiescence protocol: the BPU is passive — it only produces a
     * block when the simulator asks it to (i.e. when the FTQ has
     * room), so it never schedules an event of its own.
     */
    Cycle nextEventCycle(Cycle now) const { return kNever; }

    /** The FTB, or null unless targetBuffer is Ftb. */
    Ftb *ftb() { return ftb_.get(); }
    /** The conventional BTB, or null when the FTB is used. */
    PartitionedBtb *btb() { return btb_.get(); }

    StatSet stats;

  private:
    StatSet::Counter stSeqBlocks = stats.registerCounter("bpu.seq_blocks");
    StatSet::Counter stFtbBlocks = stats.registerCounter("bpu.ftb_blocks");
    StatSet::Counter stBtbBlocks = stats.registerCounter("bpu.btb_blocks");
    StatSet::Counter stCfSeen = stats.registerCounter("bpu.cf_seen");
    StatSet::Counter stCondSeen = stats.registerCounter("bpu.cond_seen");
    StatSet::Counter stDivergences =
        stats.registerCounter("bpu.divergences");
    StatSet::Counter stDecodeFixable =
        stats.registerCounter("bpu.decode_fixable");
    StatSet::Counter stBlocks = stats.registerCounter("bpu.blocks");
    StatSet::Counter stWrongPathBlocks =
        stats.registerCounter("bpu.wrong_path_blocks");
    StatSet::Counter stWrongPathInsts =
        stats.registerCounter("bpu.wrong_path_insts");
    StatSet::Counter stRedirects = stats.registerCounter("bpu.redirects");
    /** Per-InstClass divergence counters, filled in the constructor. */
    StatSet::Counter stDivergeByClass[
        static_cast<int>(InstClass::IndCall) + 1];

    FetchBlock formBlockFtb();
    FetchBlock formBlockBtb();
    void verify(FetchBlock &blk);

    TraceWindow &trace;
    std::unique_ptr<DirectionPredictor> dirPred;
    std::unique_ptr<Ftb> ftb_;
    std::unique_ptr<PartitionedBtb> btb_;
    ReturnAddressStack specRas;
    ReturnAddressStack archRas;
    std::uint64_t specHist = 0;
    std::uint64_t archHist = 0;

    Addr specPc = invalidAddr;
    bool correctPath = true;
    InstSeqNum nextSeq = 0;
    InstSeqNum divergeSeq = 0;
    Addr resumePc = invalidAddr;
};

} // namespace fdip

#endif // FDIP_BPU_BPU_HH
