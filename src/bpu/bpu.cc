#include "bpu/bpu.hh"

#include "common/logging.hh"
#include "bpu/hybrid.hh"
#include "bpu/local2level.hh"

namespace fdip
{

namespace
{

/** Direction-predictor geometry. */
constexpr std::size_t kGshareEntries = 16384;
constexpr unsigned kHistoryBits = 12;
constexpr std::size_t kBimodalEntries = 4096;
constexpr std::size_t kChooserEntries = 4096;

} // namespace

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Bimodal: return "bimodal";
      case PredictorKind::Gshare: return "gshare";
      case PredictorKind::Local2Level: return "local2level";
      case PredictorKind::Hybrid: return "hybrid";
    }
    return "?";
}

Bpu::Bpu(TraceWindow &trace_window, const BpuConfig &config)
    : trace(trace_window), specRas(kRasDepth), archRas(kRasDepth)
{
    switch (config.predictor) {
      case PredictorKind::Bimodal:
        dirPred = std::make_unique<BimodalPredictor>(kBimodalEntries);
        break;
      case PredictorKind::Gshare:
        dirPred = std::make_unique<GsharePredictor>(kGshareEntries,
                                                    kHistoryBits);
        break;
      case PredictorKind::Local2Level:
        dirPred = std::make_unique<Local2LevelPredictor>();
        break;
      case PredictorKind::Hybrid:
        dirPred = std::make_unique<HybridPredictor>(
            kGshareEntries, kHistoryBits, kBimodalEntries,
            kChooserEntries);
        break;
    }
    switch (config.targetBuffer) {
      case TargetBuffer::Ftb:
        ftb_ = std::make_unique<Ftb>(config.ftb);
        break;
      case TargetBuffer::Partitioned:
        btb_ = std::make_unique<PartitionedBtb>(config.pbtb);
        break;
    }
    for (int i = 0; i <= static_cast<int>(InstClass::IndCall); ++i) {
        stDivergeByClass[i] = stats.registerCounter(
            strprintf("bpu.diverge_%s",
                      instClassName(static_cast<InstClass>(i))));
    }
    specPc = trace.at(0).pc;
}

FetchBlock
Bpu::formBlockFtb()
{
    FetchBlock blk;
    blk.startPc = specPc;

    auto hit = ftb_->lookup(specPc);
    if (!hit || hit->numInsts > kMaxFetchBlockInsts) {
        // FTB miss (or a block too long to fetch at once): generate a
        // full-width sequential block; any branch hiding inside will
        // surface as a misfetch.
        blk.numInsts = kMaxFetchBlockInsts;
        blk.nextFetchPc = specPc + Addr(blk.numInsts) * instBytes;
        stSeqBlocks.inc();
        specPc = blk.nextFetchPc;
        return blk;
    }

    blk.numInsts = hit->numInsts;
    blk.endsInCF = true;
    blk.termCls = hit->termCls;
    Addr term_pc = blk.startPc + Addr(blk.numInsts - 1) * instBytes;
    Addr fallthrough = blk.startPc + Addr(blk.numInsts) * instBytes;

    bool taken = true;
    Addr target = hit->target;
    if (hit->termCls == InstClass::CondBr) {
        taken = dirPred->predict(term_pc, specHist);
        specHist = shiftHistory(specHist, taken);
    } else if (hit->termCls == InstClass::Return) {
        Addr r = specRas.pop();
        target = (r == invalidAddr) ? fallthrough : r;
    }
    if (isCall(hit->termCls))
        specRas.push(term_pc + instBytes);

    blk.predTaken = taken;
    blk.predTarget = target;
    blk.nextFetchPc = taken ? target : fallthrough;
    stFtbBlocks.inc();
    specPc = blk.nextFetchPc;
    return blk;
}

FetchBlock
Bpu::formBlockBtb()
{
    FetchBlock blk;
    blk.startPc = specPc;

    // All fetch-width PCs probe the BTB in parallel; the block ends at
    // the first control-flow instruction predicted taken.
    for (unsigned i = 0; i < kMaxFetchBlockInsts; ++i) {
        Addr pc_i = blk.startPc + Addr(i) * instBytes;
        auto hit = btb_->lookup(pc_i);
        if (!hit)
            continue;
        if (hit->cls == InstClass::CondBr) {
            bool taken = dirPred->predict(pc_i, specHist);
            specHist = shiftHistory(specHist, taken);
            if (!taken)
                continue; // predicted not-taken: keep scanning
            blk.numInsts = i + 1;
            blk.endsInCF = true;
            blk.termCls = hit->cls;
            blk.predTaken = true;
            blk.predTarget = hit->target;
            break;
        }
        // Unconditional control flow always ends the block.
        Addr target = hit->target;
        if (hit->cls == InstClass::Return) {
            Addr r = specRas.pop();
            target = (r == invalidAddr) ? pc_i + instBytes : r;
        }
        if (isCall(hit->cls))
            specRas.push(pc_i + instBytes);
        blk.numInsts = i + 1;
        blk.endsInCF = true;
        blk.termCls = hit->cls;
        blk.predTaken = true;
        blk.predTarget = target;
        break;
    }

    if (!blk.endsInCF) {
        blk.numInsts = kMaxFetchBlockInsts;
        stSeqBlocks.inc();
    } else {
        stBtbBlocks.inc();
    }
    blk.nextFetchPc = blk.endsInCF && blk.predTaken
        ? blk.predTarget
        : blk.startPc + Addr(blk.numInsts) * instBytes;
    specPc = blk.nextFetchPc;
    return blk;
}

void
Bpu::verify(FetchBlock &blk)
{
    blk.firstSeq = nextSeq;
    blk.validLen = blk.numInsts;

    for (unsigned i = 0; i < blk.numInsts; ++i) {
        const TraceInstr &actual = trace.at(nextSeq + i);

        // Architectural (correct-path) state advances with the truth.
        if (isControl(actual.cls))
            stCfSeen.inc();
        if (actual.cls == InstClass::CondBr) {
            dirPred->update(actual.pc, archHist, actual.taken);
            archHist = shiftHistory(archHist, actual.taken);
            stCondSeen.inc();
        }
        if (isCall(actual.cls))
            archRas.push(actual.pc + instBytes);
        if (actual.cls == InstClass::Return)
            archRas.pop();

        // Structure training: taken control flow allocates.
        if (isControl(actual.cls) && actual.taken) {
            if (ftb_) {
                ftb_->insert(blk.startPc, i + 1, actual.cls,
                             actual.target);
            } else {
                btb_->insert(actual.pc, actual.cls, actual.target);
            }
        }

        Addr pred_next;
        if (i + 1 < blk.numInsts) {
            pred_next = blk.pcOf(i + 1);
        } else if (blk.endsInCF && blk.predTaken) {
            pred_next = blk.predTarget;
        } else {
            pred_next = blk.endPc();
        }

        Addr actual_next = actual.nextPc();
        if (pred_next == actual_next)
            continue;

        // Divergence: everything younger than instruction i is on the
        // wrong path, including the tail of this block.
        blk.diverges = true;
        blk.culpritIdx = i;
        blk.validLen = i + 1;
        blk.culpritCls = actual.cls;
        blk.decodeFixable = actual.cls == InstClass::Jump ||
            actual.cls == InstClass::Call;
        divergeSeq = nextSeq + i;
        resumePc = actual_next;
        nextSeq += i + 1;
        correctPath = false;

        stDivergences.inc();
        stDivergeByClass[static_cast<int>(actual.cls)].inc();
        if (blk.decodeFixable)
            stDecodeFixable.inc();
        return;
    }

    nextSeq += blk.numInsts;

    // Decode-time repair: hardware discovers branches the FTB/BTB did
    // not know about when the block reaches decode, and fixes up the
    // speculative history and RAS. With immediate verification the
    // equivalent is catching the speculative state up to the
    // architectural state after every cleanly-verified block.
    specHist = archHist;
    specRas = archRas;
}

FetchBlock
Bpu::predictBlock()
{
    FetchBlock blk = ftb_ ? formBlockFtb() : formBlockBtb();
    stBlocks.inc();
    if (correctPath) {
        verify(blk);
    } else {
        blk.wrongPath = true;
        blk.validLen = 0;
        stWrongPathBlocks.inc();
        stWrongPathInsts.inc(blk.numInsts);
    }
    return blk;
}

void
Bpu::redirect()
{
    panic_if(correctPath, "redirect with no pending divergence");
    correctPath = true;
    specPc = resumePc;
    specHist = archHist;
    specRas = archRas;
    stRedirects.inc();
}

} // namespace fdip
