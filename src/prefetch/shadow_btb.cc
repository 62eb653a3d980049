#include "prefetch/shadow_btb.hh"

#include <algorithm>

#include "bpu/btb.hh"
#include "bpu/ftb.hh"
#include "common/fnv.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

/** Deterministic per-slot hash for the bogus-branch noise model. */
std::uint64_t
slotHash(Addr pc)
{
    Fnv1a f;
    f.u64(pc);
    return f.h;
}

} // namespace

ShadowBtbPrefetcher::ShadowBtbPrefetcher(Ftb *ftb_ptr, BtbIface *btb_ptr,
                                         MemHierarchy &mem_ref,
                                         const Program *prog,
                                         const Config &config)
    : ftb(ftb_ptr), btb(btb_ptr), mem(mem_ref), cfg(config),
      recentlyScanned(kRecentFilterEntries)
{
    fatal_if(ftb == nullptr && btb == nullptr,
             "shadow-btb needs a BTB or FTB to pre-fill");
    if (prog != nullptr)
        image.emplace(*prog);
}

void
ShadowBtbPrefetcher::onDemandAccess(Addr block_addr,
                                    const FetchAccess &access, Cycle now)
{
    // Scan lines as they arrive from below: true misses plus first
    // uses of prefetched/streamed blocks.
    bool trigger = isTrueMiss(access) || access.hitPrefetchBuffer ||
        access.hitStreamBuffer;
    if (!trigger)
        return;
    if (!image) {
        // Trace replay carries no static code image to decode from;
        // the scheme degenerates to a no-op (documented).
        stNoImage.inc();
        return;
    }
    if (recentlyScanned.contains(block_addr)) {
        stFiltered.inc();
        return;
    }
    if (std::find(scanQueue.begin(), scanQueue.end(), block_addr) !=
        scanQueue.end()) {
        return;
    }
    if (scanQueue.size() >= kQueueEntries) {
        stQueueDrops.inc();
        return; // scanning is opportunistic: drop, don't displace
    }
    scanQueue.push_back(block_addr);
    stLinesEnqueued.inc();
}

void
ShadowBtbPrefetcher::prefill(Addr block_start, Addr pc, InstClass cls,
                             Addr target, bool bogus)
{
    // A shadow decoder must never inject a target outside the code
    // segment: real direct branches satisfy this by construction, and
    // synthesized bogus targets are clamped in-image before they get
    // here, so this guard is pure defense (pinned by unit tests).
    if (target < image->base() || target >= image->end() ||
        target % instBytes != 0) {
        stOutOfRange.inc();
        return;
    }
    // Prefill only entries the front-end has not learned yet: the
    // shadow decoder's block-geometry reconstruction is approximate
    // (see below), so overwriting trained entries would corrupt them.
    if (ftb != nullptr) {
        // The FTB is block-indexed; reconstruct the fetch block as the
        // run since the previous CF in this line (or the line start —
        // an approximation of the true basic-block head, which a
        // line-local decoder cannot know).
        if (ftb->lookup(block_start).has_value()) {
            stAlreadyKnown.inc();
            return;
        }
        unsigned num_insts =
            unsigned((pc - block_start) / instBytes) + 1;
        ftb->insert(block_start, num_insts, cls, target);
    } else {
        if (btb->lookup(pc).has_value()) {
            stAlreadyKnown.inc();
            return;
        }
        btb->insert(pc, cls, target);
    }
    if (bogus)
        stPrefillBogus.inc();
    else
        stPrefillCorrect.inc();
}

void
ShadowBtbPrefetcher::tick(Cycle now)
{
    unsigned budget = kScanWidth;
    unsigned slots_per_line = mem.l1i().config().blockBytes / instBytes;
    while (budget > 0 && !scanQueue.empty()) {
        Addr line = scanQueue.front();
        if (nextSlot == 0)
            blockStart = line;
        Addr pc = line + Addr(nextSlot) * instBytes;
        stInstsScanned.inc();
        const StaticInst &si = image->atOrPlain(pc);
        if (isControl(si.cls)) {
            if (isDirect(si.cls) && si.target != invalidAddr) {
                stBranchesFound.inc();
                prefill(blockStart, pc, si.cls, si.target, false);
            } else {
                // Returns and indirect branches have no statically
                // decodable target; a shadow decoder must skip them.
                stIndirectSkipped.inc();
            }
            blockStart = pc + instBytes;
        } else if (cfg.bogusNoiseDenom > 0 &&
                   slotHash(pc) % cfg.bogusNoiseDenom == 0) {
            // Branch-looking bytes: synthesize a deterministic
            // in-image target and pre-fill it as a bogus branch.
            std::uint64_t h = slotHash(pc ^ 0x5bd1e995u);
            Addr target = image->base() +
                Addr(h % image->numInsts()) * instBytes;
            InstClass cls =
                (h >> 32) & 1 ? InstClass::Jump : InstClass::CondBr;
            stBranchesFound.inc();
            prefill(blockStart, pc, cls, target, true);
            blockStart = pc + instBytes;
        }
        --budget;
        if (++nextSlot >= slots_per_line) {
            scanQueue.pop_front();
            recentlyScanned.insert(line);
            stLinesScanned.inc();
            nextSlot = 0;
        }
    }
}

Cycle
ShadowBtbPrefetcher::nextEventCycle(Cycle now) const
{
    // A non-empty scan queue decodes more slots next cycle; otherwise
    // the scheme is purely reactive to demand accesses (which only
    // happen on ticked cycles).
    return scanQueue.empty() ? kNever : now + 1;
}

} // namespace fdip
