#include "trace/executor.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace fdip
{

SyntheticExecutor::SyntheticExecutor(const Program &program,
                                     const WorkloadProfile &prof)
    : prog(program), profile(prof), rng(prof.seed ^ 0xdecaf)
{
    panic_if(prog.funcs.empty(), "executor over empty program");
    enterBlock(0, 0);
}

void
SyntheticExecutor::enterBlock(std::uint32_t fn, std::uint32_t bb)
{
    curFn = fn;
    curBb = bb;
    instIdx = 0;
}

bool
SyntheticExecutor::condOutcome(const BasicBlock &bb, Addr pc)
{
    BranchState &st = branchState[pc];
    switch (bb.cond.kind) {
      case CondBehavior::Kind::Loop: {
        if (!st.loopActive) {
            unsigned trips = rng.geometric(bb.cond.param);
            st.loopActive = true;
            st.remainingTaken = trips - 1;
        }
        if (st.remainingTaken > 0) {
            --st.remainingTaken;
            return true;
        }
        st.loopActive = false;
        return false;
      }
      case CondBehavior::Kind::Pattern: {
        bool taken = (bb.cond.pattern >> st.patternPos) & 1;
        st.patternPos = static_cast<std::uint8_t>(
            (st.patternPos + 1) % bb.cond.patternLen);
        return taken;
      }
      case CondBehavior::Kind::Biased:
        return rng.chance(bb.cond.param);
    }
    panic("unreachable cond kind");
}

std::uint32_t
SyntheticExecutor::pickIndirect(const BasicBlock &bb)
{
    // Weighted pick, with a phase-dependent rotation of the popularity
    // ranking: as phases advance, a different subset of targets gets
    // hot, shifting the instruction working set.
    WeightedChoice choice(bb.indWeights);
    std::size_t idx = choice.sample(rng);
    if (profile.phaseLen > 0) {
        std::uint64_t phase = count / profile.phaseLen;
        idx = (idx + phase) % bb.indTargets.size();
    }
    return bb.indTargets[idx];
}

void
SyntheticExecutor::nextInto(TraceInstr &out)
{
    const Function &fn = prog.funcs[curFn];
    const BasicBlock &bb = fn.blocks[curBb];

    out.pc = bb.start + Addr(instIdx) * instBytes;

    bool is_terminator =
        (instIdx + 1 == bb.numInsts) && bb.term != InstClass::NonCF;

    if (!is_terminator) {
        out.cls = InstClass::NonCF;
        out.target = invalidAddr;
        out.taken = false;
        ++instIdx;
        if (instIdx == bb.numInsts) {
            // NonCF-terminated block: fall through to the next block.
            enterBlock(curFn, curBb + 1);
        }
        ++count;
        ++classCount[static_cast<std::size_t>(InstClass::NonCF)];
        return;
    }

    out.cls = bb.term;
    switch (bb.term) {
      case InstClass::CondBr: {
        out.target = fn.blocks[bb.targetBb].start;
        out.taken = condOutcome(bb, out.pc);
        enterBlock(curFn, out.taken ? bb.targetBb : curBb + 1);
        condTaken += out.taken;
        break;
      }
      case InstClass::Jump:
        out.target = fn.blocks[bb.targetBb].start;
        out.taken = true;
        enterBlock(curFn, bb.targetBb);
        break;
      case InstClass::Call: {
        out.target = prog.funcs[bb.targetFn].entry;
        out.taken = true;
        stack.push_back({curFn, curBb + 1});
        panic_if(stack.size() > 4096, "runaway call depth");
        enterBlock(bb.targetFn, 0);
        break;
      }
      case InstClass::Return: {
        out.taken = true;
        if (stack.empty()) {
            // The dispatcher never returns; a stray return restarts it.
            out.target = prog.funcs[0].entry;
            enterBlock(0, 0);
        } else {
            Frame f = stack.back();
            stack.pop_back();
            out.target = prog.funcs[f.fn].blocks[f.bb].start;
            enterBlock(f.fn, f.bb);
        }
        break;
      }
      case InstClass::IndCall: {
        std::uint32_t callee = pickIndirect(bb);
        out.target = prog.funcs[callee].entry;
        out.taken = true;
        stack.push_back({curFn, curBb + 1});
        panic_if(stack.size() > 4096, "runaway call depth");
        enterBlock(callee, 0);
        break;
      }
      case InstClass::IndJump: {
        std::uint32_t target = pickIndirect(bb);
        out.target = prog.funcs[target].entry;
        out.taken = true;
        enterBlock(target, 0);
        break;
      }
      case InstClass::NonCF:
        panic("terminator dispatch on NonCF");
    }

    ++count;
    ++classCount[static_cast<std::size_t>(bb.term)];
}

StatSet
SyntheticExecutor::classStats() const
{
    StatSet s;
    auto add = [&s](const std::string &name, std::uint64_t n) {
        if (n != 0)
            s.inc("dyn." + name, n);
    };
    for (std::size_t c = 0; c < classCount.size(); ++c)
        add(instClassName(static_cast<InstClass>(c)), classCount[c]);
    std::uint64_t cond =
        classCount[static_cast<std::size_t>(InstClass::CondBr)];
    add("cond_taken", condTaken);
    add("cond_nottaken", cond - condTaken);
    return s;
}

const TraceInstr &
TraceWindow::generateThrough(InstSeqNum seq)
{
    panic_if(seq < base, "TraceWindow::at(%llu) below window base %llu",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(base));
    while (seq - base >= buf.size()) {
        if (buf.full()) {
            CircularQueue<TraceInstr> bigger(2 * buf.capacity());
            for (std::size_t i = 0; i < buf.size(); ++i)
                bigger.append() = buf.at(i);
            buf = std::move(bigger);
        }
        src.nextInto(buf.append());
    }
    return buf.at(seq - base);
}

void
TraceWindow::retireUpTo(InstSeqNum seq)
{
    if (seq <= base)
        return;
    InstSeqNum n = seq - base;
    std::size_t held = std::min<InstSeqNum>(n, buf.size());
    buf.pop(held);
    // Keep sequence numbering dense even when retiring past the
    // generated window: generate and discard.
    for (InstSeqNum k = held; k < n; ++k)
        src.next();
    base = seq;
}

} // namespace fdip
