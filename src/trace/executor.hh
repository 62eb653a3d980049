/**
 * @file executor.hh
 * Stochastic executor: walks a synthetic Program and emits the dynamic
 * (correct-path) instruction stream, plus the TraceWindow adaptor the
 * simulator uses for bounded lookahead into that stream.
 */

#ifndef FDIP_TRACE_EXECUTOR_HH
#define FDIP_TRACE_EXECUTOR_HH

#include <unordered_map>
#include <vector>

#include "common/circular_queue.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "trace/profile.hh"
#include "trace/program.hh"

namespace fdip
{

/** An endless stream of dynamic instructions. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;
    virtual TraceInstr next() = 0;
};

/**
 * Executes a synthetic program forever. Deterministic in the profile
 * seed. Loop branches follow per-activation trip counts, pattern
 * branches follow their bit patterns, biased branches flip i.i.d.
 * coins, and indirect calls rotate target popularity across phases.
 */
class SyntheticExecutor : public TraceSource
{
  public:
    SyntheticExecutor(const Program &prog, const WorkloadProfile &profile);

    TraceInstr next() override;

    std::uint64_t emitted() const { return count; }

    /** Dynamic instruction-class counts (for characterization). */
    const StatSet &classStats() const { return stats; }

  private:
    struct Frame
    {
        std::uint32_t fn;
        std::uint32_t bb;
    };

    struct BranchState
    {
        bool loopActive = false;
        std::uint32_t remainingTaken = 0;
        std::uint8_t patternPos = 0;
    };

    const Program &prog;
    WorkloadProfile profile;
    Rng rng;

    std::uint32_t curFn = 0;
    std::uint32_t curBb = 0;
    unsigned instIdx = 0;
    std::vector<Frame> stack;
    std::unordered_map<Addr, BranchState> branchState;
    std::uint64_t count = 0;
    StatSet stats;

    StatSet::Counter stNoncf = stats.registerCounter("dyn.noncf");
    StatSet::Counter stCond = stats.registerCounter("dyn.cond");
    StatSet::Counter stCondTaken = stats.registerCounter("dyn.cond_taken");
    StatSet::Counter stCondNottaken =
        stats.registerCounter("dyn.cond_nottaken");
    StatSet::Counter stJump = stats.registerCounter("dyn.jump");
    StatSet::Counter stCall = stats.registerCounter("dyn.call");
    StatSet::Counter stRet = stats.registerCounter("dyn.ret");
    StatSet::Counter stIndcall = stats.registerCounter("dyn.indcall");
    StatSet::Counter stIndjump = stats.registerCounter("dyn.indjump");

    bool condOutcome(const BasicBlock &bb, Addr pc);
    std::uint32_t pickIndirect(const BasicBlock &bb);
    void enterBlock(std::uint32_t fn, std::uint32_t bb);
};

/**
 * Sliding window over a TraceSource giving the simulator random access
 * by global sequence number. The window only ever grows forward;
 * retireUpTo() releases storage behind the commit point. It lives in a
 * ring that doubles when at() must generate past a full one.
 */
class TraceWindow
{
  public:
    explicit TraceWindow(TraceSource &source) : src(source), buf(256) {}

    /**
     * Instruction @p seq; generates forward on demand. The reference is
     * valid only until the next at(): generating may move the window
     * into a larger ring.
     */
    const TraceInstr &
    at(InstSeqNum seq)
    {
        // seq < base wraps to a huge offset and takes the slow path,
        // which reports it.
        if (seq - base < buf.size())
            return buf.at(seq - base);
        return generateThrough(seq);
    }

    /** Instructions below @p seq may be discarded. */
    void retireUpTo(InstSeqNum seq);

    std::size_t windowSize() const { return buf.size(); }
    InstSeqNum baseSeq() const { return base; }

  private:
    /** at() past the generated window: generate up to @p seq. */
    const TraceInstr &generateThrough(InstSeqNum seq);

    TraceSource &src;
    CircularQueue<TraceInstr> buf;
    InstSeqNum base = 0;
};

} // namespace fdip

#endif // FDIP_TRACE_EXECUTOR_HH
