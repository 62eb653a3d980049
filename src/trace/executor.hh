/**
 * @file executor.hh
 * Stochastic executor: walks a synthetic Program and emits the dynamic
 * (correct-path) instruction stream, plus the TraceWindow adaptor the
 * simulator uses for bounded lookahead into that stream.
 */

#ifndef FDIP_TRACE_EXECUTOR_HH
#define FDIP_TRACE_EXECUTOR_HH

#include <array>
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

    /**
     * Write the next instruction into @p out, every field of it: @p out
     * is usually a TraceWindow ring slot that still holds an older
     * instruction. A source that throws leaves @p out unspecified.
     */
    virtual void nextInto(TraceInstr &out) = 0;

    /** The next instruction, by value. */
    TraceInstr
    next()
    {
        TraceInstr ti;
        nextInto(ti);
        return ti;
    }

  protected:
    // A source copies only as its whole derived type, never sliced.
    TraceSource() = default;
    TraceSource(const TraceSource &) = default;
    TraceSource &operator=(const TraceSource &) = default;
};

/**
 * Executes a synthetic program forever. Deterministic in the profile
 * seed. Loop branches follow per-activation trip counts, pattern
 * branches follow their bit patterns, biased branches flip i.i.d.
 * coins, and indirect calls rotate target popularity across phases.
 *
 * A copy is an independent executor at the same point of the same
 * stream: every member copies by value, and the only thing a copy
 * shares with its original is the immutable program, which must
 * outlive both. Copying reads the original and nothing else, so
 * threads may copy one executor concurrently (sharedStart()).
 */
class SyntheticExecutor : public TraceSource
{
  public:
    SyntheticExecutor(const Program &prog, const WorkloadProfile &profile);

    void nextInto(TraceInstr &out) override;

    std::uint64_t emitted() const { return count; }

    /**
     * Dynamic instruction-class counts (for characterization): one
     * `dyn.<class>` counter per class, plus `dyn.cond_taken` and
     * `dyn.cond_nottaken`, each listed only once it is nonzero.
     */
    StatSet classStats() const;

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
    /** Emitted instructions by InstClass, and taken conditionals. */
    std::array<std::uint64_t,
               static_cast<std::size_t>(InstClass::IndCall) + 1>
        classCount{};
    std::uint64_t condTaken = 0;

    bool condOutcome(const BasicBlock &bb, Addr pc);
    std::uint32_t pickIndirect(const BasicBlock &bb);
    void enterBlock(std::uint32_t fn, std::uint32_t bb);
};

/**
 * Sliding window over a TraceSource giving the simulator random access
 * by global sequence number. The window only ever grows forward, one
 * instruction per source call, each written straight into its ring
 * slot; retireUpTo() releases storage behind the commit point. The
 * ring doubles when at() must generate past a full one.
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
