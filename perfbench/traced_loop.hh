/**
 * @file traced_loop.hh
 * The benchmark's traced step loop: drives every core of a constructed
 * Simulator through the same public call sequence as Simulator::step()
 * and times each call from outside the simulator. Nothing inside src/
 * is instrumented; the spans are the gaps between consecutive
 * steady_clock stamps taken around the calls.
 */

#ifndef PERFBENCH_TRACED_LOOP_HH
#define PERFBENCH_TRACED_LOOP_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "sim/simulator.hh"

namespace fdip
{

/** One timed call site of the step loop, in step order. */
enum Span : unsigned
{
    SpanSkipCheck,   ///< nextEventCycle() chain of the idle-skip test
    SpanSkipCharge,  ///< chargeIdleCycles() + sampleOccupancy(idle)
    SpanMemTick,     ///< MemHierarchy::tick
    SpanMmuTick,     ///< Mmu::tick
    SpanRedirect,    ///< redirect recovery (bpu/ftq/fetch/backend/pf)
    SpanBackendTick, ///< Backend::tick
    SpanFetchTick,   ///< FetchEngine::tick
    SpanTlbPfTick,   ///< TlbPrefetcher::tick
    SpanPfTick,      ///< Prefetcher::tick, one call per prefetcher
    SpanPredict,     ///< Bpu::predictBlock
    SpanFtqPush,     ///< Ftq::push + Ftq::sampleOccupancy
    SpanRetire,      ///< TraceWindow::retireUpTo
    kNumSpans,
};

/** Per-layer metric name of each span (host ns per call). */
extern const std::array<const char *, kNumSpans> kSpanNames;

class TracedLoop
{
  public:
    explicit TracedLoop(Simulator &sim);

    /**
     * Step until every core has committed @p insts instructions, the
     * same stopping rule as Simulator::run(). Raises SimTimeout past
     * @p cycle_cap simulated cycles (a wedged machine).
     */
    void runUntilCommitted(std::uint64_t insts, Cycle cycle_cap);

    /** One Simulator::step(), timed call by call. */
    void step();

    Cycle now() const { return now_; }
    /** Idle-skip attempts (one per step while skipping is enabled). */
    std::uint64_t skipAttempts() const { return calls_[SpanSkipCheck]; }
    /** Attempts that jumped at least one cycle. */
    std::uint64_t skipJumps() const { return calls_[SpanSkipCharge]; }
    Cycle skippedCycles() const { return skipped_; }

    double spanNs(Span s) const;
    std::uint64_t spanCalls(Span s) const { return calls_[s]; }
    /** Host seconds inside step(), all spans together. */
    double loopSeconds() const;

  private:
    using Clock = std::chrono::steady_clock;

    /** Charge the time since the last stamp to @p s. */
    void
    mark(Span s)
    {
        Clock::time_point t = Clock::now();
        ticks_[s] += t - last_;
        ++calls_[s];
        last_ = t;
    }

    /** Simulator::skipIdleCycles()'s test: cycles to jump, or 0. */
    Cycle idleCycles() const;
    void stepCore(Simulator::Core &c);

    std::vector<Simulator::Core *> cores_;
    bool skipping_;
    Cycle now_ = 0;
    Cycle skipped_ = 0;

    Clock::time_point last_;
    std::array<Clock::duration, kNumSpans> ticks_{};
    std::array<std::uint64_t, kNumSpans> calls_{};
};

/**
 * Every component's collectStats() of every core plus the shared
 * memory, gathered through public accessors in Simulator's own order.
 */
StatSet collectMachineStats(Simulator &sim);

} // namespace fdip

#endif // PERFBENCH_TRACED_LOOP_HH
