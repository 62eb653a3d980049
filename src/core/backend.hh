/**
 * @file backend.hh
 * Retire-width drain model of the execution backend. The front-end
 * delivers instructions into a bounded queue; the backend commits up to
 * retireWidth correct-path instructions per cycle. Wrong-path
 * instructions occupy queue slots (window pressure) until the redirect
 * squashes them. FDIP is a front-end technique; this is all the paper's
 * speedup numbers need from the core.
 *
 * Wrong-path instructions are always younger than correct-path ones,
 * so they form the queue's tail, and the queue is two counts: the
 * correct-path head and the wrong-path tail.
 */

#ifndef FDIP_CORE_BACKEND_HH
#define FDIP_CORE_BACKEND_HH

#include <cstddef>

#include "common/stats.hh"
#include "common/types.hh"

namespace fdip
{

class Backend
{
  public:
    struct Config
    {
        unsigned retireWidth = 4;
        std::size_t queueDepth = 32;
    };

    explicit Backend(const Config &config);

    /** Free queue slots this cycle. */
    std::size_t freeSlots() const { return cfg.queueDepth - correct - wrong; }

    /**
     * Append @p correct_path correct-path instructions, then
     * @p wrong_path wrong-path ones. They must fit in freeSlots(), and
     * no correct-path instruction may follow a queued wrong-path one.
     */
    void deliver(std::size_t correct_path, std::size_t wrong_path);

    /** Commit up to retireWidth correct-path instructions. */
    void tick(Cycle now);

    /**
     * Quiescence protocol: now + 1 when the backend can retire next
     * cycle; kNever when it is drained or its head is wrong-path
     * (only a delivery or redirect — someone else's event — can
     * unblock it). Never returns a cycle <= @p now.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Bulk-apply the per-cycle accounting of @p cycles ticks in which
     * the backend provably retires nothing (cycles, starved cycles,
     * lost retire slots). Callers may only charge ranges in which
     * nextEventCycle() reported quiescence.
     */
    void chargeIdleCycles(Cycle now, Cycle cycles);

    /** Drop queued wrong-path instructions (mispredict recovery). */
    void squashWrongPath();

    std::uint64_t committed() const { return numCommitted; }

    StatSet stats;

  private:
    StatSet::Counter stDelivered =
        stats.registerCounter("backend.delivered");
    StatSet::Counter stDeliveredWrongPath =
        stats.registerCounter("backend.delivered_wrong_path");
    StatSet::Counter stCycles = stats.registerCounter("backend.cycles");
    StatSet::Counter stStarvedCycles =
        stats.registerCounter("backend.starved_cycles");
    StatSet::Counter stRetireSlotsLost =
        stats.registerCounter("backend.retire_slots_lost");
    StatSet::Counter stSquashed = stats.registerCounter("backend.squashed");

    Config cfg;
    /** Queued correct-path instructions: the queue's head. */
    std::size_t correct = 0;
    /** Queued wrong-path instructions: the queue's tail. */
    std::size_t wrong = 0;
    std::uint64_t numCommitted = 0;
};

} // namespace fdip

#endif // FDIP_CORE_BACKEND_HH
