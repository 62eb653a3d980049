#include "core/backend.hh"

#include <algorithm>

#include "common/logging.hh"

namespace fdip
{

Backend::Backend(const Config &config)
    : cfg(config)
{
    fatal_if(cfg.retireWidth == 0, "retire width must be nonzero");
    fatal_if(cfg.queueDepth == 0, "backend queue needs at least one entry");
}

void
Backend::deliver(std::size_t correct_path, std::size_t wrong_path)
{
    panic_if(correct_path + wrong_path > freeSlots(),
             "deliver to full backend queue");
    panic_if(correct_path > 0 && wrong > 0,
             "correct-path delivery behind wrong-path instructions");
    correct += correct_path;
    wrong += wrong_path;
    stDelivered.inc(correct_path + wrong_path);
    if (wrong_path > 0)
        stDeliveredWrongPath.inc(wrong_path);
}

void
Backend::tick(Cycle now)
{
    // Wrong-path instructions are squashed by the redirect, never
    // committed; they just occupy window slots behind the head.
    std::size_t retired = std::min<std::size_t>(cfg.retireWidth, correct);
    correct -= retired;
    numCommitted += retired;
    stCycles.inc();
    if (retired == 0)
        stStarvedCycles.inc();
    stRetireSlotsLost.inc(cfg.retireWidth - retired);
}

Cycle
Backend::nextEventCycle(Cycle now) const
{
    return correct > 0 ? now + 1 : kNever;
}

void
Backend::chargeIdleCycles(Cycle now, Cycle cycles)
{
    panic_if(correct > 0, "idle-charging a backend that can retire");
    stCycles.inc(cycles);
    stStarvedCycles.inc(cycles);
    stRetireSlotsLost.inc(cycles * cfg.retireWidth);
}

void
Backend::squashWrongPath()
{
    stSquashed.inc(wrong);
    wrong = 0;
}

} // namespace fdip
