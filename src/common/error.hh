/**
 * @file error.hh
 * Recoverable simulation errors and the fatal-mode switch.
 *
 * The failure model (docs/ROBUSTNESS.md) distinguishes three tiers:
 *  - panic()   — simulator invariant violated; always aborts.
 *  - fatal()   — the *simulation* cannot continue (bad config, wedged
 *                run). By default it exits the process; in
 *                FatalMode::Throw, which every sweep driver sets, it
 *                raises SimError instead, so the failing grid point is
 *                isolated and the rest of the sweep stays alive.
 *  - SimTimeout — a watchdog fired (FDIP_SIM_TIMEOUT_S wall deadline,
 *                SimConfig::maxCycles ceiling, or the wedge cycle
 *                cap). A SimError subtype so harnesses can render
 *                TIMEOUT distinctly from FAIL.
 */

#ifndef FDIP_COMMON_ERROR_HH
#define FDIP_COMMON_ERROR_HH

#include <stdexcept>
#include <string>

namespace fdip
{

/** A simulation-scoped failure: one grid point is lost, the process
 *  (and any sweep it is running) can continue. */
class SimError : public std::runtime_error
{
  public:
    explicit SimError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** A watchdog expired: the simulation was hung or over its cycle
 *  budget, not wrong. Distinguishable so tables can say TIMEOUT. */
class SimTimeout : public SimError
{
  public:
    explicit SimTimeout(const std::string &what_arg)
        : SimError(what_arg)
    {}
};

/**
 * What fatal()/fatal_if() and the watchdogs do on failure. Abort (the
 * default) preserves the historical exit(1) so tests and one-shot
 * tools fail loudly; Throw raises SimError/SimTimeout for harnesses
 * that isolate per-point failures (experimentMain() and perfbench set
 * it around their sweeps).
 */
enum class FatalMode
{
    Abort = 0,
    Throw = 1,
};

/** Current mode (process-wide; Abort until setFatalMode()). */
FatalMode fatalMode();

/** Set the process-wide mode. */
void setFatalMode(FatalMode mode);

/**
 * Watchdog failure: throws SimTimeout in FatalMode::Throw, otherwise
 * reports like fatal() and exits. Used for the per-simulation wall
 * deadline, the maxCycles ceiling, and the wedge cycle cap.
 */
[[noreturn]] void simTimeoutImpl(const char *file, int line,
                                 const char *fmt, ...);

/**
 * Metric sentinels for isolated point failures. Both are quiet NaNs,
 * so *any* arithmetic touching a faulted point's metrics (a hand-
 * computed speedup ratio, a mean) degrades to NaN and renders FAIL —
 * a -infinity sentinel would not: finite/-inf is a finite -0, which
 * silently poisons derived columns. The timed-out sentinel carries a
 * recognizable mantissa payload so cells holding the *stored* value
 * render TIMEOUT; values derived from it are NaN too, rendering
 * TIMEOUT or FAIL depending on whether the hardware propagates the
 * payload — never a number.
 */
double failedSentinel();
double timedOutSentinel();
/** True iff @p v is bit-exactly the timed-out sentinel. */
bool isTimedOutSentinel(double v);

} // namespace fdip

#define sim_timeout(...)                                                     \
    ::fdip::simTimeoutImpl(__FILE__, __LINE__, __VA_ARGS__)

#endif // FDIP_COMMON_ERROR_HH
