/**
 * @file fault.hh
 * Deterministic fault injection for the robustness test harness.
 *
 * FDIP_FAULT holds a comma-separated list of faults (grammar in
 * docs/ROBUSTNESS.md):
 *
 *   throw@<idx>        the simulation of sweep point <idx> throws
 *                      SimError at startup.
 *   hang@<idx>         simulations of point <idx> block instead of
 *                      running, until the wall watchdog raises
 *                      SimTimeout (forever if no deadline is set).
 *   corrupt-cache@<n>  the <n>-th ResultCache::store() of the process
 *                      (counting from 0) writes a torn entry.
 *   truncate-trace@<idx>[x<n>]
 *                      the trace source feeding sweep point <idx>
 *                      throws SimError ("dies mid-stream") once it has
 *                      delivered <n> records (default 1024) — models a
 *                      trace file truncated behind the reader's back.
 *
 * Point indices are the deterministic enqueue order of *distinct*
 * grid points in a Runner sweep (Runner::Point::index). Faults are
 * injected unconditionally — they do not depend on the fatal mode —
 * because an injected throw exists precisely to exercise the
 * isolation path. With FDIP_FAULT unset every hook is a no-op.
 */

#ifndef FDIP_COMMON_FAULT_HH
#define FDIP_COMMON_FAULT_HH

#include <cstdint>
#include <string>

namespace fdip
{

class FaultInjector
{
  public:
    /** Process-wide injector, configured from FDIP_FAULT on first use. */
    static FaultInjector &instance();

    /** Replace the fault plan (tests; same grammar as FDIP_FAULT).
     *  Also resets the store counter used by corrupt-cache@<n>. */
    void configure(const std::string &spec);

    /** Drop all faults and reset counters. */
    void reset() { configure(""); }

    /** True if any fault is armed (cheap; lets hot paths skip work). */
    bool any() const { return armed_; }

    /**
     * Declares "this thread is now simulating sweep point
     * @p point_index" for the duration of the scope. Faults that
     * target a point index only fire inside such a scope.
     */
    class PointScope
    {
      public:
        explicit PointScope(std::uint64_t point_index);
        ~PointScope();

        PointScope(const PointScope &) = delete;
        PointScope &operator=(const PointScope &) = delete;
    };

    /** Hook at simulation start: throws SimError if a throw@ fault is
     *  armed for the current point. */
    void maybeThrow();

    /**
     * Hook at simulation start: if a hang@ fault is armed for the
     * current point, blocks in small sleeps until @p timeout_s wall
     * seconds elapse, then throws SimTimeout. A timeout of 0 (no
     * deadline) blocks forever — exactly the failure a real livelock
     * would produce.
     */
    void maybeHang(double timeout_s);

    /** Hook in ResultCache::store(): true if this store (the process-
     *  wide counter matches corrupt-cache@<n>) should be torn. */
    bool corruptThisStore();

    /**
     * Hook in trace-source next(): throws SimError if a truncate-trace@
     * fault is armed for the current point and the source has already
     * delivered @p records_delivered records. @p path names the trace
     * in the error message.
     */
    void maybeTruncateTrace(std::uint64_t records_delivered,
                            const std::string &path);

  private:
    FaultInjector();

    bool armed_ = false;
};

} // namespace fdip

#endif // FDIP_COMMON_FAULT_HH
