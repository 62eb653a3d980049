/**
 * @file bench_util.hh
 * Shared plumbing for the experiment specs: run lengths, the scheme
 * sets each figure uses, and output helpers.
 *
 * Each bench_*.cc declares its sweep as an ExperimentSpec
 * (sim/experiment.hh) and registers it with
 * FDIP_REGISTER_EXPERIMENT; fdip_experiments (experimentMain) parses
 * arguments, expands the grids, runs the sweep, and calls each spec's
 * render callback.
 */

#ifndef FDIP_BENCH_BENCH_UTIL_HH
#define FDIP_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/table.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/profile.hh"

namespace fdip::bench
{

/** Standard run lengths: long enough for stable means, short enough
 *  that the whole harness regenerates every figure in minutes. */
constexpr std::uint64_t kWarmup = 200 * 1000;
constexpr std::uint64_t kMeasure = 800 * 1000;

/** Shorter runs for wide parameter sweeps. */
constexpr std::uint64_t kSweepWarmup = 150 * 1000;
constexpr std::uint64_t kSweepMeasure = 500 * 1000;

inline std::vector<PrefetchScheme>
allSchemes()
{
    return {PrefetchScheme::Nlp, PrefetchScheme::StreamBuffer,
            PrefetchScheme::FdpNone, PrefetchScheme::FdpEnqueue,
            PrefetchScheme::FdpRemove, PrefetchScheme::FdpIdeal};
}

inline std::vector<PrefetchScheme>
fdpSchemes()
{
    return {PrefetchScheme::FdpNone, PrefetchScheme::FdpEnqueue,
            PrefetchScheme::FdpRemove, PrefetchScheme::FdpIdeal};
}

inline void
print(const std::string &s)
{
    std::fputs(s.c_str(), stdout);
    std::fflush(stdout);
}

} // namespace fdip::bench

#endif // FDIP_BENCH_BENCH_UTIL_HH
