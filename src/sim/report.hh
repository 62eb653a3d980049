/**
 * @file report.hh
 * Formatting helpers shared by the experiment tables, and the
 * one text format of a SimResults (serializeResults / parseResults).
 */

#ifndef FDIP_SIM_REPORT_HH
#define FDIP_SIM_REPORT_HH

#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/table.hh"
#include "sim/simulator.hh"

namespace fdip
{

/** "experiment banner" printed at the top of every experiment's
 *  tables. */
std::string experimentBanner(const std::string &id,
                             const std::string &title,
                             const std::string &paper_shape);

/** One-line summary of a run (workload, scheme, ipc, mpki, util). */
std::string summarizeRun(const SimResults &r);

/**
 * Visit the scalar fields of a result row in canonical order as
 * fn(name, value): cycles and instructions (std::uint64_t), then the
 * derived metrics (double). This is the one field list; both
 * serializeResults() and the --stats-json export render it, and the
 * Runner writes a failed point's sentinel through it. @p r may be a
 * const or a mutable SimResults; fn then gets const or mutable
 * references to its fields.
 */
template <typename Results, typename Fn>
    requires std::is_same_v<std::remove_const_t<Results>, SimResults>
void
forEachMetric(Results &r, Fn &&fn)
{
    fn("cycles", r.cycles);
    fn("instructions", r.instructions);
    fn("ipc", r.ipc);
    fn("mpki", r.mpki);
    fn("l2_bus_util", r.l2BusUtil);
    fn("mem_bus_util", r.memBusUtil);
    fn("prefetch_accuracy", r.prefetchAccuracy);
    fn("prefetch_coverage", r.prefetchCoverage);
    fn("prefetch_timely", r.prefetchTimely);
    fn("prefetch_late", r.prefetchLate);
    fn("prefetch_pollution", r.prefetchPollution);
    fn("cond_mispredict_per_kilo", r.condMispredictPerKilo);
}

/** Round-trip text of one field value: integers in decimal, doubles
 *  as %.17g (which strtod reads back bit-exactly). */
std::string metricText(std::uint64_t v);
std::string metricText(double v);

/**
 * Canonical, bit-exact serialization of every *simulated* field of a
 * SimResults — the forEachMetric() scalars, the FTQ occupancy and
 * prefetch-timeliness histograms, the complete StatSet, and a nested
 * block per core on a multi-core machine.
 * Host-side gauges (hostSeconds, hostKcyclesPerSec, skippedCycles,
 * totalCycles) are excluded: they vary with the machine and with the
 * idle-skip path, not with the simulated machine. Two runs of the
 * same config must serialize identically regardless of SimConfig::
 * forceTick — this is the comparison key of the differential parity
 * and golden-file regression tests, and the body of a result-cache
 * entry.
 */
std::string serializeResults(const SimResults &r);

/**
 * Parse serializeResults() text back into a result row, per-core rows
 * included. Only the identity lines, the histograms and the stat lines
 * are read: every scalar is re-derived by deriveResults(), and the row
 * must serialize back to exactly @p text, so a stored scalar the stats
 * do not reproduce is rejected rather than trusted. Returns nullopt
 * (with a reason in @p error when non-null) on any mismatch or
 * malformation; never throws on bad input.
 */
std::optional<SimResults> parseResults(const std::string &text,
                                       std::string *error = nullptr);

} // namespace fdip

#endif // FDIP_SIM_REPORT_HH
