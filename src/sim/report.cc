#include "sim/report.hh"

#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.hh"

namespace fdip
{

namespace
{

/** Histograms wider than this are malformed input, not FTQ depths. */
constexpr std::uint64_t kMaxHistogramBuckets = 1 << 16;

std::string
histogramText(const char *name, const Histogram &h)
{
    std::string out = strprintf("%s %llu buckets,", name,
                                static_cast<unsigned long long>(
                                    h.numBuckets()));
    for (std::size_t v = 0; v < h.numBuckets(); ++v)
        out += " " + metricText(h.bucket(v));
    return out + "\n";
}

/** @p line is "<key> <rest>": store rest in @p rest. */
bool
splitKey(const std::string &line, const char *key, std::string &rest)
{
    std::size_t n = std::strlen(key);
    if (line.size() <= n || line.compare(0, n, key) != 0 || line[n] != ' ')
        return false;
    rest = line.substr(n + 1);
    return true;
}

/** "<N> buckets, <b0> ... <bN-1>" back into a histogram. */
bool
parseHistogram(const std::string &text, Histogram &h)
{
    std::istringstream in(text);
    std::uint64_t n = 0;
    std::string word;
    if (!(in >> n >> word) || word != "buckets," || n == 0 ||
        n > kMaxHistogramBuckets)
        return false;
    Histogram out(n - 1);
    for (std::uint64_t v = 0; v < n; ++v) {
        std::uint64_t count = 0;
        if (!(in >> count))
            return false;
        if (count > 0)
            out.sample(v, count);
    }
    h = std::move(out);
    return true;
}

/** "<name> <value>" of a stat line into @p stats. */
bool
parseStat(const std::string &text, StatSet &stats)
{
    std::size_t sep = text.find(' ');
    if (sep == 0 || sep == std::string::npos)
        return false;
    const char *value = text.c_str() + sep + 1;
    char *end = nullptr;
    double d = std::strtod(value, &end);
    if (end == value || *end != '\0')
        return false;
    stats.set(text.substr(0, sep), d);
    return true;
}

/** Line cursor over serializeResults() text; keeps the first error. */
struct LineReader
{
    explicit LineReader(const std::string &text) : in(text) {}

    bool next() { return static_cast<bool>(std::getline(in, line)); }

    bool
    fail(const std::string &why)
    {
        if (error.empty())
            error = why;
        return false;
    }

    std::istringstream in;
    std::string line;
    std::string error;
};

/**
 * One row: identity, histograms and stats are read; the scalar lines
 * between them are skipped (deriveResults recomputes them and the
 * caller's round-trip check verifies them). A top-level row may carry
 * a per_core block; a nested row ends at its core_end line.
 */
bool
parseRow(LineReader &rd, SimResults &r, bool nested)
{
    std::string workload, scheme, text;
    if (!rd.next() || !splitKey(rd.line, "workload", workload))
        return rd.fail("expected 'workload'");
    if (!rd.next() || !splitKey(rd.line, "scheme", scheme))
        return rd.fail("expected 'scheme'");
    while (rd.next() && !splitKey(rd.line, "ftq_occupancy", text)) {}
    Histogram occ(0), pft(0);
    if (!parseHistogram(text, occ))
        return rd.fail("bad ftq_occupancy line");
    if (!rd.next() || !splitKey(rd.line, "pf_timeliness", text) ||
        !parseHistogram(text, pft))
        return rd.fail("bad pf_timeliness line");

    StatSet stats;
    std::vector<SimResults> cores;
    bool ended = !nested;
    while (rd.next()) {
        if (splitKey(rd.line, "stat", text)) {
            if (!parseStat(text, stats))
                return rd.fail("bad stat line '" + rd.line + "'");
        } else if (nested && rd.line == "core_end") {
            ended = true;
            break;
        } else if (!nested && cores.empty() &&
                   splitKey(rd.line, "per_core", text)) {
            std::uint64_t n = std::strtoull(text.c_str(), nullptr, 10);
            if (n == 0 || n > 64)
                return rd.fail("bad per_core count");
            for (std::uint64_t i = 0; i < n; ++i) {
                if (!rd.next() || rd.line != "core " + std::to_string(i))
                    return rd.fail("per-core rows out of order");
                SimResults row;
                if (!parseRow(rd, row, true))
                    return false;
                cores.push_back(std::move(row));
            }
        } else {
            return rd.fail("unexpected line '" + rd.line + "'");
        }
    }
    if (!ended)
        return rd.fail("truncated per-core row");
    r = deriveResults(std::move(workload), std::move(scheme),
                      std::move(stats), std::move(occ), std::move(pft));
    r.perCore = std::move(cores);
    return true;
}

} // namespace

std::string
experimentBanner(const std::string &id, const std::string &title,
                 const std::string &paper_shape)
{
    std::string bar(72, '=');
    return bar + "\n" + id + ": " + title + "\n" +
        "expected shape: " + paper_shape + "\n" + bar + "\n";
}

std::string
metricText(std::uint64_t v)
{
    return strprintf("%llu", static_cast<unsigned long long>(v));
}

std::string
metricText(double v)
{
    // %.17g round-trips IEEE doubles exactly, so equal strings mean
    // bit-equal values (modulo -0.0/0.0, which no counter produces).
    return strprintf("%.17g", v);
}

std::string
serializeResults(const SimResults &r)
{
    std::string out;
    out += "workload " + r.workload + "\n";
    out += "scheme " + r.scheme + "\n";
    forEachMetric(r, [&out](const char *name, auto value) {
        out += name;
        out += " " + metricText(value) + "\n";
    });
    out += histogramText("ftq_occupancy", r.ftqOccupancy);
    out += histogramText("pf_timeliness", r.pfTimeliness);
    for (const auto &[name, val] : r.stats.entries())
        out += "stat " + name + " " + metricText(val) + "\n";
    // Multi-core machines append one nested row per core; single-core
    // results emit nothing here, keeping their serialization
    // byte-identical to the pre-multicore format.
    if (!r.perCore.empty()) {
        out += "per_core " + metricText(r.perCore.size()) + "\n";
        for (std::size_t i = 0; i < r.perCore.size(); ++i) {
            out += "core " + metricText(i) + "\n";
            out += serializeResults(r.perCore[i]);
            out += "core_end\n";
        }
    }
    return out;
}

std::optional<SimResults>
parseResults(const std::string &text, std::string *error)
{
    LineReader rd(text);
    SimResults r;
    if (parseRow(rd, r, false) && serializeResults(r) != text) {
        rd.fail("the stored metrics differ from the ones its stats "
                "derive");
    }
    if (!rd.error.empty()) {
        if (error)
            *error = rd.error;
        return std::nullopt;
    }
    return r;
}

std::string
summarizeRun(const SimResults &r)
{
    double skip_pct = r.totalCycles == 0 ? 0.0
        : static_cast<double>(r.skippedCycles) /
          static_cast<double>(r.totalCycles) * 100.0;
    return strprintf(
        "%-10s %-14s ipc=%.3f mpki=%6.2f l2bus=%5.1f%% acc=%5.1f%% "
        "cov=%5.1f%% host=%.2fs (%.0f kcyc/s) skip=%.1f%%",
        r.workload.c_str(), r.scheme.c_str(), r.ipc, r.mpki,
        r.l2BusUtil * 100.0, r.prefetchAccuracy * 100.0,
        r.prefetchCoverage * 100.0, r.hostSeconds, r.hostKcyclesPerSec,
        skip_pct);
}

} // namespace fdip
