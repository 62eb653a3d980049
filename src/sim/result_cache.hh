/**
 * @file result_cache.hh
 * On-disk cache of completed simulation results, shared across runs.
 *
 * Experiments re-simulate the same (workload, scheme) baselines; one
 * run simulates each once (the Runner's memo), and this cache lets
 * later runs reuse them across processes. Entries are keyed by
 * SimConfig::fingerprint() — the order-independent hash of every knob
 * that affects simulated behaviour — plus the run lengths, so an
 * entry produced by a different *config* is never served. The
 * simulator's *code* is covered by the derived build identity
 * (common/build_id.hh) written into every entry: a semantic change
 * to the sources auto-invalidates old entries with no manual
 * kFormatVersion bump.
 *
 * The cache is enabled by pointing FDIP_CACHE_DIR at a directory;
 * FDIP_NO_CACHE=1 disables it even when the directory is set. Writes
 * are atomic (temp file + rename), so concurrent runs can share one
 * directory.
 *
 * Hardening (docs/ROBUSTNESS.md): corrupt or stale entries are
 * quarantined — renamed aside with a `.bad` suffix and counted — so
 * a flaky disk leaves evidence instead of silently re-simulating;
 * opening a cache runs a size-budgeted GC (FDIP_CACHE_BUDGET_MB)
 * that evicts oldest-mtime entries first.
 */

#ifndef FDIP_SIM_RESULT_CACHE_HH
#define FDIP_SIM_RESULT_CACHE_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "sim/simulator.hh"

namespace fdip
{

class ResultCache
{
  public:
    /** Bumped only when the entry *envelope* (header, checksum)
     *  changes. The body is serializeResults() text whose scalars are
     *  re-derived from its stats on load, and the build identity line
     *  invalidates entries from different sources, so neither a new
     *  metric nor a behaviour change needs a bump. */
    static constexpr unsigned kFormatVersion = 6;

    /** FDIP_CACHE_BUDGET_MB in bytes; 0 (the default) = unlimited. */
    static std::uint64_t budgetBytesFromEnv();

    explicit ResultCache(std::string directory,
                         std::uint64_t budget_bytes = budgetBytesFromEnv());

    /**
     * Cache configured from the environment: FDIP_CACHE_DIR names the
     * directory, FDIP_NO_CACHE=1 force-disables. Returns nullptr when
     * disabled.
     */
    static std::unique_ptr<ResultCache> fromEnv();

    const std::string &dir() const { return directory; }

    /**
     * Load the entry for (fingerprint, warmup, measure). Returns
     * nullopt on a miss; a corrupt or stale entry (truncated file,
     * header mismatch) is warned about and treated as a miss.
     */
    std::optional<SimResults> load(std::uint64_t fingerprint,
                                   std::uint64_t warmup_insts,
                                   std::uint64_t measure_insts) const;

    /** Serialize @p r under (fingerprint, warmup, measure). Errors are
     *  warnings — a read-only cache directory degrades to a no-op. */
    void store(std::uint64_t fingerprint, std::uint64_t warmup_insts,
               std::uint64_t measure_insts, const SimResults &r) const;

    /** File an entry with this key lives in (exposed for tests). */
    std::string entryPath(std::uint64_t fingerprint,
                          std::uint64_t warmup_insts,
                          std::uint64_t measure_insts) const;

    /** Corrupt/stale entries quarantined (renamed to `.bad`) by this
     *  cache object so far. */
    std::size_t quarantined() const { return numQuarantined; }

    /** Entries evicted by the size-budget GC at open. */
    std::size_t evicted() const { return numEvicted; }

  private:
    /** Oldest-mtime-first eviction until the directory's entries fit
     *  the byte budget (0 = unlimited, no scan). */
    void collectGarbage(std::uint64_t budget_bytes);

    std::string directory;
    mutable std::atomic<std::size_t> numQuarantined{0};
    std::size_t numEvicted = 0;
};

/**
 * Text encoding of one cache entry: a header binding the entry to
 * (format version, build identity, fingerprint, run lengths), the
 * serializeResults() text of @p r, a checksum over everything before
 * it, and an "end" marker that catches truncation. The producing
 * run's host gauges are not stored: a loaded result reports zero.
 */
std::string encodeCacheEntry(std::uint64_t fingerprint,
                             std::uint64_t warmup_insts,
                             std::uint64_t measure_insts,
                             const SimResults &r);

/**
 * Decode @p text, validating the header against the expected key and
 * the checksum, then parsing the body with parseResults(). Returns
 * nullopt (with a reason in @p error when non-null) on any mismatch or
 * malformation.
 */
std::optional<SimResults> decodeCacheEntry(const std::string &text,
                                           std::uint64_t fingerprint,
                                           std::uint64_t warmup_insts,
                                           std::uint64_t measure_insts,
                                           std::string *error = nullptr);

} // namespace fdip

#endif // FDIP_SIM_RESULT_CACHE_HH
