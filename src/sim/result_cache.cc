#include "sim/result_cache.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include <algorithm>
#include <vector>

#include "common/build_id.hh"
#include "common/env.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "sim/report.hh"

namespace fdip
{

namespace
{

std::string
hex64(std::uint64_t v)
{
    return strprintf("%016llx", static_cast<unsigned long long>(v));
}

/** Names of the header lines, for the reason a mismatch is reported. */
constexpr const char *kHeaderLines[] = {
    "format version", "build identity", "config fingerprint",
    "warmup length", "measure length"};

/** The header that binds an entry to its key and to this build. */
std::string
entryHeader(std::uint64_t fingerprint, std::uint64_t warmup_insts,
            std::uint64_t measure_insts)
{
    return strprintf("fdip-result-cache %u\nbuild %s\nfingerprint %s\n"
                     "warmup %llu\nmeasure %llu\n",
                     ResultCache::kFormatVersion,
                     hex64(buildIdentity()).c_str(),
                     hex64(fingerprint).c_str(),
                     static_cast<unsigned long long>(warmup_insts),
                     static_cast<unsigned long long>(measure_insts));
}

constexpr char kChecksumKey[] = "\nchecksum ";
constexpr char kEndMarker[] = "\nend\n";

} // namespace

std::string
encodeCacheEntry(std::uint64_t fingerprint, std::uint64_t warmup_insts,
                 std::uint64_t measure_insts, const SimResults &r)
{
    std::string out = entryHeader(fingerprint, warmup_insts,
                                  measure_insts) +
        serializeResults(r);
    // The checksum covers every byte above it, so a flipped bit is
    // caught even in a stat no metric is derived from.
    out += "checksum " + hex64(fnv1aHash(out)) + kEndMarker;
    return out;
}

std::optional<SimResults>
decodeCacheEntry(const std::string &text, std::uint64_t fingerprint,
                 std::uint64_t warmup_insts, std::uint64_t measure_insts,
                 std::string *error)
{
    auto failed = [error](std::string why) -> std::optional<SimResults> {
        if (error)
            *error = std::move(why);
        return std::nullopt;
    };

    std::string header = entryHeader(fingerprint, warmup_insts,
                                     measure_insts);
    std::istringstream got(text), want(header);
    std::string got_line, want_line;
    for (const char *what : kHeaderLines) {
        std::getline(want, want_line);
        if (!std::getline(got, got_line))
            return failed("truncated before the " + std::string(what));
        if (got_line != want_line) {
            return failed(strprintf("stale entry: %s mismatch (entry "
                                    "'%s', want '%s')",
                                    what, got_line.c_str(),
                                    want_line.c_str()));
        }
    }

    const std::size_t end_len = std::strlen(kEndMarker);
    if (text.size() < header.size() + end_len ||
        text.compare(text.size() - end_len, end_len, kEndMarker) != 0)
        return failed("truncated entry (no 'end' marker)");
    std::size_t sum_at = text.rfind(kChecksumKey, text.size() - end_len);
    if (sum_at == std::string::npos || sum_at + 1 < header.size())
        return failed("no checksum line");
    std::size_t sum_from = sum_at + std::strlen(kChecksumKey);
    if (text.compare(sum_from, text.size() - end_len - sum_from,
                     hex64(fnv1aHash(text.substr(0, sum_at + 1)))) != 0)
        return failed("checksum mismatch (corrupt entry)");

    std::string why;
    auto r = parseResults(text.substr(header.size(),
                                      sum_at + 1 - header.size()),
                          &why);
    if (!r)
        return failed("bad results body: " + why);
    return r;
}

std::uint64_t
ResultCache::budgetBytesFromEnv()
{
    return envUint("FDIP_CACHE_BUDGET_MB", 0) * 1024 * 1024;
}

ResultCache::ResultCache(std::string dir, std::uint64_t budget_bytes)
    : directory(std::move(dir))
{
    std::error_code ec;
    std::filesystem::create_directories(directory, ec);
    if (ec)
        warn("result cache: cannot create '%s': %s (writes will fail)",
             directory.c_str(), ec.message().c_str());
    collectGarbage(budget_bytes);
}

void
ResultCache::collectGarbage(std::uint64_t budget_bytes)
{
    if (budget_bytes == 0)
        return; // unlimited: opening the cache stays O(1)

    struct File
    {
        std::string path;
        std::filesystem::file_time_type mtime;
        std::uint64_t size;
    };
    std::vector<File> files;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator(directory, ec)) {
        if (!de.is_regular_file(ec))
            continue;
        std::string path = de.path().string();
        // Quarantined (.bad) files count against the budget too: they
        // are kept as evidence, not forever.
        bool entry = path.size() >= 7 &&
            path.compare(path.size() - 7, 7, ".result") == 0;
        bool bad = path.size() >= 4 &&
            path.compare(path.size() - 4, 4, ".bad") == 0;
        if (!entry && !bad)
            continue;
        std::uint64_t size = de.file_size(ec);
        if (ec)
            continue;
        files.push_back({path, de.last_write_time(ec), size});
        total += size;
    }
    if (total <= budget_bytes)
        return;

    // Oldest first; ties broken by path so eviction order is
    // deterministic when a test backdates several entries at once.
    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });
    std::uint64_t freed = 0;
    for (const File &f : files) {
        if (total - freed <= budget_bytes)
            break;
        std::error_code rm;
        if (std::filesystem::remove(f.path, rm) && !rm) {
            freed += f.size;
            ++numEvicted;
        }
    }
    if (numEvicted > 0) {
        inform("result cache: evicted %zu oldest entries (%llu KB) to "
               "meet the %llu MB budget",
               numEvicted,
               static_cast<unsigned long long>(freed / 1024),
               static_cast<unsigned long long>(
                   budget_bytes / (1024 * 1024)));
    }
}

std::unique_ptr<ResultCache>
ResultCache::fromEnv()
{
    if (envFlag("FDIP_NO_CACHE"))
        return nullptr;
    const char *dir = std::getenv("FDIP_CACHE_DIR");
    if (!dir || *dir == '\0')
        return nullptr;
    return std::make_unique<ResultCache>(dir);
}

std::string
ResultCache::entryPath(std::uint64_t fingerprint,
                       std::uint64_t warmup_insts,
                       std::uint64_t measure_insts) const
{
    return strprintf("%s/fp%016llx-w%llu-m%llu.result",
                     directory.c_str(),
                     static_cast<unsigned long long>(fingerprint),
                     static_cast<unsigned long long>(warmup_insts),
                     static_cast<unsigned long long>(measure_insts));
}

std::optional<SimResults>
ResultCache::load(std::uint64_t fingerprint, std::uint64_t warmup_insts,
                  std::uint64_t measure_insts) const
{
    std::string path = entryPath(fingerprint, warmup_insts,
                                 measure_insts);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt; // plain miss
    std::ostringstream buf;
    buf << in.rdbuf();

    std::string why;
    auto r = decodeCacheEntry(buf.str(), fingerprint, warmup_insts,
                              measure_insts, &why);
    if (!r) {
        // Quarantine rather than delete: the file is evidence (flaky
        // disk? torn write? stale build?) and moving it aside both
        // preserves it and guarantees the re-simulated entry cannot
        // collide with the bad bytes.
        in.close();
        std::string bad = path + ".bad";
        std::error_code ec;
        std::filesystem::rename(path, bad, ec);
        if (ec)
            bad = strprintf("<rename failed: %s>", ec.message().c_str());
        numQuarantined.fetch_add(1, std::memory_order_relaxed);
        warn("result cache: rejecting entry '%s': %s (quarantined as "
             "'%s')",
             path.c_str(), why.c_str(), bad.c_str());
    }
    return r;
}

void
ResultCache::store(std::uint64_t fingerprint, std::uint64_t warmup_insts,
                   std::uint64_t measure_insts, const SimResults &r) const
{
    std::string path = entryPath(fingerprint, warmup_insts,
                                 measure_insts);
    // Write-then-rename keeps concurrently sharing processes safe: a
    // reader sees either no entry or a complete one, never a torn
    // write. Same-key writers race benignly (identical content).
    static std::atomic<unsigned long long> serial{0};
    std::string tmp = strprintf("%s.tmp%ld.%llu", path.c_str(),
                                static_cast<long>(::getpid()),
                                serial.fetch_add(1) + 1);
    std::string text = encodeCacheEntry(fingerprint, warmup_insts,
                                        measure_insts, r);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("result cache: cannot write '%s'", tmp.c_str());
            return;
        }
        out << text;
        if (!out) {
            warn("result cache: short write to '%s'", tmp.c_str());
            std::error_code ec;
            std::filesystem::remove(tmp, ec);
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("result cache: cannot publish '%s': %s", path.c_str(),
             ec.message().c_str());
        std::filesystem::remove(tmp, ec);
    }
}

} // namespace fdip
