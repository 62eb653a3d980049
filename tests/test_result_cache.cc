/**
 * Tests for the on-disk result cache (sim/result_cache.hh): entry
 * round-trip fidelity, cache-hit parity against a fresh simulation,
 * and rejection (with a warning) of corrupted or stale entries.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"

using namespace fdip;

namespace
{

SimConfig
smallConfig(const std::string &workload, PrefetchScheme scheme)
{
    SimConfig cfg = makeBaselineConfig(workload, scheme);
    cfg.warmupInsts = 10 * 1000;
    cfg.measureInsts = 30 * 1000;
    return cfg;
}

/** Fresh per-test cache directory under the gtest temp dir. */
std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "fdip-result-cache-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::string out((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    return out;
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << content;
}

} // namespace

TEST(ResultCacheCodec, RoundTripIsExact)
{
    SimConfig cfg = smallConfig("gcc", PrefetchScheme::FdpRemove);
    SimResults r = simulate(cfg);
    std::uint64_t fp = cfg.fingerprint();

    std::string text = encodeCacheEntry(fp, cfg.warmupInsts,
                                        cfg.measureInsts, r);
    auto back = decodeCacheEntry(text, fp, cfg.warmupInsts,
                                 cfg.measureInsts);
    ASSERT_TRUE(back.has_value());

    // Every simulated field round-trips bit-exactly: the canonical
    // serialization (scalars, histogram bins, full StatSet) is equal.
    EXPECT_EQ(serializeResults(r), serializeResults(*back));
    // The producing run's host gauges are not stored.
    EXPECT_EQ(back->hostSeconds, 0.0);
    EXPECT_EQ(back->totalCycles, 0u);
    // Histogram summary stats derive from reconstructed buckets.
    EXPECT_DOUBLE_EQ(r.ftqOccupancy.mean(), back->ftqOccupancy.mean());
    EXPECT_EQ(r.ftqOccupancy.count(), back->ftqOccupancy.count());
}

TEST(ResultCacheCodec, ParseResultsRederivesEveryMetric)
{
    // A 2-core machine, so the per-core rows round-trip too.
    SimConfig cfg = smallConfig("gcc", PrefetchScheme::FdpRemove);
    applyMultiCore(cfg, 2);
    SimResults r = simulate(cfg);
    ASSERT_EQ(r.perCore.size(), 2u);
    std::string text = serializeResults(r);

    std::string why;
    auto back = parseResults(text, &why);
    ASSERT_TRUE(back.has_value()) << why;
    EXPECT_EQ(serializeResults(*back), text);
    EXPECT_EQ(back->ipc, r.ipc);
    EXPECT_EQ(back->perCore[1].mpki, r.perCore[1].mpki);

    // A stored metric its stats do not reproduce is rejected.
    std::string ipc_line = "\nipc " + metricText(r.ipc) + "\n";
    std::size_t at = text.find(ipc_line);
    ASSERT_NE(at, std::string::npos);
    std::string forged = text;
    forged.replace(at, ipc_line.size(), "\nipc 9\n");
    EXPECT_FALSE(parseResults(forged, &why));
    EXPECT_NE(why.find("differ"), std::string::npos) << why;

    // Truncated per-core rows and foreign lines are malformed.
    EXPECT_FALSE(parseResults(text.substr(0, text.size() - 9), &why));
    EXPECT_FALSE(parseResults(text + "bogus 1\n", &why));
    EXPECT_FALSE(parseResults("", &why));
}

TEST(ResultCacheCodec, RejectsWrongKeyAndMalformedText)
{
    SimConfig cfg = smallConfig("li", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    std::uint64_t fp = cfg.fingerprint();
    std::string text = encodeCacheEntry(fp, cfg.warmupInsts,
                                        cfg.measureInsts, r);

    std::string why;
    // Stale keys: fingerprint, warmup, or measure mismatch.
    EXPECT_FALSE(decodeCacheEntry(text, fp + 1, cfg.warmupInsts,
                                  cfg.measureInsts, &why));
    EXPECT_NE(why.find("fingerprint"), std::string::npos);
    EXPECT_FALSE(decodeCacheEntry(text, fp, cfg.warmupInsts + 1,
                                  cfg.measureInsts, &why));
    EXPECT_NE(why.find("warmup"), std::string::npos);
    EXPECT_FALSE(decodeCacheEntry(text, fp, cfg.warmupInsts,
                                  cfg.measureInsts + 1, &why));
    EXPECT_NE(why.find("measure"), std::string::npos);

    // Truncation (the "end" marker is missing).
    std::string cut = text.substr(0, text.size() / 2);
    EXPECT_FALSE(decodeCacheEntry(cut, fp, cfg.warmupInsts,
                                  cfg.measureInsts, &why));

    // Garbage.
    EXPECT_FALSE(decodeCacheEntry("not a cache entry\n", fp,
                                  cfg.warmupInsts, cfg.measureInsts,
                                  &why));
    EXPECT_FALSE(decodeCacheEntry("", fp, cfg.warmupInsts,
                                  cfg.measureInsts, &why));
}

TEST(ResultCache, HitParityVsFreshSimulation)
{
    std::string dir = freshCacheDir("parity");

    // Producer: populates the cache (all misses).
    Runner producer(10 * 1000, 30 * 1000);
    producer.setCacheDir(dir);
    producer.setJobs(1);
    producer.enqueue("gcc", PrefetchScheme::FdpRemove);
    producer.runPending();
    EXPECT_EQ(producer.cacheHits(), 0u);
    EXPECT_EQ(producer.cacheMisses(), 1u);
    const SimResults &fresh =
        producer.run("gcc", PrefetchScheme::FdpRemove);

    // Consumer: a separate Runner ("another run") sharing the dir.
    Runner consumer(10 * 1000, 30 * 1000);
    consumer.setCacheDir(dir);
    consumer.setJobs(1);
    consumer.enqueue("gcc", PrefetchScheme::FdpRemove);
    consumer.runPending();
    EXPECT_EQ(consumer.cacheHits(), 1u);
    EXPECT_EQ(consumer.cacheMisses(), 0u);
    const SimResults &cached =
        consumer.run("gcc", PrefetchScheme::FdpRemove);

    // And a cache-less Runner as the ground truth.
    Runner plain(10 * 1000, 30 * 1000);
    plain.disableCache();
    const SimResults &truth =
        plain.run("gcc", PrefetchScheme::FdpRemove);

    EXPECT_EQ(serializeResults(truth), serializeResults(cached));
    EXPECT_EQ(serializeResults(truth), serializeResults(fresh));
}

TEST(ResultCache, CorruptedEntryRejectedWithWarning)
{
    std::string dir = freshCacheDir("corrupt");

    Runner producer(10 * 1000, 30 * 1000);
    producer.setCacheDir(dir);
    producer.setJobs(1);
    producer.enqueue("li", PrefetchScheme::None);
    producer.runPending();
    EXPECT_EQ(producer.cacheMisses(), 1u);

    // Corrupt the stored entry in place.
    SimConfig cfg = smallConfig("li", PrefetchScheme::None);
    ResultCache cache(dir);
    std::string path = cache.entryPath(cfg.fingerprint(),
                                       cfg.warmupInsts,
                                       cfg.measureInsts);
    std::string content = readFile(path);
    ASSERT_FALSE(content.empty());
    writeFile(path, content.substr(0, content.size() / 3) + "garbage");

    // A consumer must warn, treat it as a miss, and re-simulate.
    ::testing::internal::CaptureStderr();
    Runner consumer(10 * 1000, 30 * 1000);
    consumer.setCacheDir(dir);
    consumer.setJobs(1);
    consumer.enqueue("li", PrefetchScheme::None);
    consumer.runPending();
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(consumer.cacheHits(), 0u);
    EXPECT_EQ(consumer.cacheMisses(), 1u);
    EXPECT_NE(err.find("rejecting entry"), std::string::npos) << err;

    // The re-simulation overwrote the corrupt entry: next load hits.
    Runner verifier(10 * 1000, 30 * 1000);
    verifier.setCacheDir(dir);
    verifier.run("li", PrefetchScheme::None);
    EXPECT_EQ(verifier.cacheHits(), 1u);
}

TEST(ResultCache, StaleFingerprintEntryRejectedWithWarning)
{
    std::string dir = freshCacheDir("stale");
    ResultCache cache(dir);

    SimConfig produced = smallConfig("gcc", PrefetchScheme::None);
    SimResults r = simulate(produced);

    // Plant the produced entry at the *path* of a different config,
    // simulating a stale/aliased file. The embedded fingerprint
    // cannot match, so the load must reject it.
    SimConfig wanted = smallConfig("gcc", PrefetchScheme::FdpRemove);
    ASSERT_NE(produced.fingerprint(), wanted.fingerprint());
    writeFile(cache.entryPath(wanted.fingerprint(),
                              wanted.warmupInsts, wanted.measureInsts),
              encodeCacheEntry(produced.fingerprint(),
                               produced.warmupInsts,
                               produced.measureInsts, r));

    ::testing::internal::CaptureStderr();
    auto loaded = cache.load(wanted.fingerprint(), wanted.warmupInsts,
                             wanted.measureInsts);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded.has_value());
    EXPECT_NE(err.find("fingerprint mismatch"), std::string::npos)
        << err;
}

TEST(ResultCache, OldFormatVersionEntriesRejectedWithWarning)
{
    // v6 made the entry body the canonical serialization; any entry
    // left on disk by an older build must be rejected as stale, warned
    // about, and re-simulated. This pin is deliberate: changing the
    // envelope without bumping the version would let old entries
    // half-decode.
    ASSERT_EQ(ResultCache::kFormatVersion, 6u);

    std::string dir = freshCacheDir("oldversion");
    ResultCache cache(dir);

    SimConfig cfg = smallConfig("li", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    std::string text = encodeCacheEntry(cfg.fingerprint(),
                                        cfg.warmupInsts,
                                        cfg.measureInsts, r);

    // Rewrite the header as the previous format version.
    std::string cur_header =
        "fdip-result-cache " + std::to_string(ResultCache::kFormatVersion);
    ASSERT_EQ(text.compare(0, cur_header.size(), cur_header), 0);
    std::string stale = "fdip-result-cache 2" +
        text.substr(cur_header.size());
    writeFile(cache.entryPath(cfg.fingerprint(), cfg.warmupInsts,
                              cfg.measureInsts),
              stale);

    ::testing::internal::CaptureStderr();
    auto loaded = cache.load(cfg.fingerprint(), cfg.warmupInsts,
                             cfg.measureInsts);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded.has_value());
    EXPECT_NE(err.find("format version mismatch (entry "
                       "'fdip-result-cache 2', want "
                       "'fdip-result-cache 6')"),
              std::string::npos)
        << err;
}

TEST(ResultCache, DisabledByDefaultInRunnerWhenEnvUnset)
{
    // The suite must not depend on the invoking shell's environment;
    // explicitly clear the knobs before checking the default.
    unsetenv("FDIP_CACHE_DIR");
    unsetenv("FDIP_NO_CACHE");
    Runner r(10 * 1000, 30 * 1000);
    EXPECT_FALSE(r.cacheEnabled());
    EXPECT_EQ(ResultCache::fromEnv(), nullptr);

    setenv("FDIP_CACHE_DIR", freshCacheDir("env").c_str(), 1);
    EXPECT_NE(ResultCache::fromEnv(), nullptr);
    setenv("FDIP_NO_CACHE", "1", 1);
    EXPECT_EQ(ResultCache::fromEnv(), nullptr);
    setenv("FDIP_NO_CACHE", "0", 1);
    EXPECT_NE(ResultCache::fromEnv(), nullptr);
    unsetenv("FDIP_CACHE_DIR");
    unsetenv("FDIP_NO_CACHE");
}
