/** Tests for the experiment runner and aggregate helpers. */

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <gtest/gtest.h>

#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"
#include "trace/trace_file.hh"

using namespace fdip;

namespace
{

// Runner defaults its on-disk result cache from FDIP_CACHE_DIR;
// these tests must be hermetic regardless of the invoking shell's
// environment (and must not pollute a developer's bench cache).
[[maybe_unused]] const bool env_cleared = [] {
    unsetenv("FDIP_CACHE_DIR");
    unsetenv("FDIP_NO_CACHE");
    return true;
}();

} // namespace

TEST(Runner, MemoizesRuns)
{
    Runner r(20 * 1000, 60 * 1000);
    const SimResults &a = r.run("li", PrefetchScheme::None);
    const SimResults &b = r.run("li", PrefetchScheme::None);
    EXPECT_EQ(&a, &b); // same cached object
}

TEST(Runner, DistinctTweakKeysDistinctRuns)
{
    Runner r(20 * 1000, 60 * 1000);
    const SimResults &a = r.run("li", PrefetchScheme::None);
    const SimResults &b = r.run(
        "li", PrefetchScheme::None, "bigcache",
        [](SimConfig &cfg) { cfg.mem.l1i.sizeBytes = 64 * 1024; });
    EXPECT_NE(&a, &b);
}

TEST(Runner, SpeedupAgainstBaseline)
{
    Runner r(20 * 1000, 80 * 1000);
    const SimResults &base = r.run("gcc", PrefetchScheme::None);
    double s = speedupOver(base, r.run("gcc", PrefetchScheme::FdpRemove));
    EXPECT_GT(s, 0.0);
    // Baseline against itself is zero.
    EXPECT_DOUBLE_EQ(speedupOver(base, base), 0.0);
}

TEST(Runner, EnqueueThenRunPendingFillsMemo)
{
    Runner r(20 * 1000, 60 * 1000);
    r.setJobs(2);
    r.enqueue("li", PrefetchScheme::None);
    r.enqueue("li", PrefetchScheme::None); // duplicate: ignored
    EXPECT_EQ(r.pendingRuns(), 1u);
    r.runPending();
    EXPECT_EQ(r.pendingRuns(), 0u);
    EXPECT_EQ(r.memoizedRuns(), 1u);

    // run() must serve the memoized object, not re-simulate.
    const SimResults &a = r.run("li", PrefetchScheme::None);
    const SimResults &b = r.run("li", PrefetchScheme::None);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(r.memoizedRuns(), 1u);

    // Enqueueing an already-memoized point is a no-op.
    r.enqueue("li", PrefetchScheme::None);
    EXPECT_EQ(r.pendingRuns(), 0u);
}

TEST(Runner, SchemeAndItsBaselineAreTwoPoints)
{
    Runner r(20 * 1000, 60 * 1000);
    r.enqueue("li", PrefetchScheme::None);
    r.enqueue("li", PrefetchScheme::FdpRemove);
    EXPECT_EQ(r.pendingRuns(), 2u); // scheme + no-prefetch baseline
}

TEST(Runner, IdentityIsTheConfigNotTheLabel)
{
    // A point is its config fingerprint. One machine under two labels
    // (or two textually distinct closures) is one simulation; two
    // machines under one label are two, so a label can never be
    // served another machine's results.
    Runner r(20 * 1000, 60 * 1000);
    auto grow = [](SimConfig &cfg) { cfg.mem.l1i.sizeBytes = 64 * 1024; };
    auto grow2 = [](SimConfig &cfg) { cfg.mem.l1i.sizeBytes = 64 * 1024; };
    const SimResults &a = r.run("li", PrefetchScheme::None, "big", grow);
    const SimResults &b =
        r.run("li", PrefetchScheme::None, "cache/64k", grow2);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(r.memoizedRuns(), 1u);

    const SimResults &plain = r.run("li", PrefetchScheme::None, "big");
    EXPECT_NE(&a, &plain);
    EXPECT_EQ(r.memoizedRuns(), 2u);
    EXPECT_EQ(&plain, &r.run(gridConfig("li", PrefetchScheme::None,
                                        20 * 1000, 60 * 1000)));
}

TEST(Runner, EnqueueDedupsByFingerprint)
{
    Runner r(10 * 1000, 20 * 1000);
    auto ftq = [](unsigned n) {
        return [n](SimConfig &cfg) { cfg.ftqEntries = n; };
    };
    r.enqueue("li", PrefetchScheme::None, "tweaked", ftq(8));
    r.enqueue("li", PrefetchScheme::None, "tweaked", ftq(16));
    r.enqueue("li", PrefetchScheme::None, "renamed", ftq(8));
    EXPECT_EQ(r.pendingRuns(), 2u);
    EXPECT_EQ(r.memoHits(), 1u);
    auto fp = [&ftq](unsigned n) {
        return gridConfig("li", PrefetchScheme::None, 10 * 1000,
                          20 * 1000, ftq(n))
            .fingerprint();
    };
    EXPECT_EQ(r.pendingFingerprints(),
              (std::vector<std::uint64_t>{fp(8), fp(16)}));
}

TEST(Runner, TraceRewrittenAtItsPathIsSimulatedAgain)
{
    // A trace point's fingerprint names its file, not the file's
    // bytes. A different capture written to the same path must not be
    // served the first capture's cached results.
    const std::string dir = ::testing::TempDir() + "fdip-runner-trace-cache";
    const std::string path =
        ::testing::TempDir() + "fdip-runner-rewritten.fdip.trace";
    std::filesystem::remove_all(dir);
    auto capture = [&path](const std::string &workload) {
        const WorkloadProfile &profile = findProfile(workload);
        auto prog = buildProgram(profile);
        SyntheticExecutor exec(*prog, profile);
        writeTraceFile(path, exec, 20 * 1000, prog->base, prog->codeEnd());
    };
    auto replay = [&path](Runner &r) {
        return serializeResults(r.run("trace:" + path, PrefetchScheme::None));
    };

    capture("li");
    Runner first(5 * 1000, 15 * 1000);
    first.setCacheDir(dir);
    const std::string li = replay(first);

    capture("gcc");
    Runner second(5 * 1000, 15 * 1000);
    second.setCacheDir(dir);
    const std::string gcc = replay(second);
    EXPECT_EQ(second.cacheHits(), 0u);
    EXPECT_EQ(second.cacheMisses(), 0u);

    Runner uncached(5 * 1000, 15 * 1000);
    uncached.disableCache();
    EXPECT_EQ(gcc, replay(uncached));
    EXPECT_NE(gcc, li);

    std::remove(path.c_str());
    std::filesystem::remove_all(dir);
}

TEST(Runner, JobsConfiguration)
{
    EXPECT_GE(Runner::defaultJobs(), 1u);
    Runner r(20 * 1000, 60 * 1000);
    r.setJobs(3);
    EXPECT_EQ(r.jobs(), 3u);
    r.setJobs(0); // clamped
    EXPECT_EQ(r.jobs(), 1u);
}

TEST(Aggregates, GmeanSpeedup)
{
    EXPECT_DOUBLE_EQ(gmeanSpeedup({}), 0.0);
    EXPECT_NEAR(gmeanSpeedup({0.1}), 0.1, 1e-12);
    // gmean(1.0, 1.21) - 1 = 0.1 exactly for {0.0, 0.21}.
    EXPECT_NEAR(gmeanSpeedup({0.0, 0.21}), 0.1, 1e-12);
    // Order invariant.
    EXPECT_NEAR(gmeanSpeedup({0.21, 0.0}), gmeanSpeedup({0.0, 0.21}),
                1e-12);
}

TEST(Aggregates, Mean)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}
