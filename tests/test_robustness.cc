/**
 * Robustness tests: failure isolation (SimError in FatalMode::Throw),
 * watchdogs (maxCycles ceiling + wall deadline),
 * result-cache quarantine / GC / build-identity invalidation, the
 * deterministic FDIP_FAULT injection harness, and the shared envUint()
 * knob parser. The load-bearing property pinned throughout: a sweep
 * with injected faults still completes, and every non-faulted point
 * produces byte-identical results to a clean run.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "common/build_id.hh"
#include "common/env.hh"
#include "common/error.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "sim/experiment.hh"
#include "sim/report.hh"
#include "sim/result_cache.hh"
#include "sim/runner.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"
#include "trace/trace_file.hh"

using namespace fdip;

namespace
{

constexpr std::uint64_t kWarmup = 10 * 1000;
constexpr std::uint64_t kMeasure = 30 * 1000;

SimConfig
smallConfig(const std::string &workload, PrefetchScheme scheme)
{
    SimConfig cfg = makeBaselineConfig(workload, scheme);
    cfg.warmupInsts = kWarmup;
    cfg.measureInsts = kMeasure;
    return cfg;
}

std::string
freshCacheDir(const std::string &tag)
{
    std::string dir = ::testing::TempDir() + "fdip-robustness-" + tag;
    std::filesystem::remove_all(dir);
    return dir;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << path;
    out << content;
}

/**
 * Every test starts from a clean slate: no armed faults, abort-mode
 * fatals, and none of the robustness env knobs leaking in from the
 * invoking shell (or from a sibling test).
 */
class Robustness : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::instance().reset();
        setFatalMode(FatalMode::Abort);
        for (const char *var :
             {"FDIP_FAULT", "FDIP_SIM_TIMEOUT_S", "FDIP_CACHE_BUDGET_MB",
              "FDIP_CACHE_DIR", "FDIP_NO_CACHE", "FDIP_JOBS"}) {
            unsetenv(var);
        }
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

} // namespace

// ---------------------------------------------------------------------
// envUint(): the shared numeric-knob parser.
// ---------------------------------------------------------------------

TEST_F(Robustness, EnvUintAcceptsValidAndDefaultsWhenUnset)
{
    unsetenv("FDIP_TEST_KNOB");
    EXPECT_EQ(envUint("FDIP_TEST_KNOB", 7), 7u);
    setenv("FDIP_TEST_KNOB", "42", 1);
    EXPECT_EQ(envUint("FDIP_TEST_KNOB", 7), 42u);
    setenv("FDIP_TEST_KNOB", "", 1);
    EXPECT_EQ(envUint("FDIP_TEST_KNOB", 7), 7u);
    unsetenv("FDIP_TEST_KNOB");
}

TEST_F(Robustness, EnvUintRejectsMalformedWithWarning)
{
    for (const char *bad : {"12abc", "abc", "-3", "1.5", " 4"}) {
        setenv("FDIP_TEST_KNOB", bad, 1);
        ::testing::internal::CaptureStderr();
        EXPECT_EQ(envUint("FDIP_TEST_KNOB", 9), 9u) << bad;
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find("FDIP_TEST_KNOB"), std::string::npos) << err;
        EXPECT_NE(err.find("using 9"), std::string::npos) << err;
    }
    unsetenv("FDIP_TEST_KNOB");
}

TEST_F(Robustness, EnvUintEnforcesMinimum)
{
    setenv("FDIP_TEST_KNOB", "0", 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(envUint("FDIP_TEST_KNOB", 16, 1), 16u);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("out-of-range"), std::string::npos) << err;
    // At the minimum is fine.
    setenv("FDIP_TEST_KNOB", "1", 1);
    EXPECT_EQ(envUint("FDIP_TEST_KNOB", 16, 1), 1u);
    unsetenv("FDIP_TEST_KNOB");
}

TEST_F(Robustness, DefaultJobsHonorsEnvAndSurvivesGarbage)
{
    setenv("FDIP_JOBS", "3", 1);
    EXPECT_EQ(Runner::defaultJobs(), 3u);
    setenv("FDIP_JOBS", "zero", 1);
    ::testing::internal::CaptureStderr();
    EXPECT_GE(Runner::defaultJobs(), 1u);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("FDIP_JOBS"), std::string::npos) << err;
    unsetenv("FDIP_JOBS");
    EXPECT_GE(Runner::defaultJobs(), 1u);
}

// ---------------------------------------------------------------------
// Failure model: fatal() in FatalMode::Throw, SimTimeout subtype.
// ---------------------------------------------------------------------

TEST_F(Robustness, FatalThrowsSimErrorInThrowMode)
{
    setFatalMode(FatalMode::Throw);
    bool caught = false;
    try {
        fatal("deliberate test failure (%d)", 42);
    } catch (const SimError &e) {
        caught = true;
        EXPECT_NE(std::string(e.what()).find("deliberate test failure"),
                  std::string::npos);
        // fatal() must never masquerade as a watchdog expiry.
        EXPECT_EQ(dynamic_cast<const SimTimeout *>(&e), nullptr);
    }
    EXPECT_TRUE(caught);
}

TEST_F(Robustness, SimTimeoutIsAThrowableSimErrorSubtype)
{
    setFatalMode(FatalMode::Throw);
    EXPECT_THROW(sim_timeout("deliberate watchdog expiry"), SimTimeout);
    // Catchable through the SimError base, so one isolation path
    // handles both kinds.
    try {
        sim_timeout("deliberate watchdog expiry");
        FAIL() << "sim_timeout returned";
    } catch (const SimError &e) {
        EXPECT_NE(dynamic_cast<const SimTimeout *>(&e), nullptr);
    }
}

// ---------------------------------------------------------------------
// FaultInjector grammar and scoping.
// ---------------------------------------------------------------------

TEST_F(Robustness, FaultInjectorParsesGrammarAndScopesByPoint)
{
    auto &faults = FaultInjector::instance();
    EXPECT_FALSE(faults.any());

    faults.configure("throw@2");
    EXPECT_TRUE(faults.any());
    // Outside a PointScope nothing fires.
    EXPECT_NO_THROW(faults.maybeThrow());
    {
        FaultInjector::PointScope scope(1);
        EXPECT_NO_THROW(faults.maybeThrow());
    }
    {
        FaultInjector::PointScope scope(2);
        EXPECT_THROW(faults.maybeThrow(), SimError);
    }

    faults.reset();
    EXPECT_FALSE(faults.any());
}

TEST_F(Robustness, FaultInjectorWarnsOnUnknownToken)
{
    // A point runs once, so there is no attempt count for an x<n>
    // suffix on throw@ to limit.
    for (const char *tok : {"explode@7", "throw@3x1"}) {
        ::testing::internal::CaptureStderr();
        FaultInjector::instance().configure(tok);
        std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_NE(err.find(tok), std::string::npos) << err;
        EXPECT_FALSE(FaultInjector::instance().any()) << tok;
    }
    FaultInjector::instance().reset();
}

// ---------------------------------------------------------------------
// Watchdogs.
// ---------------------------------------------------------------------

TEST_F(Robustness, MaxCyclesCeilingRaisesSimTimeout)
{
    setFatalMode(FatalMode::Throw);
    SimConfig cfg = smallConfig("gcc", PrefetchScheme::None);
    // Far too few cycles to retire the warmup: the ceiling must fire.
    cfg.maxCycles = 100;
    EXPECT_THROW(simulate(cfg), SimTimeout);
}

TEST_F(Robustness, MaxCyclesIsPartOfTheConfigFingerprint)
{
    SimConfig a = smallConfig("gcc", PrefetchScheme::None);
    SimConfig b = a;
    b.maxCycles = 1;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// Runner: isolation, sentinel rendering, health footer.
// ---------------------------------------------------------------------

TEST_F(Robustness, FailingPointIsSimulatedOnce)
{
    // A simulation is deterministic: a point that raised SimError would
    // raise it again, so it is recorded after one run, with no retry
    // and no backoff sleep.
    FaultInjector::instance().configure("throw@0");
    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    ::testing::internal::CaptureStderr();
    const SimResults &res = r.run("gcc", PrefetchScheme::None);
    std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(res.status, RunStatus::Failed);
    ASSERT_EQ(r.failures().size(), 1u);
    std::size_t warnings = 0;
    for (std::size_t at = err.find("failed:"); at != std::string::npos;
         at = err.find("failed:", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
}

TEST_F(Robustness, SweepSurvivesInjectedThrowAndHang)
{
    // The acceptance sweep: three points, point 0 persistently throws,
    // point 1 hangs until the wall watchdog fires, point 2 is healthy.
    FaultInjector::instance().configure("throw@0,hang@1");
    setenv("FDIP_SIM_TIMEOUT_S", "1", 1);

    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    r.enqueue("gcc", PrefetchScheme::None);
    r.enqueue("li", PrefetchScheme::None);
    r.enqueue("go", PrefetchScheme::None);
    ::testing::internal::CaptureStderr(); // failure warns
    r.runPending();
    ::testing::internal::GetCapturedStderr();

    // The sweep completed and both failures were isolated + recorded.
    ASSERT_EQ(r.failures().size(), 2u);
    const Runner::FailedPoint &thrown = r.failures()[0];
    EXPECT_EQ(thrown.workload, "gcc");
    EXPECT_FALSE(thrown.timedOut);
    EXPECT_NE(thrown.error.find("injected fault"), std::string::npos);
    EXPECT_NE(thrown.fingerprint, 0u);
    const Runner::FailedPoint &hung = r.failures()[1];
    EXPECT_EQ(hung.workload, "li");
    EXPECT_TRUE(hung.timedOut);
    EXPECT_EQ(r.timedOutPoints(), 1u);

    // Sentinels render distinguishably.
    const SimResults &fail = r.run("gcc", PrefetchScheme::None);
    EXPECT_EQ(fail.status, RunStatus::Failed);
    EXPECT_TRUE(std::isnan(fail.ipc));
    EXPECT_EQ(AsciiTable::num(fail.ipc), "FAIL");
    const SimResults &tout = r.run("li", PrefetchScheme::None);
    EXPECT_EQ(tout.status, RunStatus::TimedOut);
    EXPECT_TRUE(isTimedOutSentinel(tout.ipc));
    EXPECT_EQ(AsciiTable::num(tout.ipc), "TIMEOUT");
    EXPECT_EQ(AsciiTable::pct(tout.ipc), "TIMEOUT");

    // Values *derived* from a sentinel (a bench's hand-computed
    // speedup ratio) stay NaN — NaN propagates through arithmetic
    // where -infinity would collapse finite/-inf into a silently
    // poisonous finite -1. (Whether the TIMEOUT tag survives the
    // arithmetic is hardware-dependent; NaN-ness is the guarantee.)
    EXPECT_TRUE(std::isnan(1.0 / tout.ipc - 1.0));
    EXPECT_EQ(AsciiTable::num(1.0 / fail.ipc - 1.0), "FAIL");

    // Sentinel-tainted speedups poison gmean to NaN, not a panic.
    EXPECT_TRUE(std::isnan(gmeanSpeedup({0.1, fail.ipc})));
    EXPECT_TRUE(std::isnan(gmeanSpeedup({0.1, tout.ipc})));

    // The footer reports the damage.
    std::string summary = r.sweepSummary();
    EXPECT_NE(summary.find("health:"), std::string::npos) << summary;
    EXPECT_NE(summary.find("2 failed"), std::string::npos) << summary;
    EXPECT_NE(summary.find("1 timed out"), std::string::npos) << summary;

    // And the non-faulted point is byte-identical to a clean run.
    FaultInjector::instance().reset();
    unsetenv("FDIP_SIM_TIMEOUT_S");
    Runner clean(kWarmup, kMeasure);
    clean.disableCache();
    EXPECT_EQ(serializeResults(clean.run("go", PrefetchScheme::None)),
              serializeResults(r.run("go", PrefetchScheme::None)));
}

TEST_F(Robustness, HealthFooterIsSilentWhenHealthy)
{
    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    r.enqueue("li", PrefetchScheme::None);
    r.runPending();
    EXPECT_TRUE(r.failures().empty());
    EXPECT_EQ(r.sweepSummary().find("health:"), std::string::npos)
        << r.sweepSummary();
}

// ---------------------------------------------------------------------
// Result cache hardening.
// ---------------------------------------------------------------------

TEST_F(Robustness, TruncatedEntryQuarantinedAndHealed)
{
    std::string dir = freshCacheDir("truncated");
    ResultCache cache(dir);
    SimConfig cfg = smallConfig("gcc", PrefetchScheme::FdpRemove);
    SimResults r = simulate(cfg);
    std::uint64_t fp = cfg.fingerprint();
    cache.store(fp, kWarmup, kMeasure, r);

    std::string path = cache.entryPath(fp, kWarmup, kMeasure);
    std::string content = readFile(path);
    ASSERT_FALSE(content.empty());
    writeFile(path, content.substr(0, content.size() / 2));

    ::testing::internal::CaptureStderr();
    auto loaded = cache.load(fp, kWarmup, kMeasure);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded.has_value());
    EXPECT_NE(err.find("rejecting entry"), std::string::npos) << err;
    EXPECT_NE(err.find("quarantined"), std::string::npos) << err;
    EXPECT_EQ(cache.quarantined(), 1u);
    // The torn file was moved aside, not deleted: evidence survives.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));

    // Re-storing heals the entry and it round-trips bit-exactly.
    cache.store(fp, kWarmup, kMeasure, r);
    auto healed = cache.load(fp, kWarmup, kMeasure);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(serializeResults(*healed), serializeResults(r));
}

TEST_F(Robustness, BitFlippedEntryQuarantined)
{
    std::string dir = freshCacheDir("bitflip");
    ResultCache cache(dir);
    SimConfig cfg = smallConfig("li", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    std::uint64_t fp = cfg.fingerprint();
    cache.store(fp, kWarmup, kMeasure, r);

    // Flip one bit of one byte in the payload half of the entry. The
    // canonical-serialization hash makes any such flip detectable.
    std::string path = cache.entryPath(fp, kWarmup, kMeasure);
    std::string content = readFile(path);
    ASSERT_GT(content.size(), 16u);
    content[content.size() / 2] ^= 0x01;
    writeFile(path, content);

    ::testing::internal::CaptureStderr();
    auto loaded = cache.load(fp, kWarmup, kMeasure);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(loaded.has_value());
    EXPECT_NE(err.find("rejecting entry"), std::string::npos) << err;
    EXPECT_EQ(cache.quarantined(), 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));

    // A consumer Runner warns, re-simulates, and rewrites the entry.
    // (Quarantine moved the bad file aside, so this is a plain miss.)
    ::testing::internal::CaptureStderr();
    Runner consumer(kWarmup, kMeasure);
    consumer.setCacheDir(dir);
    consumer.setJobs(1);
    consumer.enqueue("li", PrefetchScheme::None);
    consumer.runPending();
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(consumer.cacheMisses(), 1u);
    auto healed = cache.load(fp, kWarmup, kMeasure);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(serializeResults(*healed), serializeResults(r));
}

TEST_F(Robustness, CacheBudgetEvictsOldestFirst)
{
    std::string dir = freshCacheDir("gc");
    std::filesystem::create_directories(dir);
    const std::string payload(1000, 'x');
    std::string a = dir + "/aaaa.result";
    std::string b = dir + "/bbbb.result";
    std::string c = dir + "/cccc.result";
    writeFile(a, payload);
    writeFile(b, payload);
    writeFile(c, payload);
    auto now = std::filesystem::file_time_type::clock::now();
    std::filesystem::last_write_time(a, now - std::chrono::hours(3));
    std::filesystem::last_write_time(b, now - std::chrono::hours(2));
    std::filesystem::last_write_time(c, now - std::chrono::hours(1));

    // 3000 bytes on disk, 2048 allowed: exactly the oldest must go.
    ::testing::internal::CaptureStderr();
    ResultCache cache(dir, 2048);
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(cache.evicted(), 1u);
    EXPECT_FALSE(std::filesystem::exists(a));
    EXPECT_TRUE(std::filesystem::exists(b));
    EXPECT_TRUE(std::filesystem::exists(c));

    // Budget 0 means unlimited: nothing is touched.
    ResultCache unlimited(dir, 0);
    EXPECT_EQ(unlimited.evicted(), 0u);
    EXPECT_TRUE(std::filesystem::exists(b));
    EXPECT_TRUE(std::filesystem::exists(c));
}

TEST_F(Robustness, CacheBudgetComesFromEnvInMegabytes)
{
    unsetenv("FDIP_CACHE_BUDGET_MB");
    EXPECT_EQ(ResultCache::budgetBytesFromEnv(), 0u);
    setenv("FDIP_CACHE_BUDGET_MB", "7", 1);
    EXPECT_EQ(ResultCache::budgetBytesFromEnv(), 7u * 1024 * 1024);
    setenv("FDIP_CACHE_BUDGET_MB", "lots", 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(ResultCache::budgetBytesFromEnv(), 0u);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("FDIP_CACHE_BUDGET_MB"), std::string::npos) << err;
    unsetenv("FDIP_CACHE_BUDGET_MB");
}

TEST_F(Robustness, BuildIdentityChangeInvalidatesEntries)
{
    std::string dir = freshCacheDir("buildid");
    ResultCache cache(dir);
    SimConfig cfg = smallConfig("gcc", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    std::uint64_t fp = cfg.fingerprint();
    cache.store(fp, kWarmup, kMeasure, r);
    ASSERT_TRUE(cache.load(fp, kWarmup, kMeasure).has_value());

    // "Rebuild" with different sources: the same entry is now stale —
    // no kFormatVersion bump required.
    const std::uint64_t original = buildIdentity();
    cache.store(fp, kWarmup, kMeasure, r); // re-store (load leaves it)
    setBuildIdentity(original ^ 0x5eed5eed5eed5eedull);
    ::testing::internal::CaptureStderr();
    auto stale = cache.load(fp, kWarmup, kMeasure);
    std::string err = ::testing::internal::GetCapturedStderr();
    setBuildIdentity(original);
    EXPECT_FALSE(stale.has_value());
    EXPECT_NE(err.find("build identity mismatch"), std::string::npos)
        << err;
    EXPECT_GE(cache.quarantined(), 1u);
}

TEST_F(Robustness, CorruptCacheFaultTearsExactlyOneStore)
{
    FaultInjector::instance().configure("corrupt-cache@0");
    std::string dir = freshCacheDir("tearfault");
    ResultCache cache(dir);
    SimConfig cfg = smallConfig("li", PrefetchScheme::None);
    SimResults r = simulate(cfg);
    std::uint64_t fp = cfg.fingerprint();

    // Store #0 is torn (with a warning naming the injection)...
    ::testing::internal::CaptureStderr();
    cache.store(fp, kWarmup, kMeasure, r);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("fault injection"), std::string::npos) << err;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(cache.load(fp, kWarmup, kMeasure).has_value());
    ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(cache.quarantined(), 1u);

    // ...and store #1 is untouched: the entry round-trips again.
    cache.store(fp, kWarmup, kMeasure, r);
    auto healed = cache.load(fp, kWarmup, kMeasure);
    ASSERT_TRUE(healed.has_value());
    EXPECT_EQ(serializeResults(*healed), serializeResults(r));
    FaultInjector::instance().reset();
}

// ---------------------------------------------------------------------
// Trace-stream faults: a trace that dies mid-stream is one FAIL cell.
// ---------------------------------------------------------------------

namespace
{

/** Record a small native trace to replay under fault injection. */
std::string
captureRobustnessTrace(const std::string &tag)
{
    std::string path =
        ::testing::TempDir() + "fdip-robustness-" + tag + ".fdip.trace";
    WorkloadProfile profile = findProfile("gcc");
    auto prog = buildProgram(profile);
    SyntheticExecutor exec(*prog, profile);
    writeTraceFile(path, exec, kWarmup + kMeasure, prog->base,
                   prog->codeEnd());
    return path;
}

} // namespace

TEST_F(Robustness, TruncateTraceFaultGrammarAndScoping)
{
    auto &faults = FaultInjector::instance();
    faults.configure("truncate-trace@1x100");
    EXPECT_TRUE(faults.any());
    // Outside a PointScope nothing fires, whatever the position.
    EXPECT_NO_THROW(faults.maybeTruncateTrace(5000, "x.trace"));
    {
        FaultInjector::PointScope scope(0);
        EXPECT_NO_THROW(faults.maybeTruncateTrace(5000, "x.trace"));
    }
    {
        FaultInjector::PointScope scope(1);
        // Fires only once the reader is past the threshold: the trace
        // serves N records, then "dies".
        EXPECT_NO_THROW(faults.maybeTruncateTrace(99, "x.trace"));
        bool caught = false;
        try {
            faults.maybeTruncateTrace(100, "x.trace");
        } catch (const SimError &e) {
            caught = true;
            std::string what = e.what();
            EXPECT_NE(what.find("injected fault"), std::string::npos)
                << what;
            EXPECT_NE(what.find("x.trace"), std::string::npos) << what;
            EXPECT_NE(what.find("mid-stream"), std::string::npos) << what;
        }
        EXPECT_TRUE(caught);
    }
    faults.reset();
    EXPECT_FALSE(faults.any());
}

TEST_F(Robustness, SweepIsolatesTraceDyingMidStream)
{
    std::string path = captureRobustnessTrace("midstream");
    // Point 0 (the trace replay) loses its stream 2000 records in —
    // during warmup; point 1 is a healthy synthetic sibling.
    FaultInjector::instance().configure("truncate-trace@0x2000");

    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    r.enqueue("trace:" + path, PrefetchScheme::None);
    r.enqueue("go", PrefetchScheme::None);
    ::testing::internal::CaptureStderr(); // failure warn
    r.runPending();
    ::testing::internal::GetCapturedStderr();

    ASSERT_EQ(r.failures().size(), 1u);
    const Runner::FailedPoint &dead = r.failures()[0];
    EXPECT_EQ(dead.workload, "trace:" + path);
    EXPECT_NE(dead.error.find("injected fault"), std::string::npos)
        << dead.error;
    EXPECT_NE(dead.error.find("mid-stream"), std::string::npos)
        << dead.error;

    // The dead trace renders as a FAIL cell, not a crash or garbage.
    const SimResults &fail = r.run("trace:" + path, PrefetchScheme::None);
    EXPECT_EQ(fail.status, RunStatus::Failed);
    EXPECT_EQ(AsciiTable::num(fail.ipc), "FAIL");

    // The healthy sibling is byte-identical to an undisturbed run.
    FaultInjector::instance().reset();
    Runner clean(kWarmup, kMeasure);
    clean.disableCache();
    EXPECT_EQ(serializeResults(clean.run("go", PrefetchScheme::None)),
              serializeResults(r.run("go", PrefetchScheme::None)));
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// experimentMain: exit code distinguishes clean from damaged sweeps.
// ---------------------------------------------------------------------

namespace
{

ExperimentSpec
tinySpec()
{
    ExperimentSpec spec;
    spec.id = "T-ROBUST";
    spec.binary = "test_robustness";
    spec.title = "robustness exit-code probe";
    spec.shape = "n/a";
    spec.paperRef = "n/a";
    spec.warmup = kWarmup;
    spec.measure = kMeasure;
    ExperimentGrid grid;
    grid.workloads = {"gcc"};
    grid.schemes = {PrefetchScheme::None};
    grid.withBaseline = false;
    spec.grids = {grid};
    spec.render = [](const Sweep &) {};
    return spec;
}

} // namespace

TEST_F(Robustness, ExperimentExitCodeDistinguishesFailedSweeps)
{
    const char *argv[] = {"test_robustness"};
    auto args = const_cast<char **>(argv);

    ::testing::internal::CaptureStdout();
    int clean_rc = experimentMain(tinySpec(), 1, args);
    std::string clean_out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(clean_rc, 0);
    EXPECT_EQ(clean_out.find("failed points:"), std::string::npos);

    FaultInjector::instance().configure("throw@0");
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int faulted_rc = experimentMain(tinySpec(), 1, args);
    ::testing::internal::GetCapturedStderr();
    std::string faulted_out = ::testing::internal::GetCapturedStdout();
    FaultInjector::instance().reset();

    EXPECT_EQ(faulted_rc, 3);
    EXPECT_NE(faulted_out.find("failed points:"), std::string::npos)
        << faulted_out;
    EXPECT_NE(faulted_out.find("injected fault"), std::string::npos)
        << faulted_out;
}

// The same exit-code contract covers a trace workload whose stream
// dies mid-run: the sweep completes, names the dead trace, exits 3.
TEST_F(Robustness, ExperimentExitCodeCoversTraceStreamDeath)
{
    std::string path = captureRobustnessTrace("exitcode");
    ExperimentSpec spec = tinySpec();
    spec.grids[0].workloads = {"trace:" + path};

    FaultInjector::instance().configure("truncate-trace@0x1000");
    const char *argv[] = {"test_robustness"};
    auto args = const_cast<char **>(argv);
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int rc = experimentMain(spec, 1, args);
    ::testing::internal::GetCapturedStderr();
    std::string out = ::testing::internal::GetCapturedStdout();
    FaultInjector::instance().reset();

    EXPECT_EQ(rc, 3);
    EXPECT_NE(out.find("failed points:"), std::string::npos) << out;
    EXPECT_NE(out.find("mid-stream"), std::string::npos) << out;
    std::remove(path.c_str());
}

// A watchdog expiry inside a bench sweep is a TIMEOUT cell, not a dead
// process: experimentMain runs the sweep in FatalMode::Throw, whatever
// mode its caller was in, and hands that mode back on return.
TEST_F(Robustness, ExperimentIsolatesWatchdogExpiry)
{
    ExperimentSpec spec = tinySpec();
    spec.grids[0].variants = {{"ceiling", "100-cycle ceiling",
                               [](SimConfig &c) { c.maxCycles = 100; }}};

    const char *argv[] = {"test_robustness"};
    auto args = const_cast<char **>(argv);
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int rc = experimentMain(spec, 1, args);
    ::testing::internal::GetCapturedStderr();
    std::string out = ::testing::internal::GetCapturedStdout();

    EXPECT_EQ(rc, 3);
    EXPECT_NE(out.find("TIMEOUT (gcc, none, 'ceiling')"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("1 failed points (1 timed out)"), std::string::npos)
        << out;
    EXPECT_EQ(fatalMode(), FatalMode::Abort);
}
