/**
 * Robustness tests: failure isolation (SimError in FatalMode::Throw),
 * watchdogs (maxCycles ceiling + wall deadline),
 * result-cache quarantine / GC / build-identity invalidation, traces
 * cut short on disk, and the shared envUint()/envFlag() knob parsers.
 * The load-bearing property pinned throughout: a sweep with real
 * faults (a config the simulator rejects, a blown wall deadline, a
 * truncated trace) still completes, and every healthy point produces
 * byte-identical results to a clean run.
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/build_id.hh"
#include "common/env.hh"
#include "common/error.hh"
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

/** A config the simulator rejects: the partitioned BTB refuses to be
 *  built with no partitions. */
void
noPartitions(SimConfig &cfg)
{
    cfg.bpu.targetBuffer = TargetBuffer::Partitioned;
}

/** A point that cannot finish inside a 1 s wall deadline. */
void
endless(SimConfig &cfg)
{
    cfg.measureInsts = 1000 * 1000 * 1000;
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
 * Every test starts from a clean slate: abort-mode fatals, and none of
 * the robustness env knobs leaking in from the invoking shell (or from
 * a sibling test).
 */
class Robustness : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setFatalMode(FatalMode::Abort);
        for (const char *var :
             {"FDIP_SIM_TIMEOUT_S", "FDIP_CACHE_BUDGET_MB",
              "FDIP_CACHE_DIR", "FDIP_NO_CACHE"}) {
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
// envUint() and envFlag(): the shared knob parsers.
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

TEST_F(Robustness, EnvFlagIsOffOnlyWhenUnsetEmptyOrZero)
{
    unsetenv("FDIP_TEST_KNOB");
    EXPECT_FALSE(envFlag("FDIP_TEST_KNOB"));
    setenv("FDIP_TEST_KNOB", "", 1);
    EXPECT_FALSE(envFlag("FDIP_TEST_KNOB"));
    setenv("FDIP_TEST_KNOB", "0", 1);
    EXPECT_FALSE(envFlag("FDIP_TEST_KNOB"));
    setenv("FDIP_TEST_KNOB", "1", 1);
    EXPECT_TRUE(envFlag("FDIP_TEST_KNOB"));
    setenv("FDIP_TEST_KNOB", "yes", 1);
    EXPECT_TRUE(envFlag("FDIP_TEST_KNOB"));
    unsetenv("FDIP_TEST_KNOB");
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
        // The location is relative to the checkout, so the text does
        // not depend on where the sources were built.
        EXPECT_NE(std::string(e.what()).find(" [tests/test_robustness.cc:"),
                  std::string::npos)
            << e.what();
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

TEST_F(Robustness, ZeroSizeQueuesRaiseSimError)
{
    // A zero-size queue must fail validation: built, it would panic()
    // or corrupt the heap, and a bench sweep would lose the process
    // instead of rendering one FAIL cell.
    setFatalMode(FatalMode::Throw);
    struct Case
    {
        const char *knob;
        PrefetchScheme scheme;
        void (*zero)(SimConfig &);
    };
    const Case cases[] = {
        {"mana.queueEntries", PrefetchScheme::Mana,
         [](SimConfig &c) { c.mana.queueEntries = 0; }},
        {"fdp.piqEntries", PrefetchScheme::FdpRemove,
         [](SimConfig &c) { c.fdp.piqEntries = 0; }},
        {"backend.queueDepth", PrefetchScheme::None,
         [](SimConfig &c) { c.backend.queueDepth = 0; }},
    };
    for (const Case &k : cases) {
        SimConfig cfg = smallConfig("li", k.scheme);
        k.zero(cfg);
        EXPECT_THROW(simulate(cfg), SimError) << k.knob;
    }
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
    setFatalMode(FatalMode::Throw);
    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    ::testing::internal::CaptureStderr();
    const SimResults &res =
        r.run("gcc", PrefetchScheme::None, "no-partitions", noPartitions);
    std::string err = ::testing::internal::GetCapturedStderr();

    EXPECT_EQ(res.status, RunStatus::Failed);
    ASSERT_EQ(r.failures().size(), 1u);
    // The partitioned BTB's own check raised it, and names its source
    // relative to the checkout.
    const std::string &error = r.failures()[0].error;
    EXPECT_NE(error.find("no partitions"), std::string::npos) << error;
    EXPECT_NE(error.find("[src/bpu/partitioned_btb.cc:"), std::string::npos)
        << error;
    std::size_t warnings = 0;
    for (std::size_t at = err.find("failed:"); at != std::string::npos;
         at = err.find("failed:", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
}

TEST_F(Robustness, SentinelFillsEveryListedMetric)
{
    // A failed point's row carries the sentinel in every double that
    // forEachMetric() lists, so a metric added to that list renders
    // FAIL / TIMEOUT instead of a plausible 0.
    setFatalMode(FatalMode::Throw);
    SimConfig rejected = smallConfig("li", PrefetchScheme::None);
    noPartitions(rejected);
    SimConfig starved = smallConfig("li", PrefetchScheme::None);
    starved.maxCycles = 100;

    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    ::testing::internal::CaptureStderr(); // failures warn
    const SimResults &fail = r.run(rejected);
    const SimResults &tout = r.run(starved);
    ::testing::internal::GetCapturedStderr();
    ASSERT_EQ(fail.status, RunStatus::Failed);
    ASSERT_EQ(tout.status, RunStatus::TimedOut);

    std::size_t doubles = 0;
    forEachMetric(fail, [&doubles](const char *name, auto value) {
        if constexpr (std::is_same_v<decltype(value), double>) {
            ++doubles;
            EXPECT_TRUE(std::isnan(value)) << name;
        }
    });
    EXPECT_GT(doubles, 0u);
    forEachMetric(tout, [](const char *name, auto value) {
        if constexpr (std::is_same_v<decltype(value), double>) {
            EXPECT_TRUE(isTimedOutSentinel(value)) << name;
        }
    });
}

TEST_F(Robustness, SweepSurvivesRejectedConfigAndWallDeadline)
{
    // The acceptance sweep: three points. The simulator rejects point
    // 0's config, point 1 cannot finish before the 1 s wall deadline,
    // point 2 is healthy.
    setFatalMode(FatalMode::Throw);
    setenv("FDIP_SIM_TIMEOUT_S", "1", 1);

    Runner r(kWarmup, kMeasure);
    r.disableCache();
    r.setJobs(1);
    r.enqueue("gcc", PrefetchScheme::None, "no-partitions", noPartitions);
    r.enqueue("li", PrefetchScheme::None, "endless", endless);
    r.enqueue("go", PrefetchScheme::None);
    ::testing::internal::CaptureStderr(); // failure warns
    r.runPending();
    ::testing::internal::GetCapturedStderr();

    // The sweep completed and both failures were isolated + recorded.
    ASSERT_EQ(r.failures().size(), 2u);
    const Runner::FailedPoint &thrown = r.failures()[0];
    EXPECT_EQ(thrown.workload, "gcc");
    EXPECT_FALSE(thrown.timedOut);
    EXPECT_NE(thrown.error.find("no partitions"), std::string::npos)
        << thrown.error;
    EXPECT_NE(thrown.fingerprint, 0u);
    const Runner::FailedPoint &hung = r.failures()[1];
    EXPECT_EQ(hung.workload, "li");
    EXPECT_TRUE(hung.timedOut);
    EXPECT_NE(hung.error.find("wall deadline of 1 s exceeded"),
              std::string::npos)
        << hung.error;
    EXPECT_EQ(r.timedOutPoints(), 1u);

    // Sentinels render distinguishably.
    const SimResults &fail =
        r.run("gcc", PrefetchScheme::None, "no-partitions", noPartitions);
    EXPECT_EQ(fail.status, RunStatus::Failed);
    EXPECT_TRUE(std::isnan(fail.ipc));
    EXPECT_EQ(AsciiTable::num(fail.ipc), "FAIL");
    const SimResults &tout =
        r.run("li", PrefetchScheme::None, "endless", endless);
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

    // And the healthy point is byte-identical to a clean run.
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

// ---------------------------------------------------------------------
// Trace-stream faults: a trace that dies mid-stream is one FAIL cell.
// ---------------------------------------------------------------------

namespace
{

/**
 * A native gcc trace cut short on disk: its header promises kWarmup +
 * kMeasure records, but the file ends after the first @p records. A
 * trace captured @p records long has the same header and the same
 * first records, so its size is a record boundary of the long one.
 */
std::string
captureTruncatedTrace(const std::string &tag, std::uint64_t records)
{
    WorkloadProfile profile = findProfile("gcc");
    auto prog = buildProgram(profile);
    auto capture = [&](const std::string &name, std::uint64_t count) {
        std::string path = ::testing::TempDir() + "fdip-robustness-" +
                           name + ".fdip.trace";
        SyntheticExecutor exec(*prog, profile);
        writeTraceFile(path, exec, count, prog->base, prog->codeEnd());
        return path;
    };
    std::string path = capture(tag, kWarmup + kMeasure);
    std::string head = capture(tag + "-head", records);
    std::filesystem::resize_file(path, std::filesystem::file_size(head));
    std::remove(head.c_str());
    return path;
}

} // namespace

TEST_F(Robustness, SweepIsolatesTraceDyingMidStream)
{
    // Point 0 (the trace replay) reaches the end of its file 2000
    // records in, during warmup; point 1 is a healthy synthetic
    // sibling.
    std::string path = captureTruncatedTrace("midstream", 2000);
    setFatalMode(FatalMode::Throw);

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
    EXPECT_NE(dead.error.find("trace file '" + path + "'"),
              std::string::npos)
        << dead.error;
    EXPECT_NE(dead.error.find("truncated at record 2000 (header promises " +
                              std::to_string(kWarmup + kMeasure) + ")"),
              std::string::npos)
        << dead.error;

    // The dead trace renders as a FAIL cell, not a crash or garbage.
    const SimResults &fail = r.run("trace:" + path, PrefetchScheme::None);
    EXPECT_EQ(fail.status, RunStatus::Failed);
    EXPECT_EQ(AsciiTable::num(fail.ipc), "FAIL");

    // The healthy sibling is byte-identical to an undisturbed run.
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

/** `run <id>` over @p spec alone. */
int
runSpec(const ExperimentSpec &spec)
{
    const char *argv[] = {"test_robustness", "run", spec.id.c_str()};
    return experimentMain({&spec}, 3, const_cast<char **>(argv));
}

} // namespace

TEST_F(Robustness, ExperimentExitCodeDistinguishesFailedSweeps)
{
    ::testing::internal::CaptureStdout();
    int clean_rc = runSpec(tinySpec());
    std::string clean_out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(clean_rc, 0);
    EXPECT_EQ(clean_out.find("failed points:"), std::string::npos);

    ExperimentSpec rejected = tinySpec();
    rejected.grids[0].variants = {
        {"no-partitions", "partitioned BTB with no partitions",
         noPartitions}};
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int faulted_rc = runSpec(rejected);
    ::testing::internal::GetCapturedStderr();
    std::string faulted_out = ::testing::internal::GetCapturedStdout();

    EXPECT_EQ(faulted_rc, 3);
    EXPECT_NE(faulted_out.find("failed points:"), std::string::npos)
        << faulted_out;
    EXPECT_NE(faulted_out.find("no partitions"), std::string::npos)
        << faulted_out;
    // The printed location is relative to the checkout, so the output
    // does not depend on where the sources were built.
    EXPECT_NE(faulted_out.find("[src/bpu/partitioned_btb.cc:"),
              std::string::npos)
        << faulted_out;
}

// The same exit-code contract covers a trace workload whose stream
// dies mid-run: the sweep completes, names the dead trace, exits 3.
TEST_F(Robustness, ExperimentExitCodeCoversTraceStreamDeath)
{
    std::string path = captureTruncatedTrace("exitcode", 1000);
    ExperimentSpec spec = tinySpec();
    spec.grids[0].workloads = {"trace:" + path};

    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int rc = runSpec(spec);
    ::testing::internal::GetCapturedStderr();
    std::string out = ::testing::internal::GetCapturedStdout();

    EXPECT_EQ(rc, 3);
    EXPECT_NE(out.find("failed points:"), std::string::npos) << out;
    EXPECT_NE(out.find("truncated at record"), std::string::npos) << out;
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

    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    int rc = runSpec(spec);
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
