/**
 * Observability subsystem tests: the JSON helpers, the trace ring
 * buffer, the passivity guarantee (telemetry on/off is bit-identical
 * across both tick modes), output-file well-formedness (Chrome trace
 * JSON, JSONL/CSV samples), the prefetch-attribution counter
 * invariants, and the FDIP_LOG level filter.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "json_validate.hh"
#include "obs/attribution.hh"
#include "obs/json.hh"
#include "obs/tracer.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/runner.hh"

using namespace fdip;

namespace
{

std::string
tmpPath(const std::string &tag)
{
    std::string path = ::testing::TempDir() + "fdip-obs-" + tag;
    std::remove(path.c_str());
    return path;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

SimConfig
smallConfig(const std::string &workload, PrefetchScheme scheme)
{
    SimConfig cfg = makeBaselineConfig(workload, scheme);
    cfg.warmupInsts = 3 * 1000;
    cfg.measureInsts = 15 * 1000;
    return cfg;
}

} // namespace

TEST(Json, ValidatorAcceptsWellFormedDocuments)
{
    for (const char *doc : {
             "{}",
             "[]",
             "0",
             "-12.5e-3",
             "true",
             "null",
             "\"a \\\"quoted\\\" \\u00e9 string\"",
             "{\"a\": [1, 2.5, -3e2, true, false, null], \"b\": {}}",
             "  [ {\"nested\": [[[]]]} ]  ",
         }) {
        std::string err;
        EXPECT_TRUE(jsonValidate(doc, &err)) << doc << ": " << err;
    }
}

TEST(Json, ValidatorRejectsMalformedDocuments)
{
    for (const char *doc : {
             "",
             "{",
             "}",
             "{\"a\":}",
             "[1,]",
             "{\"a\":1,}",
             "\"unterminated",
             "{} trailing",
             "[01]",
             "{'single': 1}",
             "nul",
             "[1 2]",
             "{\"a\" 1}",
             "\"bad \\x escape\"",
         }) {
        std::string err;
        EXPECT_FALSE(jsonValidate(doc, &err)) << doc;
        EXPECT_FALSE(err.empty()) << doc;
    }
}

TEST(Json, EscapeRoundTripsThroughValidator)
{
    std::string nasty = "he said \"hi\"\\ \n\t\r\b\f";
    nasty += '\x01';
    std::string doc = "{\"k\": \"" + jsonEscape(nasty) + "\"}";
    std::string err;
    EXPECT_TRUE(jsonValidate(doc, &err)) << doc << ": " << err;
    EXPECT_NE(doc.find("\\u0001"), std::string::npos);
}

TEST(Tracer, RingOverwritesOldestAndDrainResets)
{
    Tracer t(2);
    t.setNow(10);
    t.instant("a", kTidFrontend);
    t.setNow(11);
    t.instant("b", kTidFrontend);
    t.setNow(12);
    t.instant("c", kTidFrontend);

    EXPECT_EQ(t.size(), 2u);
    EXPECT_EQ(t.dropped(), 1u);

    std::vector<TraceEvent> events = t.drain();
    ASSERT_EQ(events.size(), 2u);
    // Oldest surviving first: "a" was overwritten.
    EXPECT_STREQ(events[0].name, "b");
    EXPECT_STREQ(events[1].name, "c");
    EXPECT_EQ(events[0].ts, 11u);

    // drain() clears both the ring and the dropped counter.
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
    EXPECT_TRUE(t.drain().empty());
}

TEST(Tracer, CompleteSpansCarryDurationAndArgs)
{
    Tracer t(8);
    t.complete("span", kTidMem, 5, 9, "block", 0x40, "outcome", "timely");
    std::vector<TraceEvent> events = t.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ph, 'X');
    EXPECT_EQ(events[0].ts, 5u);
    EXPECT_EQ(events[0].dur, 4u);
    EXPECT_STREQ(events[0].argKey, "block");
    EXPECT_EQ(events[0].argVal, 0x40u);
    EXPECT_STREQ(events[0].strVal, "timely");
}

TEST(Obs, ConfigIsExcludedFromFingerprint)
{
    SimConfig plain = smallConfig("li", PrefetchScheme::FdpRemove);
    SimConfig instrumented = smallConfig("li", PrefetchScheme::FdpRemove);
    instrumented.obs.samplesPath = "/tmp/ignored.jsonl";
    instrumented.obs.tracePath = "/tmp/ignored.json";
    instrumented.obs.sampleIntervalCycles = 123;
    // Telemetry is passive: turning it on must not re-key the result
    // cache or split grid points.
    EXPECT_EQ(plain.fingerprint(), instrumented.fingerprint());
}

TEST(Obs, ResultsAreBitIdenticalAcrossObsAndSkipModes)
{
    struct Case
    {
        const char *workload;
        PrefetchScheme scheme;
    };
    const std::vector<Case> cases = {
        {"li", PrefetchScheme::FdpRemove},
        {"gcc", PrefetchScheme::StreamBuffer},
    };

    int combo = 0;
    for (const Case &c : cases) {
        std::vector<std::string> serialized;
        for (bool force_tick : {false, true}) {
            for (bool obs_on : {false, true}) {
                SimConfig cfg = smallConfig(c.workload, c.scheme);
                cfg.forceTick = force_tick;
                if (obs_on) {
                    std::string tag = "parity" + std::to_string(combo++);
                    cfg.obs.samplesPath = tmpPath(tag + ".jsonl");
                    cfg.obs.tracePath = tmpPath(tag + "-trace.json");
                    cfg.obs.sampleIntervalCycles = 500;
                }
                SimResults r = simulate(cfg);
                serialized.push_back(serializeResults(r));
                if (obs_on) {
                    // Non-vacuous: telemetry actually wrote output.
                    EXPECT_FALSE(readFile(cfg.obs.samplesPath).empty());
                    EXPECT_FALSE(readFile(cfg.obs.tracePath).empty());
                }
            }
        }
        for (std::size_t i = 1; i < serialized.size(); ++i) {
            EXPECT_EQ(serialized[0], serialized[i])
                << c.workload << "/" << schemeName(c.scheme)
                << ": combo " << i
                << " diverged (telemetry or sampling perturbed the "
                   "simulation)";
        }
    }
}

TEST(Obs, TraceFileIsValidChromeTraceJson)
{
    std::string path = tmpPath("chrome-trace.json");
    SimConfig cfg = smallConfig("li", PrefetchScheme::FdpRemove);
    cfg.obs.tracePath = path;
    simulate(cfg);

    std::string text = readFile(path);
    std::string err;
    ASSERT_TRUE(jsonValidate(text, &err)) << err;
    EXPECT_EQ(text.compare(0, 15, "{\"traceEvents\":"), 0);
    EXPECT_NE(text.find("\"process_name\""), std::string::npos);
    EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(text.find("\"ftq_entry\""), std::string::npos);
    EXPECT_NE(text.find("\"prefetch\""), std::string::npos);
    EXPECT_NE(text.find("\"outcome\""), std::string::npos);

    // A second run appending to the same file must leave it valid
    // (the sink rewinds over its `]}` trailer per flush) and add a
    // second process with its own id.
    SimConfig cfg2 = smallConfig("gcc", PrefetchScheme::StreamBuffer);
    cfg2.obs.tracePath = path;
    simulate(cfg2);
    std::string text2 = readFile(path);
    ASSERT_TRUE(jsonValidate(text2, &err)) << err;
    EXPECT_GT(text2.size(), text.size());
    EXPECT_NE(text2.find("gcc/stream"), std::string::npos);
}

TEST(Obs, SampleLinesAreValidJsonl)
{
    std::string path = tmpPath("samples.jsonl");
    SimConfig cfg = smallConfig("li", PrefetchScheme::FdpRemove);
    cfg.obs.samplesPath = path;
    cfg.obs.sampleIntervalCycles = 500;
    simulate(cfg);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string line;
    std::size_t rows = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::string err;
        EXPECT_TRUE(jsonValidate(line, &err)) << line << ": " << err;
        EXPECT_EQ(line.compare(0, 7, "{\"run\":"), 0) << line;
        for (const char *key : {"\"workload\"", "\"scheme\"", "\"cycle\"",
                                "\"ipc\"", "\"mpki\"", "\"pf_accuracy\"",
                                "\"ftq_occ_mean\"", "\"walks_queued\"",
                                "\"prefetches_issued\""}) {
            EXPECT_NE(line.find(key), std::string::npos) << key;
        }
        ++rows;
    }
    EXPECT_GE(rows, 2u) << "interval sampler produced too few rows";
}

TEST(Obs, CsvSamplePathGetsHeaderAndRows)
{
    std::string path = tmpPath("samples.csv");
    SimConfig cfg = smallConfig("li", PrefetchScheme::FdpRemove);
    cfg.obs.samplesPath = path;
    cfg.obs.sampleIntervalCycles = 500;
    simulate(cfg);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    std::string header;
    ASSERT_TRUE(std::getline(in, header));
    EXPECT_EQ(header,
              "run,workload,scheme,cycle,interval_cycles,insts,ipc,mpki,"
              "pf_accuracy,ftq_occ_mean,walks_queued,prefetches_issued");
    std::string row;
    ASSERT_TRUE(std::getline(in, row));
    EXPECT_NE(row.find(",li,fdp-remove,"), std::string::npos) << row;
}

TEST(Obs, AttributionCountersMatchConsumptionAndMergeCounters)
{
    // The attribution hooks sit right next to the hierarchy's own
    // counters, so two identities hold by construction; breaking one
    // means a hook was moved or dropped.
    for (const auto &[workload, scheme] :
         std::vector<std::pair<std::string, PrefetchScheme>>{
             {"li", PrefetchScheme::FdpRemove},
             {"gcc", PrefetchScheme::StreamBuffer},
             {"perl", PrefetchScheme::Nlp},
         }) {
        SimConfig cfg = smallConfig(workload, scheme);
        SimResults r = simulate(cfg);
        double timely = r.stats.value("pfattr.timely");
        EXPECT_EQ(timely, r.stats.value("mem.pfbuf_hits") +
                              r.stats.value("mem.streambuf_hits"))
            << workload << "/" << schemeName(scheme);
        EXPECT_EQ(r.stats.value("pfattr.late"),
                  r.stats.value("mem.inflight_prefetch_merges"))
            << workload << "/" << schemeName(scheme);
        // One timeliness histogram sample per timely prefetch in the
        // measurement window (the histogram resets at the warmup
        // boundary alongside the stat snapshot).
        EXPECT_EQ(static_cast<double>(r.pfTimeliness.count()), timely)
            << workload << "/" << schemeName(scheme);
        EXPECT_GT(timely, 0.0)
            << workload << "/" << schemeName(scheme)
            << ": attribution identities are vacuous without timely "
               "prefetches";
        // The fractions surfaced in SimResults agree with the raw
        // counters.
        double issued = r.stats.value("mem.prefetches_issued");
        ASSERT_GT(issued, 0.0);
        EXPECT_DOUBLE_EQ(r.prefetchTimely, timely / issued);
    }
}

TEST(Obs, AttributionClassifiesLifecyclesDirectly)
{
    PrefetchAttribution attr;

    // Timely: issue -> fill -> consume, 6 cycles fill-to-use
    // (log2 bucket: 1 + floor(log2(6)) = 3).
    attr.onIssue(0x100, 10);
    attr.onFill(0x100, 20);
    attr.onConsume(0x100, 26);
    EXPECT_EQ(attr.stats.counter("pfattr.timely"), 1u);
    EXPECT_EQ(attr.timelinessHist().bucket(3), 1u);

    // Late: demand merges with the in-flight prefetch.
    attr.onIssue(0x200, 30);
    attr.onDemandMerge(0x200, 35);
    EXPECT_EQ(attr.stats.counter("pfattr.late"), 1u);

    // Evicted-unused: filled but displaced before any use.
    attr.onIssue(0x300, 40);
    attr.onFill(0x300, 50);
    attr.onEvictUnused(0x300);
    EXPECT_EQ(attr.stats.counter("pfattr.evicted_unused"), 1u);

    // Pollution: a prefetch L2 fill displaces a victim, then a demand
    // L2 access misses on that victim. Fires once per armed victim.
    attr.onL2Fill(0x400, std::optional<Addr>(0x500), /*isPrefetch=*/true);
    attr.onL2DemandMiss(0x500);
    attr.onL2DemandMiss(0x500);
    EXPECT_EQ(attr.stats.counter("pfattr.pollution"), 1u);

    // A demand fill's victim must NOT arm pollution, and re-inserting
    // an armed victim disarms it.
    attr.onL2Fill(0x600, std::optional<Addr>(0x700), /*isPrefetch=*/false);
    attr.onL2DemandMiss(0x700);
    attr.onL2Fill(0x800, std::optional<Addr>(0x900), /*isPrefetch=*/true);
    attr.onL2Fill(0x900, std::nullopt, /*isPrefetch=*/false);
    attr.onL2DemandMiss(0x900);
    EXPECT_EQ(attr.stats.counter("pfattr.pollution"), 1u);

    // Consuming a block the attribution never saw issued is a no-op
    // (no spurious timely count).
    attr.onConsume(0xdead, 60);
    EXPECT_EQ(attr.stats.counter("pfattr.timely"), 1u);
}

TEST(Obs, PollutionFiresUnderCacheCapacityPressure)
{
    // A tiny direct-mapped L2 under an aggressive prefetcher: prefetch
    // fills must displace demand-resident lines that demands then miss
    // on, so the end-to-end pollution plumbing (victim tracking in the
    // hierarchy tick -> demand-miss probe) reports a nonzero class.
    SimConfig cfg = smallConfig("gcc", PrefetchScheme::FdpNone);
    cfg.mem.l2.sizeBytes = 4 * 1024;
    cfg.mem.l2.assoc = 1;
    SimResults r = simulate(cfg);
    EXPECT_GT(r.stats.value("pfattr.pollution"), 0.0);
    EXPECT_GT(r.prefetchPollution, 0.0);
}

TEST(Logging, LevelFilterGatesWarnAndInform)
{
    setLogLevel(LogLevel::Quiet);
    ::testing::internal::CaptureStderr();
    warn("suppressed warning %d", 1);
    inform("suppressed info");
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    setLogLevel(LogLevel::Warn);
    ::testing::internal::CaptureStderr();
    warn("visible warning");
    inform("still suppressed");
    std::string out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: visible warning"), std::string::npos) << out;
    EXPECT_EQ(out.find("suppressed"), std::string::npos) << out;

    setLogLevel(LogLevel::Info);
    ::testing::internal::CaptureStderr();
    warn("warning at info");
    inform("info at info");
    out = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(out.find("warn: warning at info"), std::string::npos) << out;
    EXPECT_NE(out.find("info: info at info"), std::string::npos) << out;
}
