/**
 * Tests for the declarative experiment-grid subsystem
 * (sim/experiment.hh). The R-F9 bench's spec TU is linked into this
 * test (see CMakeLists.txt), pinning a real production grid:
 *  - spec expansion produces exactly the enqueue set the old
 *    hand-written mirror produced,
 *  - --list / --describe output is stable.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "json_validate.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"

using namespace fdip;

namespace
{

std::vector<std::uint64_t>
sorted(std::vector<std::uint64_t> fingerprints)
{
    std::sort(fingerprints.begin(), fingerprints.end());
    return fingerprints;
}

/** Callers must ASSERT_NE against nullptr before dereferencing. */
const ExperimentSpec *
f9Spec()
{
    return ExperimentRegistry::instance().find("R-F9");
}

} // namespace

TEST(ExperimentRegistry, F9SpecIsRegistered)
{
    const ExperimentSpec *spec = f9Spec();
    ASSERT_NE(spec, nullptr)
        << "bench_f9_ftq_sweep.cc must be linked into this test";
    EXPECT_EQ(spec->binary, "bench_f9_ftq_sweep");
    EXPECT_EQ(spec->warmup, 150u * 1000u);
    EXPECT_EQ(spec->measure, 500u * 1000u);
    ASSERT_EQ(spec->grids.size(), 1u);
    EXPECT_TRUE(spec->grids[0].withBaseline);
    EXPECT_EQ(spec->grids[0].variants.size(), 6u);
    EXPECT_TRUE(static_cast<bool>(spec->render));
}

TEST(ExperimentExpansion, MatchesHandWrittenMirror)
{
    const ExperimentSpec *spec_p = f9Spec();
    ASSERT_NE(spec_p, nullptr);
    const ExperimentSpec &spec = *spec_p;

    Runner from_spec(spec.warmup, spec.measure);
    from_spec.disableCache();
    Sweep sweep(from_spec, spec);

    // The enqueue mirror exactly as bench_f9_ftq_sweep.cc wrote it
    // before the spec refactor (PR 2/PR 3 vintage).
    Runner mirror(spec.warmup, spec.measure);
    mirror.disableCache();
    for (unsigned entries : {2u, 4u, 8u, 16u, 32u, 64u}) {
        for (const auto &name : largeFootprintNames()) {
            mirror.enqueueSpeedup(
                name, PrefetchScheme::FdpRemove,
                "ftq" + std::to_string(entries),
                [entries](SimConfig &cfg) {
                    cfg.ftqEntries = entries;
                });
        }
    }

    EXPECT_EQ(from_spec.pendingRuns(), mirror.pendingRuns());
    EXPECT_EQ(sorted(from_spec.pendingFingerprints()),
              sorted(mirror.pendingFingerprints()));
    EXPECT_EQ(countDistinctPoints(spec), mirror.pendingRuns());
    EXPECT_EQ(sweep.points().size(), mirror.pendingRuns());
}

TEST(ExperimentSweepDeath, NamesMustBeUnambiguousAndDeclared)
{
    ExperimentSpec s;
    s.id = "T-AMBIGUOUS";
    s.binary = "test";
    auto ftq = [](unsigned n) {
        return [n](SimConfig &cfg) { cfg.ftqEntries = n; };
    };
    // One variant key bound to two machines by two grids.
    s.grids = {{{"li"}, {PrefetchScheme::Nlp}, {{"k", "a", ftq(8)}}, false},
               {{"li"}, {PrefetchScheme::Nlp}, {{"k", "b", ftq(16)}},
                false}};
    EXPECT_DEATH(
        {
            Runner r(10 * 1000, 10 * 1000);
            Sweep sweep(r, s);
        },
        "two different machines");

    // Reading a point the grids never declare.
    s.grids.pop_back();
    EXPECT_DEATH(
        {
            Runner r(10 * 1000, 10 * 1000);
            r.disableCache();
            Sweep sweep(r, s);
            sweep.run("li", PrefetchScheme::Nlp, "other");
        },
        "no grid declares");
}

TEST(ExperimentExpansion, BaselineGridAddsNoPrefetchPoints)
{
    ExperimentSpec s;
    s.id = "T-GRID";
    s.binary = "test";
    s.grids = {{{"gcc", "li"}, {PrefetchScheme::FdpRemove},
                {{"k1", "one", nullptr}}, true}};
    EXPECT_EQ(countDistinctPoints(s), 4u); // 2 workloads x {None, FdpRemove}

    std::size_t calls = 0, baselines = 0;
    forEachGridPoint(s, [&](const std::string &, PrefetchScheme scheme,
                            const TweakVariant &v) {
        ++calls;
        if (scheme == PrefetchScheme::None)
            ++baselines;
        EXPECT_EQ(v.key, "k1");
    });
    EXPECT_EQ(calls, 4u);
    EXPECT_EQ(baselines, 2u);
}

TEST(ExperimentExpansion, EmptyGridsExpandToNothing)
{
    ExperimentSpec s;
    s.id = "T-EMPTY";
    s.binary = "test";
    EXPECT_EQ(countDistinctPoints(s), 0u);
    Runner r(10 * 1000, 10 * 1000);
    r.disableCache();
    Sweep sweep(r, s);
    EXPECT_EQ(r.pendingRuns(), 0u);
    EXPECT_TRUE(sweep.points().empty());
}

TEST(ExperimentStatsJson, ExportsEveryPointWithPerCoreRows)
{
    ExperimentSpec s;
    s.id = "T-JSON";
    s.binary = "test";
    s.warmup = 5 * 1000;
    s.measure = 10 * 1000;
    s.grids = {{{"li"}, {PrefetchScheme::Nlp},
                {{"c2", "2 cores", [](SimConfig &c) { applyMultiCore(c, 2); }}},
                true}};
    std::string path = ::testing::TempDir() + "fdip-stats-json-test.json";
    const char *argv[] = {"test", "--jobs", "1", "--stats-json",
                          path.c_str()};
    ::testing::internal::CaptureStdout();
    int rc = experimentMain(s, 5, const_cast<char **>(argv));
    ::testing::internal::GetCapturedStdout();
    ASSERT_EQ(rc, 0);

    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string err;
    EXPECT_TRUE(jsonValidate(text, &err)) << err;
    // li/nlp and its no-prefetch baseline, each with two core rows.
    std::size_t rows = 0;
    for (std::size_t at = text.find("\"per_core\": ["); at != std::string::npos;
         at = text.find("\"per_core\": [", at + 1))
        ++rows;
    EXPECT_EQ(rows, 2u) << text;
    EXPECT_NE(text.find("\"variant\": \"c2\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ExperimentMain, MalformedRunFlagsAreFatalAndNameTheFlag)
{
    // None of these may be read as a prefix ("2000x" as 2000), as 0
    // ("abc"), or wrapped ("-1" as 4294967295).
    ExperimentSpec s;
    s.id = "T-FLAGS";
    s.binary = "test";
    const char *bad[][2] = {{"--warmup", "abc"},
                            {"--measure", "2000x"},
                            {"--jobs", "-1"},
                            {"--jobs", "0"},
                            {"--warmup", " 5"},
                            {"--warmup", "18446744073709551616"}};
    for (const auto &[flag, value] : bad) {
        const char *argv[] = {"test", flag, value, "--list"};
        ::testing::internal::CaptureStdout();
        ::testing::internal::CaptureStderr();
        int rc = experimentMain(s, 4, const_cast<char **>(argv));
        std::string err = ::testing::internal::GetCapturedStderr();
        std::string out = ::testing::internal::GetCapturedStdout();
        EXPECT_EQ(rc, 1) << flag << " '" << value << "'";
        EXPECT_EQ(err.find(std::string("fatal: ") + flag), 0u) << err;
        EXPECT_TRUE(out.empty()) << out;
    }
    // Thrown fatals stay inside experimentMain: the caller's mode is
    // back, and well-formed values still parse.
    EXPECT_EQ(fatalMode(), FatalMode::Abort);
    const char *good[] = {"test", "--jobs", "2", "--warmup", "0",
                          "--measure", "7", "--list"};
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(experimentMain(s, 8, const_cast<char **>(good)), 0);
    ::testing::internal::GetCapturedStdout();
}

TEST(ExperimentDescribe, OutputIsStable)
{
    const std::string expected =
        "R-F9: FTQ depth sweep (FDP remove-CPF vs baseline FTQ=32)\n"
        "  binary:     bench_f9_ftq_sweep\n"
        "  reproduces: MICRO-32, Fig. 9 (FTQ size sensitivity)\n"
        "  expected:   tiny FTQs cripple FDP (no lookahead); gains "
        "saturate by a few tens of entries\n"
        "  run:        150000 warmup + 500000 measured instructions "
        "per point\n"
        "  grid 1:     6 workloads x 1 schemes x 6 variants "
        "(+ no-prefetch baselines)\n"
        "    workloads: burg perl go groff gcc vortex\n"
        "    schemes:   fdp-remove\n"
        "    variants:  ftq2 = 2-entry FTQ, ftq4 = 4-entry FTQ, "
        "ftq8 = 8-entry FTQ, ftq16 = 16-entry FTQ, "
        "ftq32 = 32-entry FTQ, ftq64 = 64-entry FTQ\n"
        "  points:     72 distinct simulations\n";
    const ExperimentSpec *spec = f9Spec();
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(describeExperiment(*spec), expected);
}

TEST(ExperimentList, OutputIsStable)
{
    const std::string expected =
        "R-F9    bench_f9_ftq_sweep              72 points  "
        "FTQ depth sweep (FDP remove-CPF vs baseline FTQ=32)\n";
    const ExperimentSpec *spec = f9Spec();
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(listExperiments({spec}), expected);
}

TEST(ExperimentCatalog, MarkdownMentionsEverySpec)
{
    auto specs = ExperimentRegistry::instance().all();
    std::string md = experimentCatalogMarkdown(specs);
    EXPECT_NE(md.find("# Experiment catalog"), std::string::npos);
    EXPECT_NE(md.find("Do not edit by hand"), std::string::npos);
    for (const ExperimentSpec *s : specs) {
        EXPECT_NE(md.find("## " + s->id + ": "), std::string::npos)
            << s->id;
        EXPECT_NE(md.find("`" + s->binary + "`"), std::string::npos)
            << s->binary;
    }
}
