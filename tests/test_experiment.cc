/**
 * Tests for the declarative experiment-grid subsystem
 * (sim/experiment.hh) and the experiment command line. Every spec TU
 * is linked into this test (see CMakeLists.txt), pinning the real
 * production grids:
 *  - spec expansion produces exactly the enqueue set the old
 *    hand-written mirror produced,
 *  - --list / --describe output is stable, and the R-X16/17/18
 *    introspection matches tests/golden/,
 *  - the catalog matches docs/EXPERIMENTS.md,
 *  - one run over several specs simulates a shared point once and
 *    reports each failure under the spec that declares it.
 *
 * The catalog and goldens regenerate with:
 *
 *     ./build/fdip_experiments > docs/EXPERIMENTS.md
 *     ./build/fdip_experiments --list | grep '^R-X16 ' \
 *         > tests/golden/x16_list.golden
 *     ./build/fdip_experiments --describe R-X16 \
 *         > tests/golden/x16_describe.golden
 *
 * (likewise for R-X17 and R-X18), with TMPDIR=/tmp and
 * FDIP_TRACE_PATHS unset: X-T3's default trace paths are part of the
 * catalog.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** What one experimentMain() call returned and printed. */
struct CliResult
{
    int rc = -1;
    std::string out;
    std::string err;
};

CliResult
runCli(const std::vector<const ExperimentSpec *> &specs,
       std::vector<const char *> args)
{
    args.insert(args.begin(), "fdip_experiments");
    CliResult r;
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    r.rc = experimentMain(specs, static_cast<int>(args.size()),
                          const_cast<char **>(args.data()));
    r.err = ::testing::internal::GetCapturedStderr();
    r.out = ::testing::internal::GetCapturedStdout();
    return r;
}

/** A short synthetic spec: one grid, li only, baselines included. */
ExperimentSpec
tinySpec(const std::string &id, PrefetchScheme scheme)
{
    ExperimentSpec s;
    s.id = id;
    s.title = id + " title";
    s.shape = "n/a";
    s.warmup = 5 * 1000;
    s.measure = 10 * 1000;
    s.grids = {{{"li"}, {scheme}, {}, true}};
    return s;
}

/** Distinct fingerprints the given specs' grids expand to. */
std::size_t
distinctFingerprints(const std::vector<const ExperimentSpec *> &specs)
{
    std::set<std::uint64_t> seen;
    for (const ExperimentSpec *spec : specs) {
        forEachGridPoint(*spec, [&](const std::string &w, PrefetchScheme s,
                                    const TweakVariant &v) {
            seen.insert(gridConfig(w, s, spec->warmup, spec->measure,
                                   v.tweak)
                            .fingerprint());
        });
    }
    return seen.size();
}

} // namespace

TEST(ExperimentRegistry, F9SpecIsRegistered)
{
    const ExperimentSpec *spec = f9Spec();
    ASSERT_NE(spec, nullptr)
        << "bench_f9_ftq_sweep.cc must be linked into this test";
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
    Sweep sweep(from_spec, spec, spec.warmup, spec.measure);

    // The enqueue mirror exactly as bench_f9_ftq_sweep.cc wrote it
    // before the spec refactor (PR 2/PR 3 vintage).
    Runner mirror(spec.warmup, spec.measure);
    mirror.disableCache();
    for (unsigned entries : {2u, 4u, 8u, 16u, 32u, 64u}) {
        for (const auto &name : largeFootprintNames()) {
            auto ftq = [entries](SimConfig &cfg) {
                cfg.ftqEntries = entries;
            };
            std::string key = "ftq" + std::to_string(entries);
            mirror.enqueue(name, PrefetchScheme::None, key, ftq);
            mirror.enqueue(name, PrefetchScheme::FdpRemove, key, ftq);
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
            Sweep sweep(r, s, 10 * 1000, 10 * 1000);
        },
        "two different machines");

    // Reading a point the grids never declare.
    s.grids.pop_back();
    EXPECT_DEATH(
        {
            Runner r(10 * 1000, 10 * 1000);
            r.disableCache();
            Sweep sweep(r, s, 10 * 1000, 10 * 1000);
            sweep.run("li", PrefetchScheme::Nlp, "other");
        },
        "no grid declares");
}

TEST(ExperimentExpansion, BaselineGridAddsNoPrefetchPoints)
{
    ExperimentSpec s;
    s.id = "T-GRID";
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
    EXPECT_EQ(countDistinctPoints(s), 0u);
    Runner r(10 * 1000, 10 * 1000);
    r.disableCache();
    Sweep sweep(r, s, 10 * 1000, 10 * 1000);
    EXPECT_EQ(r.pendingRuns(), 0u);
    EXPECT_TRUE(sweep.points().empty());
}

TEST(ExperimentStatsJson, ExportsEveryPointWithPerCoreRows)
{
    ExperimentSpec s;
    s.id = "T-JSON";
    s.warmup = 5 * 1000;
    s.measure = 10 * 1000;
    s.grids = {{{"li"}, {PrefetchScheme::Nlp},
                {{"c2", "2 cores", [](SimConfig &c) { applyMultiCore(c, 2); }}},
                true}};
    std::string path = ::testing::TempDir() + "fdip-stats-json-test.json";
    CliResult r = runCli({&s}, {"run", "T-JSON", "--jobs", "1",
                                "--stats-json", path.c_str()});
    ASSERT_EQ(r.rc, 0) << r.err;

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
    const char *bad[][2] = {{"--warmup", "abc"},
                            {"--measure", "2000x"},
                            {"--jobs", "-1"},
                            {"--jobs", "0"},
                            {"--warmup", " 5"},
                            {"--warmup", "18446744073709551616"}};
    for (const auto &[flag, value] : bad) {
        CliResult r = runCli({&s}, {"run", "T-FLAGS", flag, value});
        EXPECT_EQ(r.rc, 1) << flag << " '" << value << "'";
        EXPECT_EQ(r.err.find(std::string("fatal: ") + flag), 0u) << r.err;
        EXPECT_TRUE(r.out.empty()) << r.out;
    }
    // Thrown fatals stay inside experimentMain: the caller's mode is
    // back, and well-formed values still parse.
    EXPECT_EQ(fatalMode(), FatalMode::Abort);
    EXPECT_EQ(runCli({&s}, {"run", "T-FLAGS", "--jobs", "2", "--warmup",
                            "0", "--measure", "7"})
                  .rc,
              0);
}

// A SimError raised while a point's config is built (X-T3's tweak
// captures its default traces there) ends every command with a
// "fatal:" line and exit 1, never an abort.
TEST(ExperimentMain, TweakFailureIsFatalInEveryCommand)
{
    ExperimentSpec s = tinySpec("T-TWEAK", PrefetchScheme::Nlp);
    s.grids[0].variants = {{"", "failing tweak", [](SimConfig &) {
                                throw SimError("cannot capture trace");
                            }}};
    std::vector<std::vector<const char *>> commands = {
        {"--list"}, {"--describe", "T-TWEAK"}, {}, {"run", "T-TWEAK"}};
    for (const auto &args : commands) {
        CliResult r = runCli({&s}, args);
        EXPECT_EQ(r.rc, 1) << r.out;
        EXPECT_EQ(r.err, "fatal: cannot capture trace\n");
        EXPECT_TRUE(r.out.empty()) << r.out;
    }
    EXPECT_EQ(fatalMode(), FatalMode::Abort);
}

TEST(ExperimentMain, MalformedCommandsAreFatal)
{
    ExperimentSpec a = tinySpec("T-A", PrefetchScheme::Nlp);
    ExperimentSpec b = tinySpec("T-B", PrefetchScheme::FdpRemove);
    struct Case
    {
        std::vector<const char *> args;
        const char *error;
    };
    const Case cases[] = {
        {{"run", "T-A", "T-NOPE"}, "fatal: unknown experiment id 'T-NOPE'"},
        {{"--describe", "T-NOPE"}, "fatal: unknown experiment id 'T-NOPE'"},
        {{"run", "T-A", "T-B", "--stats-json", "/dev/null"},
         "fatal: --stats-json"},
        {{"run", "--all", "--stats-json", "/dev/null"},
         "fatal: --stats-json"},
        {{"run"}, "fatal: run takes experiment ids or --all"},
        {{"run", "--all", "T-A"}, "fatal: run takes experiment ids or --all"},
        {{"--list", "--jobs", "2"}, "fatal: --all/--jobs"},
        {{"--list", "--describe", "T-A"}, "fatal: --describe cannot"},
        {{"T-A"}, "fatal: unknown argument 'T-A'"},
        {{"--check", "docs/EXPERIMENTS.md"},
         "fatal: unknown argument '--check'"},
    };
    for (const Case &c : cases) {
        CliResult r = runCli({&a, &b}, c.args);
        EXPECT_EQ(r.rc, 1) << c.error;
        EXPECT_EQ(r.err.find(c.error), 0u) << r.err;
        EXPECT_TRUE(r.out.empty()) << r.out;
    }
}

// Two specs whose grids share the li no-prefetch baseline: one run
// simulates it once, prints one footer, then each spec in order.
TEST(ExperimentRun, SharedPointRunsOnceAndSpecsPrintInOrder)
{
    ExperimentSpec a = tinySpec("T-A", PrefetchScheme::Nlp);
    ExperimentSpec b = tinySpec("T-B", PrefetchScheme::FdpRemove);
    a.render = [](const Sweep &) { std::printf("render T-A\n"); };
    b.render = [](const Sweep &) { std::printf("render T-B\n"); };
    ASSERT_EQ(distinctFingerprints({&a, &b}), 3u);

    CliResult r = runCli({&a, &b}, {"run", "T-A", "T-B", "--jobs", "2"});
    ASSERT_EQ(r.rc, 0) << r.err;
    EXPECT_EQ(r.out.find("sweep: 3 points in "), 0u) << r.out;
    EXPECT_NE(r.out.find("reuse: 1 memo hits"), std::string::npos)
        << r.out;
    std::size_t a_at = r.out.find("T-A: T-A title\n");
    std::size_t a_render = r.out.find("render T-A\n");
    std::size_t b_at = r.out.find("T-B: T-B title\n");
    std::size_t b_render = r.out.find("render T-B\n");
    ASSERT_NE(b_render, std::string::npos) << r.out;
    EXPECT_LT(a_at, a_render);
    EXPECT_LT(a_render, b_at);
    EXPECT_LT(b_at, b_render);
    EXPECT_EQ(r.out.find("sweep:", 1), std::string::npos) << r.out;

    // --all runs every given spec, in the given order.
    CliResult all = runCli({&a, &b}, {"run", "--all", "--jobs", "2"});
    ASSERT_EQ(all.rc, 0) << all.err;
    auto tables = [](const std::string &out) {
        return out.substr(out.find("====="));
    };
    EXPECT_EQ(tables(all.out), tables(r.out));
}

TEST(ExperimentRun, FailedPointIsListedUnderItsOwnSpec)
{
    ExperimentSpec a = tinySpec("T-A", PrefetchScheme::Nlp);
    ExperimentSpec b = tinySpec("T-B", PrefetchScheme::FdpRemove);
    // The partitioned BTB refuses to be built with no partitions.
    a.grids.push_back({{"li"}, {PrefetchScheme::Nlp},
                       {{"nopart", "no BTB partitions",
                         [](SimConfig &c) {
                             c.bpu.targetBuffer = TargetBuffer::Partitioned;
                         }}},
                       false});

    CliResult r = runCli({&b, &a}, {"run", "T-B", "T-A", "--jobs", "2"});
    EXPECT_EQ(r.rc, 3);
    std::size_t a_at = r.out.find("T-A: T-A title\n");
    std::size_t failed_at = r.out.find("failed points:\n");
    ASSERT_NE(a_at, std::string::npos) << r.out;
    EXPECT_GT(failed_at, a_at) << r.out;
    EXPECT_EQ(r.out.find("failed points:", failed_at + 1),
              std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("  FAIL (li, nlp, 'nopart'): "), std::string::npos)
        << r.out;
    EXPECT_NE(r.out.find("health: 1 failed points"), std::string::npos)
        << r.out;
}

TEST(ExperimentRun, EachSpecRunsAtItsOwnLengthsUnlessOverridden)
{
    ExperimentSpec a = tinySpec("T-A", PrefetchScheme::Nlp);
    ExperimentSpec b = tinySpec("T-B", PrefetchScheme::Nlp);
    b.warmup = 4 * 1000;
    b.measure = 8 * 1000;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> seen;
    auto record = [&seen](const std::string &id) {
        return [&seen, id](const Sweep &sweep) {
            for (const Sweep::Point &p : sweep.points())
                seen[id] = {p.cfg.warmupInsts, p.cfg.measureInsts};
        };
    };
    a.render = record("T-A");
    b.render = record("T-B");

    CliResult r = runCli({&a, &b}, {"run", "--all", "--jobs", "2"});
    ASSERT_EQ(r.rc, 0) << r.err;
    EXPECT_EQ(r.out.find("sweep: 4 points in "), 0u) << r.out;
    EXPECT_EQ(seen["T-A"], std::make_pair(std::uint64_t{5000},
                                          std::uint64_t{10000}));
    EXPECT_EQ(seen["T-B"], std::make_pair(std::uint64_t{4000},
                                          std::uint64_t{8000}));

    r = runCli({&a, &b}, {"run", "--all", "--jobs", "2", "--measure",
                          "7000"});
    ASSERT_EQ(r.rc, 0) << r.err;
    EXPECT_EQ(seen["T-A"], std::make_pair(std::uint64_t{5000},
                                          std::uint64_t{7000}));
    EXPECT_EQ(seen["T-B"], std::make_pair(std::uint64_t{4000},
                                          std::uint64_t{7000}));

    r = runCli({&a, &b}, {"run", "--all", "--jobs", "2", "--warmup",
                          "3000", "--measure", "6000"});
    ASSERT_EQ(r.rc, 0) << r.err;
    // One machine at one pair of lengths: the two specs share both.
    EXPECT_EQ(r.out.find("sweep: 2 points in "), 0u) << r.out;
    EXPECT_EQ(seen["T-A"], seen["T-B"]);
    EXPECT_EQ(seen["T-B"], std::make_pair(std::uint64_t{3000},
                                          std::uint64_t{6000}));
}

TEST(ExperimentDescribe, OutputIsStable)
{
    const std::string expected =
        "R-F9: FTQ depth sweep (FDP remove-CPF vs baseline FTQ=32)\n"
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
        "R-F9       72 points  "
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
    }
}

// The checked-in catalog and the R-X16/17/18 introspection goldens are
// the registry's output (regeneration commands in the file comment).
TEST(ExperimentCatalog, MatchesCheckedInDocs)
{
    EXPECT_EQ(experimentCatalogMarkdown(ExperimentRegistry::instance().all()),
              readFile(FDIP_TESTS_DIR "/../docs/EXPERIMENTS.md"))
        << "docs/EXPERIMENTS.md drifted from the experiment registry. "
           "Regenerate it with:\n"
           "    TMPDIR=/tmp FDIP_TRACE_PATHS= ./build/fdip_experiments > "
           "docs/EXPERIMENTS.md";
}

TEST(ExperimentIntrospection, MatchesGoldens)
{
    for (const char *id : {"x16", "x17", "x18"}) {
        std::string spec_id = "R-X" + std::string(id + 1);
        const ExperimentSpec *spec =
            ExperimentRegistry::instance().find(spec_id);
        ASSERT_NE(spec, nullptr) << spec_id;
        std::string golden = std::string(FDIP_TESTS_DIR "/golden/") + id;
        EXPECT_EQ(listExperiments({spec}), readFile(golden + "_list.golden"))
            << spec_id;
        EXPECT_EQ(describeExperiment(*spec),
                  readFile(golden + "_describe.golden"))
            << spec_id;
    }
}
