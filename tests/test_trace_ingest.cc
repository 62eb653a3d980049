/**
 * Conformance suite for the trace ingestion frontend (docs/TRACES.md):
 *
 *  - ChampSim decode: byte-level golden decode of the checked-in
 *    fixture (tests/fixtures/mini.champsim.trace), the branch-type
 *    register heuristics, and the canonical-stream invariant the
 *    PC canonicalizer guarantees.
 *  - v2 format: delta-encoding edge cases (far-target sentinel,
 *    alignment rejection), truncated/corrupt inputs rejected with
 *    SimError.
 *  - Warmup/ROI phases: ROI instruction accounting, the
 *    skip-N == discard-N-records equivalence, and a synthetic skip
 *    (served from the process's shared start) against the same skip
 *    over a replayed trace.
 *  - Differential replay: a recorded synthetic workload replayed
 *    through the streaming reader is bit-identical (serializeResults)
 *    to the live executor, in both tick modes.
 *
 * The golden decode baseline regenerates with:
 *
 *     FDIP_UPDATE_GOLDEN=1 ./build/test_trace_ingest
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.hh"
#include "common/error.hh"
#include "common/logging.hh"
#include "sim/presets.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "test_helpers.hh"
#include "trace/champsim.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"
#include "trace/trace_file.hh"

using namespace fdip;

namespace
{

const char *kFixturePath =
    FDIP_TESTS_DIR "/fixtures/mini.champsim.trace";
const char *kGoldenPath =
    FDIP_TESTS_DIR "/golden/champsim_fixture_decode.golden";

struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path("/tmp/fdip_ingest_" + name + ".trace")
    {}
    ~TempPath() { std::remove(path.c_str()); }
};

WorkloadProfile
miniProfile()
{
    WorkloadProfile p;
    p.name = "mini";
    p.seed = 23;
    return p;
}

/** A ChampSim record with the given register operand slots. */
ChampSimRecord
makeRec(std::uint64_t ip, bool is_branch, bool taken,
        std::vector<std::uint8_t> dst, std::vector<std::uint8_t> src)
{
    ChampSimRecord r{};
    r.ip = ip;
    r.isBranch = is_branch ? 1 : 0;
    r.branchTaken = taken ? 1 : 0;
    for (std::size_t i = 0;
         i < dst.size() && i < std::size(r.destinationRegisters); ++i)
        r.destinationRegisters[i] = dst[i];
    for (std::size_t i = 0;
         i < src.size() && i < std::size(r.sourceRegisters); ++i)
        r.sourceRegisters[i] = src[i];
    return r;
}

std::string
formatInstr(const TraceInstr &ti)
{
    return strprintf("%#010llx %-7s taken=%d target=%#010llx\n",
                     static_cast<unsigned long long>(ti.pc),
                     instClassName(ti.cls), ti.taken ? 1 : 0,
                     ti.target == invalidAddr
                         ? 0ull
                         : static_cast<unsigned long long>(ti.target));
}

/** Decode @p n canonical instructions from the fixture. */
std::vector<TraceInstr>
decodeFixture(std::size_t n, const std::string &path = kFixturePath)
{
    ChampSimTraceReader reader(path);
    std::vector<TraceInstr> out;
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(reader.next());
    return out;
}

void
writeBytes(const std::string &path, const void *data, std::size_t n)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data, 1, n, f), n);
    std::fclose(f);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // namespace

// ---------------------------------------------------------------------
// Branch-type reconstruction heuristics
// ---------------------------------------------------------------------

TEST(ChampSimClassify, RegisterHeuristicsCoverEveryClass)
{
    const std::uint8_t SP = champSimRegStackPointer;
    const std::uint8_t FL = champSimRegFlags;
    const std::uint8_t IP = champSimRegInstructionPointer;
    const std::uint8_t GP = 3;

    // Not a branch, no IP write: plain instruction.
    EXPECT_EQ(classifyChampSim(makeRec(0x1000, false, false, {GP}, {GP})),
              InstClass::NonCF);
    // Writes IP, reads IP only: direct jump.
    EXPECT_EQ(classifyChampSim(makeRec(0x1000, true, true, {IP}, {IP})),
              InstClass::Jump);
    // Writes IP, reads a general register only: indirect jump.
    EXPECT_EQ(classifyChampSim(makeRec(0x1000, true, true, {IP}, {GP})),
              InstClass::IndJump);
    // Writes IP, reads IP and flags: conditional branch.
    EXPECT_EQ(
        classifyChampSim(makeRec(0x1000, true, false, {IP}, {IP, FL})),
        InstClass::CondBr);
    // Writes IP and SP, reads IP and SP: direct call.
    EXPECT_EQ(
        classifyChampSim(makeRec(0x1000, true, true, {IP, SP}, {IP, SP})),
        InstClass::Call);
    // Writes IP and SP, reads SP and a general register: indirect call.
    EXPECT_EQ(
        classifyChampSim(makeRec(0x1000, true, true, {IP, SP}, {SP, GP})),
        InstClass::IndCall);
    // Writes IP and SP, reads SP only: return.
    EXPECT_EQ(
        classifyChampSim(makeRec(0x1000, true, true, {IP, SP}, {SP})),
        InstClass::Return);
    // Flagged as a branch but no IP write: heuristics cannot place it;
    // degrade to the conservative CondBr.
    EXPECT_EQ(classifyChampSim(makeRec(0x1000, true, false, {GP}, {GP})),
              InstClass::CondBr);
}

TEST(ChampSimClassify, PathDispatchByExtension)
{
    EXPECT_TRUE(isChampSimTracePath("a/b/foo.champsim.trace"));
    EXPECT_TRUE(isChampSimTracePath("foo.champsim.trace.xz"));
    EXPECT_TRUE(isChampSimTracePath("foo.champsim.trace.gz"));
    EXPECT_TRUE(isChampSimTracePath("600.perlbench_s-210B.champsimtrace.xz"));
    EXPECT_FALSE(isChampSimTracePath("foo.fdip.trace"));
    EXPECT_FALSE(isChampSimTracePath("foo.trace.xz"));
}

// ---------------------------------------------------------------------
// Fixture decode: golden baseline + canonical-stream invariant
// ---------------------------------------------------------------------

// Byte-level golden decode: the first two passes over the checked-in
// fixture, canonical PCs and all. Any change to the classification
// heuristics, the canonicalizer's allocation order, or trampoline
// placement fails loudly here.
TEST(ChampSimDecode, GoldenFixtureDecode)
{
    // 84 canonical instructions cover two-plus passes over the
    // 33-record fixture (trampolines add records), so the golden also
    // pins that pass two replays pass one's memoized decisions.
    std::string got;
    for (const TraceInstr &ti : decodeFixture(84))
        got += formatInstr(ti);

    if (envFlag("FDIP_UPDATE_GOLDEN")) {
        std::ofstream out(kGoldenPath, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
        out << got;
        GTEST_SKIP() << "golden baseline rewritten: " << kGoldenPath;
    }

    std::ifstream in(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing golden baseline " << kGoldenPath
        << " — generate it with FDIP_UPDATE_GOLDEN=1";
    std::stringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(got, buf.str())
        << "fixture decode drifted; if intentional, regenerate with "
        << "FDIP_UPDATE_GOLDEN=1 and commit the new baseline";
}

// The invariant every consumer of canonical streams relies on: PCs are
// word aligned inside the reader's code region, every not-taken record
// is followed by pc+4, and every taken record is followed by its
// target.
TEST(ChampSimDecode, CanonicalStreamInvariant)
{
    ChampSimTraceReader reader(kFixturePath);
    std::vector<TraceInstr> insts;
    for (int i = 0; i < 400; ++i)
        insts.push_back(reader.next());
    EXPECT_GE(reader.sourcePasses(), 8u);

    for (std::size_t i = 0; i < insts.size(); ++i) {
        const TraceInstr &ti = insts[i];
        ASSERT_EQ(ti.pc % instBytes, 0u) << "at " << i;
        ASSERT_GE(ti.pc, reader.codeBase()) << "at " << i;
        ASSERT_LT(ti.pc, reader.allocatedEnd()) << "at " << i;
        if (ti.taken) {
            ASSERT_NE(ti.target, invalidAddr) << "at " << i;
            ASSERT_EQ(ti.target % instBytes, 0u) << "at " << i;
        }
        if (i + 1 < insts.size()) {
            Addr expect = ti.taken ? ti.target : ti.pc + instBytes;
            ASSERT_EQ(insts[i + 1].pc, expect)
                << "at " << i << ": " << formatInstr(ti) << "  next "
                << formatInstr(insts[i + 1]);
        }
    }
    EXPECT_LE(reader.allocatedEnd(), reader.codeEnd());
    EXPECT_GT(reader.allocatedEnd(), reader.codeBase());
}

// The decode covers the whole class repertoire (the fixture was built
// to exercise every heuristic).
TEST(ChampSimDecode, FixtureExercisesAllClasses)
{
    std::vector<bool> seen(static_cast<int>(InstClass::IndCall) + 1,
                           false);
    for (const TraceInstr &ti : decodeFixture(40))
        seen[static_cast<int>(ti.cls)] = true;
    for (std::size_t c = 0; c < seen.size(); ++c)
        EXPECT_TRUE(seen[c])
            << instClassName(static_cast<InstClass>(c)) << " never decoded";
}

TEST(ChampSimDecode, TruncatedRecordRejected)
{
    TempPath tmp("champsim_truncated");
    std::string bytes = readFile(kFixturePath);
    ASSERT_EQ(bytes.size() % sizeof(ChampSimRecord), 0u);
    bytes.resize(bytes.size() - 17); // cut into the final record
    writeBytes(tmp.path, bytes.data(), bytes.size());

    ChampSimTraceReader reader(tmp.path);
    EXPECT_THROW(
        {
            for (int i = 0; i < 200; ++i)
                reader.next();
        },
        SimError);
}

TEST(ChampSimDecode, EmptyInputRejected)
{
    TempPath tmp("champsim_empty");
    writeBytes(tmp.path, "", 0);
    EXPECT_THROW({ ChampSimTraceReader r(tmp.path); }, SimError);
    EXPECT_THROW(
        { ChampSimTraceReader r("/nonexistent/x.champsim.trace"); },
        SimError);
}

// Decompression pipe: a gzip-compressed fixture decodes identically to
// the raw one.
TEST(ChampSimDecode, GzipPipeMatchesRawDecode)
{
    if (std::system("gzip --version >/dev/null 2>&1") != 0)
        GTEST_SKIP() << "no gzip in PATH";
    TempPath tmp("gzfixture");
    std::string gz = tmp.path + ".champsim.trace.gz";
    std::string cmd = "gzip -c " + std::string(kFixturePath) + " > " + gz;
    ASSERT_EQ(std::system(cmd.c_str()), 0);

    auto raw = decodeFixture(84);
    auto piped = decodeFixture(84, gz);
    ASSERT_EQ(raw.size(), piped.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        EXPECT_EQ(formatInstr(raw[i]), formatInstr(piped[i]))
            << "at " << i;
    }
    std::remove(gz.c_str());
}

// ---------------------------------------------------------------------
// v2 delta-encoding edge cases
// ---------------------------------------------------------------------

TEST(TraceV2, FarTargetSentinelRoundTrips)
{
    TempPath tmp("far_target");
    // Forward and backward targets beyond the 32-bit word-delta reach,
    // plus the largest delta that still fits inline on each side.
    const Addr base = 0x10'0000'0000ull;
    const std::int64_t reach = // max inline delta, in bytes
        (std::int64_t(std::numeric_limits<std::int32_t>::max())) * 4;
    std::vector<TraceInstr> recs;
    auto jump = [](Addr pc, Addr target) {
        TraceInstr ti;
        ti.pc = pc;
        ti.cls = InstClass::Jump;
        ti.target = target;
        ti.taken = true;
        return ti;
    };
    recs.push_back(jump(base, base + reach + 4));       // far forward
    recs.push_back(jump(base, base - reach - 4));       // far backward
    recs.push_back(jump(base, base + reach));           // inline max
    recs.push_back(jump(base + reach, 0x0));            // inline min-ish
    recs.push_back(jump(base, base + (1ull << 40)));    // very far

    {
        TraceFileWriter w(tmp.path);
        for (const TraceInstr &ti : recs)
            w.append(ti);
        w.close();
    }
    TraceFileReader r(tmp.path);
    ASSERT_EQ(r.numInsts(), recs.size());
    for (std::size_t i = 0; i < recs.size(); ++i) {
        TraceInstr got = r.next();
        EXPECT_EQ(got.pc, recs[i].pc) << "at " << i;
        EXPECT_EQ(got.target, recs[i].target) << "at " << i;
        EXPECT_EQ(got.cls, recs[i].cls) << "at " << i;
        EXPECT_TRUE(got.taken) << "at " << i;
    }
}

TEST(TraceV2, InvalidTargetRoundTripsWithoutFlag)
{
    TempPath tmp("no_target");
    TraceInstr ti;
    ti.pc = 0x400000;
    ti.cls = InstClass::NonCF;
    ti.target = invalidAddr;
    ti.taken = false;
    {
        TraceFileWriter w(tmp.path);
        w.append(ti);
        w.close();
    }
    TraceFileReader r(tmp.path);
    TraceInstr got = r.next();
    EXPECT_EQ(got.pc, ti.pc);
    EXPECT_EQ(got.target, invalidAddr);
    EXPECT_FALSE(got.taken);
}

TEST(TraceV2, RejectsUnalignedAddressesAtWrite)
{
    TempPath tmp("unaligned");
    TraceFileWriter w(tmp.path);
    TraceInstr bad_pc;
    bad_pc.pc = 0x400001; // not word aligned
    bad_pc.cls = InstClass::NonCF;
    bad_pc.target = invalidAddr;
    EXPECT_THROW(w.append(bad_pc), SimError);

    TraceInstr bad_target;
    bad_target.pc = 0x400000;
    bad_target.cls = InstClass::Jump;
    bad_target.target = 0x400006; // valid but unaligned target
    bad_target.taken = true;
    EXPECT_THROW(w.append(bad_target), SimError);
}

TEST(TraceV2, RejectsTruncatedRecordStream)
{
    TempPath tmp("v2_truncated");
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor src(*prog, miniProfile());
    writeTraceFile(tmp.path, src, 32);

    std::string bytes = readFile(tmp.path);
    bytes.resize(bytes.size() - 9); // cut into the final record
    writeBytes(tmp.path, bytes.data(), bytes.size());

    TraceFileReader r(tmp.path);
    EXPECT_THROW(
        {
            for (int i = 0; i < 32; ++i)
                r.next();
        },
        SimError);
}

TEST(TraceV2, RejectsCorruptRecordFields)
{
    auto write_one = [](const std::string &path,
                        const TraceFileRecordV2 &rec) {
        TraceFileHeader h;
        h.numInsts = 1;
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(&h, sizeof(h), 1, f), 1u);
        ASSERT_EQ(std::fwrite(&rec, sizeof(rec), 1, f), 1u);
        std::fclose(f);
    };
    auto expect_reject = [&](const TraceFileRecordV2 &rec,
                             const char *what) {
        TempPath tmp("v2_corrupt");
        write_one(tmp.path, rec);
        TraceFileReader r(tmp.path);
        EXPECT_THROW(r.next(), SimError) << what;
    };

    TraceFileRecordV2 ok{};
    ok.pcAndFlags = (0x400000ull >> 2) << 2; // aligned pc, no target
    ok.cls = static_cast<std::uint8_t>(InstClass::NonCF);

    TraceFileRecordV2 rec = ok;
    rec.pcAndFlags |= 1ull << 1;
    expect_reject(rec, "reserved flag bit set");

    rec = ok;
    rec.cls = 99;
    expect_reject(rec, "out-of-range class");

    rec = ok;
    rec.taken = 2;
    expect_reject(rec, "non-boolean taken");

    rec = ok;
    rec.reserved = 7;
    expect_reject(rec, "reserved field set");

    rec = ok;
    rec.targetDelta = 12; // delta without the target-valid flag
    expect_reject(rec, "delta on an invalid target");
}

// ---------------------------------------------------------------------
// Warmup / ROI phase control
// ---------------------------------------------------------------------

// Stats cover exactly the ROI: warmup instructions are excluded and
// measurement stops within one retire group of the target.
TEST(TraceRoi, InstructionCountCoversExactlyTheRoi)
{
    TempPath tmp("roi_count");
    auto prog = testutil::makeCallPattern();
    SyntheticExecutor src(*prog, miniProfile());
    writeTraceFile(tmp.path, src, 60 * 1000, prog->base,
                   prog->codeEnd());

    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::Nlp);
    cfg.tracePath = tmp.path;
    cfg.warmupInsts = 3 * 1000;
    cfg.measureInsts = 10 * 1000;
    SimResults r = simulate(cfg);
    EXPECT_GE(r.instructions, cfg.measureInsts);
    EXPECT_LT(r.instructions,
              cfg.measureInsts + cfg.backend.retireWidth);
}

// SimConfig::skipInsts fast-forwards the source before warmup: a run
// that skips N records of a trace is bit-identical to a run over the
// same trace with its first N records discarded.
TEST(TraceRoi, SkipNEqualsDiscardNRecords)
{
    TempPath full("roi_full");
    TempPath suffix("roi_suffix");
    constexpr std::uint64_t kTotal = 60 * 1000;
    constexpr std::uint64_t kSkip = 2 * 1000;

    auto prog = testutil::makeCallPattern();
    SyntheticExecutor src(*prog, miniProfile());
    writeTraceFile(full.path, src, kTotal, prog->base, prog->codeEnd());

    // Discard the first kSkip records into a suffix trace.
    {
        TraceFileReader r(full.path);
        TraceFileWriter w(suffix.path, r.codeBase(), r.codeEnd());
        for (std::uint64_t i = 0; i < kSkip; ++i)
            r.next();
        for (std::uint64_t i = kSkip; i < kTotal; ++i)
            w.append(r.next());
        w.close();
    }

    auto run = [](const std::string &path, std::uint64_t skip) {
        SimConfig cfg =
            makeBaselineConfig("roi", PrefetchScheme::FdpEnqueue);
        cfg.tracePath = path;
        cfg.skipInsts = skip;
        cfg.warmupInsts = 1000;
        cfg.measureInsts = 5 * 1000; // well short of a wrap
        return serializeResults(simulate(cfg));
    };
    EXPECT_EQ(run(full.path, kSkip), run(suffix.path, 0));
}

// A synthetic core enters at skipInsts from a copy of the process's
// shared start (sharedStart()); a trace core reads its way there record
// by record. Both must reach the same instruction: a live run of gcc
// skipping N is bit-identical to skipping N records of a trace captured
// from a fresh executor, in both tick modes. The live config is
// simulated twice per point, so the first run also checks the start it
// fast-forwards and every later one a start the memo already held.
TEST(TraceRoi, SyntheticSkipMatchesTraceSkipBothTickModes)
{
    TempPath tmp("synthetic_skip");
    constexpr std::uint64_t kSkip = 20 * 1000;
    const std::string workload = "gcc";
    WorkloadProfile profile = findProfile(workload);
    auto prog = buildProgram(profile);
    {
        SyntheticExecutor exec(*prog, profile);
        // Far more than skip+warmup+measure, so the replay never wraps.
        writeTraceFile(tmp.path, exec, 100 * 1000, prog->base,
                       prog->codeEnd());
    }

    for (PrefetchScheme scheme :
         {PrefetchScheme::FdpRemove, PrefetchScheme::None}) {
        for (bool force_tick : {false, true}) {
            SimConfig live = makeBaselineConfig(workload, scheme);
            live.skipInsts = kSkip;
            live.warmupInsts = 5 * 1000;
            live.measureInsts = 20 * 1000;
            live.forceTick = force_tick;
            SimConfig replay = live;
            replay.tracePath = tmp.path;

            std::string want = serializeResults(simulate(replay));
            for (int build = 0; build < 2; ++build) {
                ASSERT_EQ(serializeResults(simulate(live)), want)
                    << "live skip vs trace skip diverged: scheme="
                    << schemeName(scheme) << " forceTick=" << force_tick
                    << " build=" << build;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Every source kind through a TraceWindow
// ---------------------------------------------------------------------

namespace
{

/**
 * A TraceWindow over @p windowed serves, seq by seq, what next() on
 * @p same (a second source of the same stream) returns. Retiring to
 * 500 behind every 1000th instruction lets the window reach 1500
 * entries, so the ring doubles three times and then wraps about once
 * per 2048 instructions.
 */
void
expectWindowServesNext(TraceSource &windowed, TraceSource &same,
                       InstSeqNum n)
{
    TraceWindow win(windowed);
    for (InstSeqNum s = 0; s < n; ++s) {
        if (s % 1000 == 999)
            win.retireUpTo(s - 500);
        TraceInstr want = same.next();
        const TraceInstr &got = win.at(s);
        ASSERT_EQ(got.pc, want.pc) << "seq " << s;
        ASSERT_EQ(got.cls, want.cls) << "seq " << s;
        ASSERT_EQ(got.taken, want.taken) << "seq " << s;
        ASSERT_EQ(got.target, want.target) << "seq " << s;
    }
}

} // namespace

TEST(TraceSources, WindowServesTheStreamOfNextForEverySourceKind)
{
    constexpr InstSeqNum kInsts = 20 * 1000;
    WorkloadProfile profile = findProfile("gcc");
    auto prog = buildProgram(profile);
    {
        SCOPED_TRACE("synthetic");
        SyntheticExecutor a(*prog, profile);
        SyntheticExecutor b(*prog, profile);
        expectWindowServesNext(a, b, kInsts);
    }
    {
        // Shorter than the run, so both readers loop.
        SCOPED_TRACE("v2 file");
        TempPath tmp("window_sources");
        SyntheticExecutor exec(*prog, profile);
        writeTraceFile(tmp.path, exec, 7 * 1000);
        TraceFileReader a(tmp.path);
        TraceFileReader b(tmp.path);
        expectWindowServesNext(a, b, kInsts);
        EXPECT_EQ(a.loopCount(), 2u);
    }
    {
        SCOPED_TRACE("champsim fixture");
        ChampSimTraceReader a(kFixturePath);
        ChampSimTraceReader b(kFixturePath);
        expectWindowServesNext(a, b, kInsts);
        EXPECT_GT(a.sourcePasses(), 100u);
    }
}

// ---------------------------------------------------------------------
// Differential replay parity (live executor vs streaming reader)
// ---------------------------------------------------------------------

// A recorded synthetic workload replayed through the streaming reader
// produces serializeResults() bit-identical to the live executor run —
// in both tick modes (cf. tests/test_tick_skip.cc; CI re-runs this
// under FDIP_NO_SKIP=1).
TEST(TraceDifferential, ReplayMatchesLiveExecutorBothTickModes)
{
    TempPath tmp("differential");
    const std::string workload = "gcc";
    WorkloadProfile profile = findProfile(workload);
    auto prog = buildProgram(profile);
    {
        SyntheticExecutor exec(*prog, profile);
        // Capture far more than warmup+measure so the replay never
        // wraps (the live stream would diverge at the wrap).
        writeTraceFile(tmp.path, exec, 100 * 1000, prog->base,
                       prog->codeEnd());
    }

    struct Point
    {
        PrefetchScheme scheme;
        bool vm;
    };
    const std::vector<Point> points = {
        {PrefetchScheme::None, false},
        {PrefetchScheme::FdpEnqueue, false},
        {PrefetchScheme::FdpRemove, true},
    };
    for (const Point &p : points) {
        for (bool force_tick : {false, true}) {
            SimConfig live = makeBaselineConfig(workload, p.scheme);
            live.warmupInsts = 5 * 1000;
            live.measureInsts = 20 * 1000;
            live.forceTick = force_tick;
            if (p.vm) {
                applyVmConfig(live, TlbPrefetchPolicy::Wait,
                              PageMapKind::Scrambled,
                              /*itlb_entries=*/16);
            }
            SimConfig replay = live;
            replay.tracePath = tmp.path;

            std::string a = serializeResults(simulate(live));
            std::string b = serializeResults(simulate(replay));
            ASSERT_EQ(a, b)
                << "live vs replay diverged: scheme="
                << schemeName(p.scheme) << " vm=" << p.vm
                << " forceTick=" << force_tick;
        }
    }
}

// End to end: the checked-in ChampSim fixture drives a full simulation
// through the "trace:" workload hook (looping many times over its 33
// records) and produces sane results.
TEST(TraceDifferential, ChampSimFixtureRunsEndToEnd)
{
    SimConfig cfg = makeBaselineConfig(
        "trace:" + std::string(kFixturePath), PrefetchScheme::FdpEnqueue);
    cfg.warmupInsts = 1000;
    cfg.measureInsts = 5 * 1000;
    SimResults r = simulate(cfg);
    EXPECT_GE(r.instructions, cfg.measureInsts);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.cycles, 0u);
}
