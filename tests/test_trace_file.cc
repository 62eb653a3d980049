/** Tests for binary trace record/replay (the v2 format). */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hh"
#include "test_helpers.hh"
#include "trace/trace_file.hh"

using namespace fdip;

namespace
{

struct TempPath
{
    std::string path;
    explicit TempPath(const std::string &name)
        : path("/tmp/fdip_test_" + name + ".trace")
    {}
    ~TempPath() { std::remove(path.c_str()); }
};

WorkloadProfile
miniProfile()
{
    WorkloadProfile p;
    p.name = "mini";
    p.seed = 11;
    return p;
}

} // namespace

// The on-disk layout is a compatibility contract: pin the header and
// record sizes and the field rules so drift between the doc in
// trace_file.hh and the shipped structs cannot recur.
TEST(TraceFile, PinsFormatLayout)
{
    EXPECT_EQ(sizeof(TraceFileHeader), 40u);
    EXPECT_EQ(sizeof(TraceFileRecordV2), 16u);
    EXPECT_EQ(traceFileVersion, 2u);
    EXPECT_EQ(TraceFileHeader{}.magic, traceFileMagic);
    EXPECT_EQ(traceRecordHasTarget, 1ull);
    EXPECT_EQ(traceFarTargetSentinel,
              std::numeric_limits<std::int32_t>::min());
}

TEST(TraceFile, RoundTripPreservesInstructions)
{
    TempPath tmp("roundtrip");
    auto prog = testutil::makeCallPattern();
    SyntheticExecutor writer_src(*prog, miniProfile());
    writeTraceFile(tmp.path, writer_src, 500, prog->base,
                   prog->codeEnd());

    TraceFileHeader written;
    std::FILE *f = std::fopen(tmp.path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fread(&written, sizeof(written), 1, f), 1u);
    std::fclose(f);
    EXPECT_EQ(written.version, traceFileVersion);

    SyntheticExecutor ref(*prog, miniProfile());
    TraceFileReader reader(tmp.path);
    EXPECT_EQ(reader.numInsts(), 500u);
    EXPECT_EQ(reader.codeBase(), prog->base);
    EXPECT_EQ(reader.codeEnd(), prog->codeEnd());
    for (int i = 0; i < 500; ++i) {
        TraceInstr a = ref.next();
        TraceInstr b = reader.next();
        ASSERT_EQ(a.pc, b.pc) << "at " << i;
        ASSERT_EQ(a.cls, b.cls);
        ASSERT_EQ(a.taken, b.taken);
        ASSERT_EQ(a.target, b.target);
    }
}

TEST(TraceFile, ReaderLoopsAtEnd)
{
    TempPath tmp("loop");
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor src(*prog, miniProfile());
    writeTraceFile(tmp.path, src, 16); // exactly two loop iterations

    TraceFileReader reader(tmp.path);
    TraceInstr first = reader.next();
    for (int i = 1; i < 16; ++i)
        reader.next();
    EXPECT_EQ(reader.loopCount(), 0u);
    TraceInstr wrapped = reader.next();
    EXPECT_EQ(reader.loopCount(), 1u);
    EXPECT_EQ(wrapped.pc, first.pc);
}

TEST(TraceFile, ReaderIsATraceSource)
{
    TempPath tmp("source");
    auto prog = testutil::makeTightLoop();
    SyntheticExecutor src(*prog, miniProfile());
    writeTraceFile(tmp.path, src, 64);

    TraceFileReader reader(tmp.path);
    TraceWindow win(reader);
    // Window semantics work over a file-backed source.
    EXPECT_EQ(win.at(10).pc, win.at(10).pc);
    win.retireUpTo(5);
    EXPECT_EQ(win.baseSeq(), 5u);
}

// Corrupt inputs raise SimError in every fatal mode (not the Abort
// exit path): a sweep must be able to isolate one bad trace as a
// FAIL cell instead of dying (docs/ROBUSTNESS.md).
TEST(TraceFile, RejectsGarbageFile)
{
    TempPath tmp("garbage");
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    const char junk[] = "not a trace file at all, sorry";
    std::fwrite(junk, sizeof(junk), 1, f);
    std::fclose(f);
    EXPECT_THROW({ TraceFileReader r(tmp.path); }, SimError);
}

TEST(TraceFile, RejectsMissingFile)
{
    EXPECT_THROW({ TraceFileReader r("/nonexistent/path.trace"); },
                 SimError);
}

TEST(TraceFile, RejectsTruncatedHeader)
{
    TempPath tmp("short");
    std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
    std::uint32_t partial = 42;
    std::fwrite(&partial, sizeof(partial), 1, f);
    std::fclose(f);
    EXPECT_THROW({ TraceFileReader r(tmp.path); }, SimError);
}

// Version 1 (24-byte header, no code range) is no longer read either.
TEST(TraceFile, RejectsUnsupportedVersion)
{
    for (std::uint32_t version : {1u, 99u}) {
        TempPath tmp("badver");
        TraceFileHeader h;
        h.version = version;
        h.numInsts = 1;
        std::FILE *f = std::fopen(tmp.path.c_str(), "wb");
        std::fwrite(&h, sizeof(h), 1, f);
        std::fclose(f);
        EXPECT_THROW({ TraceFileReader r(tmp.path); }, SimError)
            << "version " << version;
    }
}
