/** Tests for binary trace record/replay (the v2 format). */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

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
    // A window over a file-backed source serves exactly what a second
    // reader of the same file reads: across a retire, a ring doubling
    // (the ring starts at 256 entries) and the file's loop at its end.
    TempPath tmp("source");
    auto prog = testutil::makeCallPattern();
    SyntheticExecutor src(*prog, miniProfile());
    writeTraceFile(tmp.path, src, 100);

    TraceFileReader ref_reader(tmp.path);
    std::vector<TraceInstr> ref;
    for (int i = 0; i < 700; ++i)
        ref.push_back(ref_reader.next());

    TraceFileReader reader(tmp.path);
    TraceWindow win(reader);
    auto expect_window = [&](InstSeqNum from, InstSeqNum to) {
        for (InstSeqNum s = from; s < to; ++s) {
            const TraceInstr &got = win.at(s);
            ASSERT_EQ(got.pc, ref[s].pc) << "seq " << s;
            ASSERT_EQ(got.cls, ref[s].cls) << "seq " << s;
            ASSERT_EQ(got.taken, ref[s].taken) << "seq " << s;
            ASSERT_EQ(got.target, ref[s].target) << "seq " << s;
        }
    };
    expect_window(0, 40);
    win.retireUpTo(30);
    EXPECT_EQ(win.baseSeq(), 30u);
    expect_window(30, 400);
    EXPECT_EQ(win.windowSize(), 370u); // more than the first ring holds
    EXPECT_EQ(reader.loopCount(), 3u);
    win.retireUpTo(650); // past the generated window
    expect_window(650, 700);
}

TEST(TraceFile, RecordsAcrossTheReadBufferEdgeReadBackExactly)
{
    // Records are 16 bytes and a far target adds 8, so each far record
    // moves every later record by half a record against the reader's
    // buffer. Make a record far exactly where its body ends on a
    // buffer edge (its target opens the next fill) or straddles one
    // (8 bytes each side): the two cases then alternate, edge after
    // edge, through six fills, and again after the loop to the start.
    constexpr std::size_t kBuf = TraceFileReader::kReadBufBytes;
    constexpr std::size_t kRec = sizeof(TraceFileRecordV2);
    constexpr Addr kFar = Addr(1) << 40;
    TempPath tmp("buffer_edges");
    std::vector<TraceInstr> insts;
    unsigned body_straddles = 0;
    unsigned target_at_edge = 0;
    std::size_t offset = 0; // of the record, in bytes past the header
    for (Addr pc = 0x10000; offset < 6 * kBuf; pc += instBytes) {
        std::size_t to_edge = kBuf - offset % kBuf;
        bool far = to_edge == kRec || to_edge == kRec / 2;
        body_straddles += to_edge < kRec;
        target_at_edge += far && to_edge == kRec;
        TraceInstr ti;
        ti.pc = pc;
        if (far) {
            ti.cls = InstClass::Call;
            ti.taken = true;
            ti.target = pc + kFar;
        } else if (insts.size() % 3 == 1) {
            ti.cls = InstClass::CondBr;
            ti.taken = insts.size() % 2 == 0;
            ti.target = pc - 64;
        }
        insts.push_back(ti);
        offset += kRec + (far ? sizeof(Addr) : 0);
    }
    ASSERT_GE(body_straddles, 3u);
    ASSERT_GE(target_at_edge, 3u);
    {
        TraceFileWriter w(tmp.path);
        for (const TraceInstr &ti : insts)
            w.append(ti);
        w.close();
    }

    TraceFileReader reader(tmp.path);
    for (std::size_t i = 0; i < 2 * insts.size() + 10; ++i) {
        const TraceInstr &want = insts[i % insts.size()];
        TraceInstr got = reader.next();
        ASSERT_EQ(got.pc, want.pc) << "record " << i;
        ASSERT_EQ(got.cls, want.cls) << "record " << i;
        ASSERT_EQ(got.taken, want.taken) << "record " << i;
        ASSERT_EQ(got.target, want.target) << "record " << i;
    }
    EXPECT_EQ(reader.loopCount(), 2u);
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
