/**
 * @file trace_file.hh
 * Binary instruction-trace record/replay: the native on-disk format.
 *
 * Record: drain any TraceSource into a compact on-disk format.
 * Replay: a TraceFileReader is itself a TraceSource, so recorded (or
 * converted — see trace/champsim.hh) traces drive the simulator
 * exactly like the synthetic executor.
 *
 * One format version, 2; the reader rejects every other:
 *
 *  v2 (written by TraceFileWriter): 40-byte header that carries
 *     the code range the trace's PCs inhabit — {u64 magic,
 *     u32 version=2, u32 reserved, u64 numInsts, u64 codeBase,
 *     u64 codeEnd} — so a replaying simulator can build its MMU page
 *     table without scanning the stream. Records are delta-encoded
 *     16-byte entries:
 *
 *       u64 pc_and_flags   bits[63:2] hold pc>>2 (pc is word aligned),
 *                          bit0 = target-valid, bit1 must be zero
 *       u8  cls            InstClass
 *       u8  taken          0 or 1
 *       u16 reserved       must be zero
 *       i32 target_delta   (target - pc)/4 as signed 32-bit; the
 *                          sentinel INT32_MIN means "far target": a
 *                          full 8-byte target follows the record
 *
 *     A record with target-valid clear replays target == invalidAddr
 *     (its target_delta must be zero). Word-unaligned PCs (and valid
 *     unaligned targets) are rejected at write time; every corrupt or
 *     truncated input is rejected with SimError at read time — never
 *     UB, never a silent garbage stream — so a sweep isolates a bad
 *     trace as one FAIL cell (docs/TRACES.md, docs/ROBUSTNESS.md).
 *
 * The reader streams through a fixed-size buffer (bounded memory
 * regardless of trace length), decoding each record where it lies in
 * that buffer, and loops back to the first record at end of stream —
 * experiments need endless sources.
 */

#ifndef FDIP_TRACE_TRACE_FILE_HH
#define FDIP_TRACE_TRACE_FILE_HH

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "trace/executor.hh"

namespace fdip
{

/** Magic bytes at the start of every trace file. */
constexpr std::uint64_t traceFileMagic = 0x46444950'54524331ULL;

/** The trace-file format version, the only one read or written. */
constexpr std::uint32_t traceFileVersion = 2;

/** v2 header, with the code range [codeBase, codeEnd) of the PCs. */
struct TraceFileHeader
{
    std::uint64_t magic = traceFileMagic;
    std::uint32_t version = traceFileVersion;
    std::uint32_t reserved = 0;
    std::uint64_t numInsts = 0;
    std::uint64_t codeBase = 0;
    std::uint64_t codeEnd = 0;
};

static_assert(sizeof(TraceFileHeader) == 40, "v2 header layout");

/** v2 record: delta-encoded; see the file comment for field rules. */
struct TraceFileRecordV2
{
    std::uint64_t pcAndFlags;
    std::uint8_t cls;
    std::uint8_t taken;
    std::uint16_t reserved;
    std::int32_t targetDelta;
};

static_assert(sizeof(TraceFileRecordV2) == 16, "v2 record layout");

/** pc_and_flags bit 0: this record's target is valid. */
constexpr std::uint64_t traceRecordHasTarget = 1ULL << 0;

/** target_delta sentinel: full 8-byte target follows the record. */
constexpr std::int32_t traceFarTargetSentinel =
    std::numeric_limits<std::int32_t>::min();

/**
 * Streaming v2 writer: append records one at a time, then close() to
 * backpatch the header's instruction count. Unaligned PCs/targets and
 * I/O failures raise SimError.
 */
class TraceFileWriter
{
  public:
    /** @p code_base / @p code_end describe the range the trace's PCs
     *  live in (the replaying simulator's MMU covers exactly this
     *  range); setCodeRange() may revise them before close(). */
    explicit TraceFileWriter(const std::string &path, Addr code_base = 0,
                             Addr code_end = 0);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    void append(const TraceInstr &ti);

    /** Revise the header's code range (converters only learn the
     *  allocated extent after streaming the input). */
    void setCodeRange(Addr code_base, Addr code_end);

    /** Backpatch the header and close the file. Idempotent; the
     *  destructor calls it, but errors there cannot throw — call
     *  close() explicitly to observe them. */
    void close();

    std::uint64_t written() const { return count; }

  private:
    std::FILE *file = nullptr;
    TraceFileHeader header;
    std::uint64_t count = 0;
    std::string path_;
};

/** Record @p count instructions from @p source into @p path (v2). */
void writeTraceFile(const std::string &path, TraceSource &source,
                    std::uint64_t count, Addr code_base = 0,
                    Addr code_end = 0);

/**
 * A TraceSource backed by a file, carrying the code range its PCs
 * inhabit so a simulator can size its page table before streaming.
 */
class FileTraceSource : public TraceSource
{
  public:
    virtual Addr codeBase() const = 0;
    virtual Addr codeEnd() const = 0;
};

/**
 * Replays a recorded v2 trace through a fixed-size read buffer.
 * When the stream is exhausted the reader loops back to the
 * first record (experiments need endless streams); loopCount()
 * reports how often that happened. Every structural defect — bad
 * magic, unknown version, truncated stream, corrupt record fields —
 * raises SimError.
 */
class TraceFileReader : public FileTraceSource
{
  public:
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    void nextInto(TraceInstr &out) override;

    /** Read-buffer size: the reader fetches the file this many bytes
     *  at a time, so its memory is bounded however long the trace. */
    static constexpr std::size_t kReadBufBytes = 64 * 1024;

    std::uint64_t numInsts() const { return header.numInsts; }
    std::uint64_t loopCount() const { return loops; }

    /** The code range, from the header. */
    Addr codeBase() const override { return header.codeBase; }
    Addr codeEnd() const override { return header.codeEnd; }

  private:
    void rewindToFirstRecord();
    /** Copy the next @p n bytes out of the read buffer, or through
     *  readBytes when they are not all in it. */
    void take(void *out, std::size_t n);
    /** Copy @p n bytes out of the read buffer, refilling from the
     *  file as needed; SimError on short read. */
    void readBytes(void *out, std::size_t n);

    std::FILE *file = nullptr;
    TraceFileHeader header;
    std::uint64_t position = 0;
    std::uint64_t loops = 0;
    std::string path_;

    std::vector<unsigned char> buf;
    std::size_t bufPos = 0;
    std::size_t bufLen = 0;
};

} // namespace fdip

#endif // FDIP_TRACE_TRACE_FILE_HH
