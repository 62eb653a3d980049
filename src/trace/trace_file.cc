#include "trace/trace_file.hh"

#include <cstdarg>
#include <cstring>

#include "common/error.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

[[noreturn]] void
corrupt(const std::string &path, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string detail = vstrprintf(fmt, args);
    va_end(args);
    throw SimError("trace file '" + path + "': " + detail);
}

} // namespace

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

TraceFileWriter::TraceFileWriter(const std::string &path, Addr code_base,
                                 Addr code_end)
    : path_(path)
{
    header.codeBase = code_base;
    header.codeEnd = code_end;
    file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
        throw SimError("cannot open trace file '" + path +
                       "' for writing");
    }
    // Placeholder header; close() backpatches numInsts and the range.
    if (std::fwrite(&header, sizeof(header), 1, file) != 1) {
        std::fclose(file);
        file = nullptr;
        corrupt(path_, "short write on header");
    }
}

TraceFileWriter::~TraceFileWriter()
{
    try {
        close();
    } catch (const SimError &e) {
        warn("%s", e.what());
    }
}

void
TraceFileWriter::append(const TraceInstr &ti)
{
    if (file == nullptr)
        corrupt(path_, "append after close");
    if (ti.pc % instBytes != 0) {
        corrupt(path_, "word-unaligned pc %#llx at record %llu",
                static_cast<unsigned long long>(ti.pc),
                static_cast<unsigned long long>(count));
    }
    bool has_target = ti.target != invalidAddr;
    if (has_target && ti.target % instBytes != 0) {
        corrupt(path_, "word-unaligned target %#llx at record %llu",
                static_cast<unsigned long long>(ti.target),
                static_cast<unsigned long long>(count));
    }

    TraceFileRecordV2 rec{};
    rec.pcAndFlags = (ti.pc >> 2) << 2;
    if (has_target)
        rec.pcAndFlags |= traceRecordHasTarget;
    rec.cls = static_cast<std::uint8_t>(ti.cls);
    rec.taken = ti.taken ? 1 : 0;

    bool far = false;
    if (has_target) {
        // Wraparound-safe signed word delta; both addresses aligned.
        auto sdiff = static_cast<std::int64_t>(ti.target - ti.pc);
        std::int64_t words = sdiff / static_cast<std::int64_t>(instBytes);
        if (words > traceFarTargetSentinel &&
            words <= std::numeric_limits<std::int32_t>::max()) {
            rec.targetDelta = static_cast<std::int32_t>(words);
        } else {
            rec.targetDelta = traceFarTargetSentinel;
            far = true;
        }
    }

    if (std::fwrite(&rec, sizeof(rec), 1, file) != 1) {
        corrupt(path_, "short write on record %llu",
                static_cast<unsigned long long>(count));
    }
    if (far && std::fwrite(&ti.target, sizeof(ti.target), 1, file) != 1) {
        corrupt(path_, "short write on far target of record %llu",
                static_cast<unsigned long long>(count));
    }
    ++count;
}

void
TraceFileWriter::setCodeRange(Addr code_base, Addr code_end)
{
    header.codeBase = code_base;
    header.codeEnd = code_end;
}

void
TraceFileWriter::close()
{
    if (file == nullptr)
        return;
    header.numInsts = count;
    bool ok = std::fseek(file, 0, SEEK_SET) == 0 &&
        std::fwrite(&header, sizeof(header), 1, file) == 1;
    ok = (std::fclose(file) == 0) && ok;
    file = nullptr;
    if (!ok)
        corrupt(path_, "failed to finalize header");
}

void
writeTraceFile(const std::string &path, TraceSource &source,
               std::uint64_t count, Addr code_base, Addr code_end)
{
    TraceFileWriter w(path, code_base, code_end);
    for (std::uint64_t i = 0; i < count; ++i)
        w.append(source.next());
    w.close();
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

TraceFileReader::TraceFileReader(const std::string &path)
    : path_(path), buf(kReadBufBytes)
{
    file = std::fopen(path.c_str(), "rb");
    if (file == nullptr)
        throw SimError("cannot open trace file '" + path + "'");

    if (std::fread(&header, sizeof(header), 1, file) != 1)
        corrupt(path_, "too short for a header");
    if (header.magic != traceFileMagic)
        corrupt(path_, "not a trace file (bad magic)");
    if (header.version != traceFileVersion) {
        corrupt(path_, "version %u unsupported (reader knows %u)",
                header.version, traceFileVersion);
    }
    if (header.numInsts == 0)
        corrupt(path_, "empty (zero instructions)");
}

TraceFileReader::~TraceFileReader()
{
    if (file)
        std::fclose(file);
}

void
TraceFileReader::rewindToFirstRecord()
{
    if (std::fseek(file, static_cast<long>(sizeof(header)), SEEK_SET) != 0)
        corrupt(path_, "seek failed");
    bufPos = 0;
    bufLen = 0;
    position = 0;
    ++loops;
}

void
TraceFileReader::readBytes(void *out, std::size_t n)
{
    auto *dst = static_cast<unsigned char *>(out);
    while (n > 0) {
        if (bufPos == bufLen) {
            bufLen = std::fread(buf.data(), 1, buf.size(), file);
            bufPos = 0;
            if (bufLen == 0) {
                corrupt(path_, "truncated at record %llu "
                        "(header promises %llu)",
                        static_cast<unsigned long long>(position),
                        static_cast<unsigned long long>(header.numInsts));
            }
        }
        std::size_t take = std::min(n, bufLen - bufPos);
        std::memcpy(dst, buf.data() + bufPos, take);
        bufPos += take;
        dst += take;
        n -= take;
    }
}

inline void
TraceFileReader::take(void *out, std::size_t n)
{
    if (bufLen - bufPos >= n) {
        std::memcpy(out, buf.data() + bufPos, n);
        bufPos += n;
    } else {
        readBytes(out, n);
    }
}

void
TraceFileReader::nextInto(TraceInstr &out)
{
    if (position == header.numInsts)
        rewindToFirstRecord();

    TraceFileRecordV2 rec;
    take(&rec, sizeof(rec));
    if ((rec.pcAndFlags & 0x2) != 0 || rec.reserved != 0 ||
        rec.taken > 1 ||
        rec.cls > static_cast<std::uint8_t>(InstClass::IndCall)) {
        corrupt(path_, "corrupt record %llu (flags/class/taken)",
                static_cast<unsigned long long>(position));
    }
    out.pc = (rec.pcAndFlags >> 2) << 2;
    out.cls = static_cast<InstClass>(rec.cls);
    out.taken = rec.taken != 0;
    if (rec.pcAndFlags & traceRecordHasTarget) {
        if (rec.targetDelta == traceFarTargetSentinel) {
            std::uint64_t target;
            take(&target, sizeof(target));
            if (target % instBytes != 0) {
                corrupt(path_, "corrupt record %llu "
                        "(unaligned far target %#llx)",
                        static_cast<unsigned long long>(position),
                        static_cast<unsigned long long>(target));
            }
            out.target = target;
        } else {
            out.target = out.pc +
                static_cast<std::uint64_t>(
                    static_cast<std::int64_t>(rec.targetDelta) *
                    static_cast<std::int64_t>(instBytes));
        }
    } else {
        if (rec.targetDelta != 0) {
            corrupt(path_, "corrupt record %llu "
                    "(delta without target-valid)",
                    static_cast<unsigned long long>(position));
        }
        out.target = invalidAddr;
    }
    ++position;
}

} // namespace fdip
