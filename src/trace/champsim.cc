#include "trace/champsim.hh"

#include <algorithm>
#include <cstring>

#include "common/error.hh"
#include "common/logging.hh"

namespace fdip
{

namespace
{

/** Canonical code region for ChampSim workloads: matches the synthetic
 *  Program base; the reserve bounds the MMU's page table and caps
 *  pathological traces (docs/TRACES.md). */
constexpr Addr kChampSimCodeBase = 0x400000;
constexpr std::uint64_t kChampSimCodeReserveBytes = 32ULL * 1024 * 1024;

/** Mismatched call/return streams would otherwise grow the shadow
 *  stack without bound; beyond this depth the oldest entries are
 *  indistinguishable from garbage anyway. */
constexpr std::size_t kMaxShadowCallDepth = 1 << 16;

/** Classes whose canonical slot needs the adjacent slot+4 held for a
 *  later fall-through / return-address successor. */
bool
needsSuccessor(InstClass cls)
{
    return cls == InstClass::CondBr || cls == InstClass::Call ||
        cls == InstClass::IndCall;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** POSIX-shell single-quote @p s for safe use in a popen command. */
std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s) {
        if (c == '\'')
            out += "'\\''";
        else
            out += c;
    }
    out += "'";
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Branch-type reconstruction
// ---------------------------------------------------------------------

InstClass
classifyChampSim(const ChampSimRecord &rec)
{
    bool writes_ip = false, writes_sp = false;
    for (std::uint8_t r : rec.destinationRegisters) {
        writes_ip = writes_ip || r == champSimRegInstructionPointer;
        writes_sp = writes_sp || r == champSimRegStackPointer;
    }
    bool reads_ip = false, reads_sp = false, reads_flags = false,
         reads_other = false;
    for (std::uint8_t r : rec.sourceRegisters) {
        reads_ip = reads_ip || r == champSimRegInstructionPointer;
        reads_sp = reads_sp || r == champSimRegStackPointer;
        reads_flags = reads_flags || r == champSimRegFlags;
        reads_other = reads_other ||
            (r != 0 && r != champSimRegInstructionPointer &&
             r != champSimRegStackPointer && r != champSimRegFlags);
    }

    if (!writes_ip)
        return rec.isBranch ? InstClass::CondBr : InstClass::NonCF;

    if (reads_ip && !reads_sp && !reads_flags && !reads_other)
        return InstClass::Jump;
    if (!reads_ip && !reads_sp && !reads_flags && reads_other)
        return InstClass::IndJump;
    if (reads_ip && reads_flags && !reads_sp && !reads_other)
        return InstClass::CondBr;
    if (reads_sp && writes_sp && !reads_flags) {
        if (reads_other)
            return InstClass::IndCall;
        if (reads_ip)
            return InstClass::Call;
        return InstClass::Return;
    }
    // writes_ip but no heuristic matched: conservative front-end
    // assumption (mirrors ChampSim's BRANCH_OTHER handling).
    return InstClass::CondBr;
}

// ---------------------------------------------------------------------
// PC canonicalization
// ---------------------------------------------------------------------

PcCanonicalizer::PcCanonicalizer(Addr base, std::uint64_t reserve_bytes)
    : codeBase(base), reserveBytes(reserve_bytes), nextAlloc(base),
      maxSlot(base)
{
    fatal_if(base % instBytes != 0, "canonical code base must be aligned");
}

void
PcCanonicalizer::claimAt(std::uint64_t ip, Addr slot, InstClass cls)
{
    canon[ip] = slot;
    occupied.insert(slot);
    reservedSlots.erase(slot);
    maxSlot = std::max(maxSlot, slot + instBytes);
    if (needsSuccessor(cls)) {
        Addr v = slot + instBytes;
        occupied.insert(v);
        reservedSlots[v] = ip;
        successorSlot[ip] = v;
        maxSlot = std::max(maxSlot, v + instBytes);
    }
}

Addr
PcCanonicalizer::place(std::uint64_t ip, InstClass cls)
{
    auto it = canon.find(ip);
    if (it != canon.end())
        return it->second;

    bool pair = needsSuccessor(cls);
    while (!slotFree(nextAlloc))
        nextAlloc += instBytes;
    Addr s = nextAlloc;
    while (!slotFree(s) || (pair && !slotFree(s + instBytes)))
        s += instBytes;
    std::uint64_t need = (pair ? 2 : 1) * instBytes;
    if (s + need > codeBase + reserveBytes) {
        throw SimError(strprintf(
            "champsim trace: canonical code region exhausted "
            "(%llu MiB reserve, %llu distinct instruction addresses)",
            static_cast<unsigned long long>(reserveBytes >> 20),
            static_cast<unsigned long long>(canon.size())));
    }
    claimAt(ip, s, cls);
    return s;
}

void
PcCanonicalizer::installTrampoline(Addr slot, Addr target)
{
    trampolines[slot] = target;
    occupied.insert(slot);
    reservedSlots.erase(slot);
    maxSlot = std::max(maxSlot, slot + instBytes);
}

void
PcCanonicalizer::emitTrampoline(std::deque<TraceInstr> &out, Addr slot,
                                Addr target)
{
    TraceInstr &ti = out.emplace_back();
    ti.pc = slot;
    ti.cls = InstClass::Jump;
    ti.target = target;
    ti.taken = true;
}

PcCanonicalizer::FallThroughResult
PcCanonicalizer::fallInto(Addr slot, bool may_use_reservation,
                          std::uint64_t succ_ip, InstClass succ_cls,
                          std::deque<TraceInstr> &out)
{
    bool reserved = reservedSlots.count(slot) != 0;
    auto it = canon.find(succ_ip);
    if (it != canon.end()) {
        if (it->second == slot)
            return {slot, true};
        auto tit = trampolines.find(slot);
        if (tit != trampolines.end()) {
            if (tit->second == it->second) {
                emitTrampoline(out, slot, it->second);
                return {slot, true};
            }
            // Trampoline forwards elsewhere (degenerate: this site has
            // more than one dynamic successor); take the far route.
            return {it->second, false};
        }
        if (may_use_reservation && reserved) {
            installTrampoline(slot, it->second);
            emitTrampoline(out, slot, it->second);
            return {slot, true};
        }
        return {it->second, false};
    }

    // Successor not placed yet: seat it at the adjacent slot if that
    // satisfies its own successor needs, else allocate fresh.
    bool seat = (slotFree(slot) || (may_use_reservation && reserved)) &&
        (!needsSuccessor(succ_cls) || slotFree(slot + instBytes));
    std::uint64_t need =
        (needsSuccessor(succ_cls) ? 2 : 1) * instBytes;
    if (seat && slot + need <= codeBase + reserveBytes) {
        claimAt(succ_ip, slot, succ_cls);
        return {slot, true};
    }
    Addr s = place(succ_ip, succ_cls);
    if (may_use_reservation && reserved && trampolines.count(slot) == 0) {
        installTrampoline(slot, s);
        emitTrampoline(out, slot, s);
        return {slot, true};
    }
    return {s, false};
}

void
PcCanonicalizer::emit(const ChampSimRecord &cur, InstClass cls,
                      std::uint64_t next_ip, InstClass next_cls,
                      std::deque<TraceInstr> &out)
{
    Addr pc = place(cur.ip, cls);

    // A trampoline on this record's fall-through/return path executes
    // *after* it: fallInto appends it behind ti. A deque append keeps
    // the reference valid.
    TraceInstr &ti = out.emplace_back();
    ti.pc = pc;

    switch (cls) {
      case InstClass::NonCF: {
        FallThroughResult r =
            fallInto(pc + instBytes, false, next_ip, next_cls, out);
        if (r.adjacent && noncfJump.count(cur.ip) == 0) {
            ti.cls = InstClass::NonCF;
        } else {
            // Fall-through landed (now or on an earlier encounter)
            // away from pc+4: this record is a Jump from here on.
            noncfJump[cur.ip] = r.entry;
            ti.cls = InstClass::Jump;
            ti.target = r.entry;
            ti.taken = true;
        }
        break;
      }
      case InstClass::CondBr: {
        ti.cls = InstClass::CondBr;
        if (cur.branchTaken) {
            Addr t = place(next_ip, next_cls);
            condTarget.emplace(cur.ip, t);
            ti.target = t;
            ti.taken = true;
        } else {
            FallThroughResult r =
                fallInto(pc + instBytes, true, next_ip, next_cls, out);
            if (r.adjacent) {
                auto ct = condTarget.find(cur.ip);
                // Not-taken conditionals still advertise their static
                // taken target (BTB semantics); before the first taken
                // encounter fall back to pc+4 — harmless, never
                // invalidAddr.
                ti.target =
                    ct != condTarget.end() ? ct->second : pc + instBytes;
                ti.taken = false;
            } else {
                // Degenerate: the fall-through slot already routes
                // elsewhere; preserve control flow by taking the
                // branch to the successor's real slot.
                ti.target = r.entry;
                ti.taken = true;
            }
        }
        break;
      }
      case InstClass::Jump:
      case InstClass::IndJump: {
        ti.cls = cls;
        ti.target = place(next_ip, next_cls);
        ti.taken = true;
        break;
      }
      case InstClass::Call:
      case InstClass::IndCall: {
        ti.cls = cls;
        ti.target = place(next_ip, next_cls);
        ti.taken = true;
        auto sit = successorSlot.find(cur.ip);
        Addr ret =
            sit != successorSlot.end() ? sit->second : pc + instBytes;
        if (callStack.size() >= kMaxShadowCallDepth)
            callStack.erase(callStack.begin());
        callStack.push_back(ret);
        break;
      }
      case InstClass::Return: {
        ti.cls = InstClass::Return;
        ti.taken = true;
        if (!callStack.empty()) {
            Addr ret = callStack.back();
            callStack.pop_back();
            FallThroughResult r =
                fallInto(ret, true, next_ip, next_cls, out);
            ti.target = r.adjacent ? ret : r.entry;
        } else {
            // Underflow (trace starts mid-call or streams are
            // mismatched): target the return site directly.
            ti.target = place(next_ip, next_cls);
        }
        break;
      }
    }
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

ChampSimTraceReader::ChampSimTraceReader(const std::string &path)
    : path_(path),
      canonicalizer(kChampSimCodeBase, kChampSimCodeReserveBytes)
{
    open();
    // Prime the lookahead eagerly so an empty input fails at
    // construction, not at the first instruction.
    if (!readRecord(lookahead)) {
        closeStream();
        throw SimError("champsim trace '" + path_ + "' holds no records");
    }
    haveLookahead = true;
}

ChampSimTraceReader::~ChampSimTraceReader()
{
    closeStream();
}

void
ChampSimTraceReader::open()
{
    // Probe with fopen first: popen only reports a missing file as an
    // EOF-looking empty stream long after the fact.
    std::FILE *probe = std::fopen(path_.c_str(), "rb");
    if (probe == nullptr)
        throw SimError("cannot open champsim trace '" + path_ + "'");

    const char *decompress = nullptr;
    if (endsWith(path_, ".xz"))
        decompress = "xz -dc";
    else if (endsWith(path_, ".gz"))
        decompress = "gzip -dc";

    if (decompress == nullptr) {
        stream = probe;
        piped = false;
        return;
    }
    std::fclose(probe);
    std::string cmd =
        std::string(decompress) + " " + shellQuote(path_) + " 2>/dev/null";
    stream = popen(cmd.c_str(), "r");
    if (stream == nullptr) {
        throw SimError("cannot start decompressor '" + cmd +
                       "' for champsim trace '" + path_ + "'");
    }
    piped = true;
}

void
ChampSimTraceReader::closeStream()
{
    if (stream == nullptr)
        return;
    if (piped)
        pclose(stream);
    else
        std::fclose(stream);
    stream = nullptr;
}

bool
ChampSimTraceReader::readRecord(ChampSimRecord &rec)
{
    std::size_t got = std::fread(&rec, 1, sizeof(rec), stream);
    if (got == sizeof(rec))
        return true;
    if (got == 0)
        return false;
    throw SimError(strprintf(
        "champsim trace '%s': truncated record at %llu "
        "(%zu of %zu bytes)",
        path_.c_str(), static_cast<unsigned long long>(rawRecords), got,
        sizeof(rec)));
}

void
ChampSimTraceReader::nextInto(TraceInstr &out)
{
    while (pending.empty())
        refill();
    out = pending.front();
    pending.pop_front();
}

void
ChampSimTraceReader::refill()
{
    ChampSimRecord cur = lookahead;
    if (!readRecord(lookahead)) {
        // End of stream: the last record's successor is the first
        // record of the next pass — the source loops seamlessly.
        closeStream();
        ++passes;
        open();
        if (!readRecord(lookahead)) {
            throw SimError("champsim trace '" + path_ +
                           "' became empty mid-run");
        }
    }
    canonicalizer.emit(cur, classifyChampSim(cur), lookahead.ip,
                       classifyChampSim(lookahead), pending);
    ++rawRecords;
}

Addr
ChampSimTraceReader::codeBase() const
{
    return canonicalizer.base();
}

Addr
ChampSimTraceReader::codeEnd() const
{
    return canonicalizer.reservedEnd();
}

// ---------------------------------------------------------------------
// Workload dispatch
// ---------------------------------------------------------------------

bool
isChampSimTracePath(const std::string &path)
{
    std::string p = path;
    if (endsWith(p, ".xz"))
        p = p.substr(0, p.size() - 3);
    else if (endsWith(p, ".gz"))
        p = p.substr(0, p.size() - 3);
    return endsWith(p, ".champsim.trace") || endsWith(p, ".champsimtrace");
}

std::unique_ptr<FileTraceSource>
openTraceWorkload(const std::string &path)
{
    if (isChampSimTracePath(path))
        return std::make_unique<ChampSimTraceReader>(path);
    return std::make_unique<TraceFileReader>(path);
}

} // namespace fdip
