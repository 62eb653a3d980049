/**
 * @file champsim.hh
 * ChampSim instruction-trace ingestion: decodes the de-facto
 * interchange format for server-class workload traces into the
 * simulator's TraceSource interface.
 *
 * A ChampSim trace is a stream of fixed 64-byte records — instruction
 * pointer, branch/taken flags, and the source/destination register
 * and memory operand slots — usually xz- or gzip-compressed. Branch
 * *types* are not stored; they are reconstructed from which special
 * registers (stack pointer, flags, instruction pointer) each record
 * reads and writes, exactly the heuristics ChampSim's tracereader
 * applies. Branch *targets* are not stored either: a taken transfer's
 * target is simply the next record's IP, so decoding runs one record
 * ahead.
 *
 * ChampSim IPs are variable-length x86 addresses; this simulator
 * models fixed 4-byte instructions whose fall-through successor is
 * pc+4 and whose return address is call_pc+4. The PcCanonicalizer
 * bridges the two: original IPs are assigned word-aligned canonical
 * PCs from a bump allocator in first-encounter order, slots after
 * branch-capable instructions are reserved for their fall-through
 * successors, and where the dynamic stream falls through to code that
 * was already placed elsewhere a synthetic trampoline Jump (or a
 * NonCF-to-Jump reclassification) preserves the control-flow graph.
 * The invariant the conformance tests pin: in the canonical stream,
 * every not-taken/NonCF record is followed by pc+4, and every taken
 * record is followed by its target (docs/TRACES.md).
 */

#ifndef FDIP_TRACE_CHAMPSIM_HH
#define FDIP_TRACE_CHAMPSIM_HH

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "trace/trace_file.hh"

namespace fdip
{

/** Operand-slot counts of the ChampSim instruction record. */
constexpr unsigned champSimNumDst = 2;
constexpr unsigned champSimNumSrc = 4;

/** The special architectural registers the type heuristics test. */
constexpr std::uint8_t champSimRegStackPointer = 6;
constexpr std::uint8_t champSimRegFlags = 25;
constexpr std::uint8_t champSimRegInstructionPointer = 26;

/** One 64-byte ChampSim trace record (input_instr). */
struct ChampSimRecord
{
    std::uint64_t ip;
    std::uint8_t isBranch;
    std::uint8_t branchTaken;
    std::uint8_t destinationRegisters[champSimNumDst];
    std::uint8_t sourceRegisters[champSimNumSrc];
    std::uint64_t destinationMemory[champSimNumDst];
    std::uint64_t sourceMemory[champSimNumSrc];
};

static_assert(sizeof(ChampSimRecord) == 64, "ChampSim record layout");

/**
 * Reconstruct the instruction class from the record's register
 * heuristics (writes-IP + reads-SP/flags/other patterns). Records the
 * heuristics cannot place but that are flagged is_branch degrade to
 * CondBr — the conservative front-end assumption.
 */
InstClass classifyChampSim(const ChampSimRecord &rec);

/**
 * Maps original (variable-length, arbitrary-alignment) instruction
 * addresses onto the simulator's word-aligned fixed-4-byte code
 * space. Stateful and single-pass: decisions (slot assignments,
 * NonCF-to-Jump conversions, trampolines, conditional taken-target
 * caches, the call/return shadow stack) are memoized per original IP,
 * so repeated encounters — and repeated passes over a looping trace —
 * replay identically.
 */
class PcCanonicalizer
{
  public:
    /** @p reserve_bytes bounds the canonical code region starting at
     *  @p base; exhausting it raises SimError. */
    explicit PcCanonicalizer(Addr base, std::uint64_t reserve_bytes);

    /**
     * Canonicalize the record @p cur (class @p cls), whose successor
     * in the dynamic stream is at original IP @p next_ip (class
     * @p next_cls — known from the reader's lookahead), appending the
     * canonical instruction — plus a trampoline Jump when the
     * fall-through or return path needs one — to @p out.
     */
    void emit(const ChampSimRecord &cur, InstClass cls,
              std::uint64_t next_ip, InstClass next_cls,
              std::deque<TraceInstr> &out);

    Addr base() const { return codeBase; }
    /** One past the highest slot handed out so far. */
    Addr allocatedEnd() const { return maxSlot; }
    Addr reservedEnd() const { return codeBase + reserveBytes; }

  private:
    /** Where control enters the successor: at @p entry; `adjacent`
     *  means it enters through the fall-through slot (directly or via
     *  a trampoline installed there), so the current instruction may
     *  stay a fall-through. Otherwise the caller must emit a taken
     *  transfer to @p entry. */
    struct FallThroughResult
    {
        Addr entry;
        bool adjacent;
    };

    /** Existing slot of @p ip, or a fresh allocation sized for
     *  @p cls (branch-capable classes also reserve slot+4). */
    Addr place(std::uint64_t ip, InstClass cls);
    /** Bind @p ip to @p slot (free or a consumed reservation) and
     *  make @p cls's successor reservation. */
    void claimAt(std::uint64_t ip, Addr slot, InstClass cls);
    bool slotFree(Addr slot) const { return occupied.count(slot) == 0; }
    void installTrampoline(Addr slot, Addr target);
    static void emitTrampoline(std::deque<TraceInstr> &out, Addr slot,
                               Addr target);
    /**
     * Route control falling into @p slot toward the successor
     * @p succ_ip: claim the slot for it, reuse or install a
     * trampoline there (@p may_use_reservation gates consuming a
     * reservation for that), or fail over to the successor's own
     * canonical slot. Appends any trampoline executed on this path to
     * @p out.
     */
    FallThroughResult fallInto(Addr slot, bool may_use_reservation,
                               std::uint64_t succ_ip, InstClass succ_cls,
                               std::deque<TraceInstr> &out);

    Addr codeBase;
    std::uint64_t reserveBytes;
    Addr nextAlloc;
    Addr maxSlot;

    std::unordered_map<std::uint64_t, Addr> canon;
    /** Every slot handed out: assigned, reserved, or trampoline. */
    std::unordered_set<Addr> occupied;
    /** slot -> owning original IP, for reservations not yet claimed. */
    std::unordered_map<Addr, std::uint64_t> reservedSlots;
    /** Original IP -> its reserved (or claimed) successor slot. */
    std::unordered_map<std::uint64_t, Addr> successorSlot;
    /** Trampoline Jumps already installed: site -> target. */
    std::unordered_map<Addr, Addr> trampolines;
    /** Conditional branches: cached static taken target. */
    std::unordered_map<std::uint64_t, Addr> condTarget;
    /** NonCF records reclassified as Jump (fall-through was mapped
     *  elsewhere): original IP -> latest jump target. */
    std::unordered_map<std::uint64_t, Addr> noncfJump;
    /** Call/return shadow stack of reserved return slots. */
    std::vector<Addr> callStack;
};

/**
 * Streams a ChampSim trace as a TraceSource: decompression (xz/gzip
 * by extension, through a pluggable decompress pipe), record decode,
 * branch-type reconstruction, and PC canonicalization, with one
 * record of lookahead for targets. Loops at end of stream like every
 * trace source; the canonicalizer's memoized decisions make repeated
 * passes identical. codeBase()/codeEnd() report the canonicalizer's
 * reserve region (the final extent is unknowable before streaming).
 */
class ChampSimTraceReader : public FileTraceSource
{
  public:
    explicit ChampSimTraceReader(const std::string &path);
    ~ChampSimTraceReader() override;

    ChampSimTraceReader(const ChampSimTraceReader &) = delete;
    ChampSimTraceReader &operator=(const ChampSimTraceReader &) = delete;

    void nextInto(TraceInstr &out) override;

    Addr codeBase() const override;
    Addr codeEnd() const override;

    /** Completed passes over the underlying file (0 during the
     *  first). */
    std::uint64_t sourcePasses() const { return passes; }
    /** Canonical instructions still queued from already-decoded
     *  records. */
    bool hasPending() const { return !pending.empty(); }
    /** Raw 64-byte records consumed so far (all passes). */
    std::uint64_t recordsRead() const { return rawRecords; }
    /** Tight end of the canonical region allocated so far. */
    Addr allocatedEnd() const { return canonicalizer.allocatedEnd(); }

  private:
    void open();
    void closeStream();
    bool readRecord(ChampSimRecord &rec);
    void refill();

    std::string path_;
    std::FILE *stream = nullptr;
    bool piped = false;

    PcCanonicalizer canonicalizer;
    std::deque<TraceInstr> pending;
    ChampSimRecord lookahead{};
    bool haveLookahead = false;
    std::uint64_t rawRecords = 0;
    std::uint64_t passes = 0;
};

/** True when @p path names a ChampSim-format trace (by extension:
 *  .champsim.trace / .champsimtrace, optionally .xz/.gz). */
bool isChampSimTracePath(const std::string &path);

/**
 * Open @p path as a trace workload: ChampSim-format paths stream
 * through ChampSimTraceReader, everything else through the native
 * TraceFileReader. SimError on any unreadable or corrupt input.
 */
std::unique_ptr<FileTraceSource>
openTraceWorkload(const std::string &path);

} // namespace fdip

#endif // FDIP_TRACE_CHAMPSIM_HH
