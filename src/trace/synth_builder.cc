#include "trace/synth_builder.hh"

#include <algorithm>
#include <mutex>
#include <utility>
#include <vector>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace fdip
{

namespace
{

/** Per-level function index ranges in the program's function vector. */
struct Layering
{
    // levelStart[l] .. levelStart[l+1]-1 are the functions at level l.
    std::vector<std::uint32_t> levelStart;
    // Callee popularity within each level, built once per level: a
    // table costs one pow() per function in the level.
    std::vector<ZipfSampler> callee;

    std::uint32_t
    count(std::uint32_t level) const
    {
        return levelStart[level + 1] - levelStart[level];
    }
};

/**
 * Pick a callee for a call site in a function at @p caller_level.
 * Prefers the next level down; popularity within a level is Zipf-skewed
 * so a few functions soak up most call sites (instruction reuse skew).
 */
std::uint32_t
pickCallee(Rng &rng, const Layering &lay, std::uint32_t caller_level,
           unsigned num_levels)
{
    std::uint32_t level;
    if (caller_level + 2 >= num_levels || rng.chance(0.7))
        level = caller_level + 1;
    else
        level = static_cast<std::uint32_t>(
            rng.range(caller_level + 1, num_levels - 1));

    return lay.levelStart[level] + static_cast<std::uint32_t>(
        lay.callee[level].sample(rng));
}

CondBehavior
makeCondBehavior(Rng &rng, const WorkloadProfile &p, bool is_loop)
{
    CondBehavior cb;
    if (is_loop) {
        cb.kind = CondBehavior::Kind::Loop;
        cb.param = p.meanTripCount;
        return cb;
    }
    if (rng.chance(p.patternFraction)) {
        cb.kind = CondBehavior::Kind::Pattern;
        cb.patternLen = static_cast<std::uint8_t>(rng.range(2, 8));
        cb.pattern = static_cast<std::uint32_t>(
            rng.below(1u << cb.patternLen));
        // Avoid all-zero/all-one degenerate patterns (those are Biased).
        if (cb.pattern == 0)
            cb.pattern = 1;
        return cb;
    }
    cb.kind = CondBehavior::Kind::Biased;
    cb.param = p.biasLo + rng.uniform() * (p.biasHi - p.biasLo);
    return cb;
}

/** Build one non-dispatcher function's CFG. */
Function
buildFunction(Rng &rng, const WorkloadProfile &p, const Layering &lay,
              std::uint32_t level)
{
    Function fn;
    fn.level = level;
    bool leaf = level + 1 >= p.callLevels;

    unsigned n_blocks = std::clamp<unsigned>(
        rng.geometric(p.meanBlocksPerFn), 3, 64);
    fn.blocks.resize(n_blocks);

    // Terminator mix; leaves redistribute call weight to fallthrough.
    double w_call = leaf ? 0.0 : p.wCall;
    double w_icall = leaf ? 0.0 : p.wIndCall;
    double w_fall = p.wFallthrough + (leaf ? p.wCall + p.wIndCall : 0.0);
    WeightedChoice term_choice({p.wCond, p.wJump, w_call, w_icall, w_fall});

    unsigned loops_made = 0;
    const unsigned max_loops = 2;

    for (unsigned bi = 0; bi < n_blocks; ++bi) {
        BasicBlock &bb = fn.blocks[bi];
        bb.numInsts = std::clamp<unsigned>(
            rng.geometric(p.meanBlockInsts), 1, 24);

        if (bi + 1 == n_blocks) {
            bb.term = InstClass::Return;
            continue;
        }
        // Blocks too close to the end cannot host forward branches or
        // calls (they need a valid fallthrough); let them fall through.
        if (bi + 2 >= n_blocks) {
            bb.term = InstClass::NonCF;
            continue;
        }

        switch (term_choice.sample(rng)) {
          case 0: { // conditional branch
            bool loop = loops_made < max_loops && rng.chance(p.loopFraction);
            bb.term = InstClass::CondBr;
            if (loop) {
                ++loops_made;
                std::uint32_t lo = bi >= 6 ? bi - 6 : 0;
                bb.targetBb = static_cast<std::uint32_t>(
                    rng.range(lo, bi));
                bb.cond = makeCondBehavior(rng, p, true);
            } else {
                std::uint32_t hi = std::min<std::uint32_t>(
                    bi + 4, n_blocks - 1);
                bb.targetBb = static_cast<std::uint32_t>(
                    rng.range(bi + 2, hi));
                bb.cond = makeCondBehavior(rng, p, false);
            }
            break;
          }
          case 1: { // direct forward jump
            std::uint32_t hi = std::min<std::uint32_t>(
                bi + 4, n_blocks - 1);
            bb.term = InstClass::Jump;
            bb.targetBb = static_cast<std::uint32_t>(
                rng.range(bi + 1, hi));
            break;
          }
          case 2: // direct call
            bb.term = InstClass::Call;
            bb.targetFn = pickCallee(rng, lay, level, p.callLevels);
            break;
          case 3: { // indirect call (virtual dispatch / fn pointer)
            bb.term = InstClass::IndCall;
            unsigned n_targets = static_cast<unsigned>(rng.range(2, 6));
            for (unsigned t = 0; t < n_targets; ++t) {
                bb.indTargets.push_back(
                    pickCallee(rng, lay, level, p.callLevels));
                bb.indWeights.push_back(1.0 / (t + 1.0));
            }
            break;
          }
          default:
            bb.term = InstClass::NonCF;
            break;
        }
    }
    return fn;
}

/**
 * Build the top-level dispatcher: an endless loop over call sites into
 * level-1 functions. Every ~6th site is an indirect call whose target
 * popularity the executor rotates across phases.
 */
Function
buildDispatcher(Rng &rng, const WorkloadProfile &p, const Layering &lay)
{
    Function fn;
    fn.level = 0;
    unsigned sites = std::max(4u, p.dispatcherSites);
    for (unsigned s = 0; s < sites; ++s) {
        BasicBlock bb;
        bb.numInsts = static_cast<unsigned>(rng.range(2, 5));
        if (s % 6 == 5) {
            bb.term = InstClass::IndCall;
            unsigned n_targets = static_cast<unsigned>(rng.range(3, 8));
            for (unsigned t = 0; t < n_targets; ++t) {
                bb.indTargets.push_back(
                    pickCallee(rng, lay, 0, p.callLevels));
                bb.indWeights.push_back(1.0 / (t + 1.0));
            }
        } else {
            bb.term = InstClass::Call;
            bb.targetFn = pickCallee(rng, lay, 0, p.callLevels);
        }
        fn.blocks.push_back(bb);
    }
    // Jump back to the first site: the dispatcher never returns.
    BasicBlock loop_back;
    loop_back.numInsts = 2;
    loop_back.term = InstClass::Jump;
    loop_back.targetBb = 0;
    fn.blocks.push_back(loop_back);
    return fn;
}

} // namespace

std::unique_ptr<Program>
buildProgram(const WorkloadProfile &p)
{
    fatal_if(p.callLevels < 2, "profile '%s': need at least 2 call levels",
             p.name.c_str());

    Rng rng(p.seed);
    auto prog = std::make_unique<Program>();

    double mean_fn_insts = p.meanBlocksPerFn * p.meanBlockInsts;
    std::uint64_t want_insts = p.codeFootprintBytes / instBytes;
    std::uint32_t num_fns = std::max<std::uint32_t>(
        p.callLevels * 2,
        static_cast<std::uint32_t>(
            static_cast<double>(want_insts) / mean_fn_insts));

    // Level 0 holds only the dispatcher; split the rest evenly.
    Layering lay;
    lay.levelStart.push_back(0);
    lay.levelStart.push_back(1);
    std::uint32_t rest = num_fns - 1;
    std::uint32_t deeper_levels = p.callLevels - 1;
    for (std::uint32_t l = 0; l < deeper_levels; ++l) {
        std::uint32_t share = rest / deeper_levels +
            (l < rest % deeper_levels ? 1 : 0);
        lay.levelStart.push_back(lay.levelStart.back() + share);
    }
    // Level 0 is the dispatcher alone and is never a callee; every
    // deeper level holds at least two functions, so no table is empty.
    for (std::uint32_t l = 0; l < p.callLevels; ++l)
        lay.callee.emplace_back(lay.count(l), p.calleeZipf);

    prog->funcs.resize(num_fns);
    // Non-dispatcher functions first: pickCallee only needs the layering.
    for (std::uint32_t l = 1; l < p.callLevels; ++l) {
        for (std::uint32_t f = lay.levelStart[l];
             f < lay.levelStart[l + 1]; ++f) {
            prog->funcs[f] = buildFunction(rng, p, lay, l);
        }
    }
    prog->funcs[0] = buildDispatcher(rng, p, lay);

    prog->layout();
    prog->validate();
    return prog;
}

namespace
{

/**
 * The process's shared programs and start points, under one mutex.
 * Nothing is ever removed, and the starts are declared after the
 * programs so they are destroyed first: every start's program
 * outlives it.
 */
struct Registry
{
    struct Start
    {
        WorkloadProfile profile;
        std::uint64_t skip;
        std::shared_ptr<const SyntheticExecutor> exec;
    };

    std::mutex mtx;
    std::vector<std::pair<WorkloadProfile,
                          std::shared_ptr<const Program>>> programs;
    std::vector<Start> starts;

    /** sharedProgram() with mtx held. */
    std::shared_ptr<const Program>
    program(const WorkloadProfile &profile)
    {
        for (const auto &[p, prog] : programs) {
            if (p == profile)
                return prog;
        }
        std::shared_ptr<const Program> prog = buildProgram(profile);
        programs.emplace_back(profile, prog);
        return prog;
    }
};

Registry &
registry()
{
    static Registry r;
    return r;
}

} // namespace

std::shared_ptr<const Program>
sharedProgram(const WorkloadProfile &profile)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    return r.program(profile);
}

std::shared_ptr<const SyntheticExecutor>
sharedStart(const WorkloadProfile &profile, std::uint64_t skip)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mtx);
    for (const Registry::Start &s : r.starts) {
        if (s.skip == skip && s.profile == profile)
            return s.exec;
    }
    auto exec =
        std::make_shared<SyntheticExecutor>(*r.program(profile), profile);
    TraceInstr scratch;
    for (std::uint64_t i = 0; i < skip; ++i)
        exec->nextInto(scratch);
    r.starts.push_back({profile, skip, exec});
    return exec;
}

} // namespace fdip
