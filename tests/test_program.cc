/** Tests for the static program representation and the synthesizer. */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fnv.hh"
#include "sim/presets.hh"
#include "test_helpers.hh"
#include "trace/executor.hh"
#include "trace/profile.hh"
#include "trace/synth_builder.hh"

using namespace fdip;

namespace
{

/** FNV-1a over every Function and BasicBlock field of @p prog. */
std::uint64_t
programDigest(const Program &prog)
{
    Fnv1a f;
    f.u64(prog.funcs.size());
    for (const auto &fn : prog.funcs) {
        f.u64(fn.entry);
        f.u64(fn.level);
        f.u64(fn.blocks.size());
        for (const auto &bb : fn.blocks) {
            f.u64(bb.start);
            f.u64(bb.numInsts);
            f.u64(static_cast<std::uint64_t>(bb.term));
            f.u64(bb.targetBb);
            f.u64(bb.targetFn);
            f.u64(bb.indTargets.size());
            for (auto t : bb.indTargets)
                f.u64(t);
            f.u64(bb.indWeights.size());
            for (double w : bb.indWeights)
                f.d(w);
            f.u64(static_cast<std::uint64_t>(bb.cond.kind));
            f.d(bb.cond.param);
            f.u64(bb.cond.pattern);
            f.u64(bb.cond.patternLen);
        }
    }
    return f.h;
}

/**
 * @p base with one member changed, one profile per member. The
 * structured binding names every member of WorkloadProfile, so a member
 * added later fails to compile here until it gets its own mutation.
 */
std::vector<WorkloadProfile>
oneFieldMutations(const WorkloadProfile &base)
{
    WorkloadProfile p = base;
    auto &[name, seed, footprint, block_insts, blocks_per_fn, levels,
           zipf, w_cond, w_jump, w_call, w_ind_call, w_fallthrough,
           loop_fraction, trip_count, pattern_fraction, bias_lo, bias_hi,
           phase_len, dispatcher_sites] = p;
    std::vector<WorkloadProfile> out;
    auto mutate = [&](auto &field, auto value) {
        auto saved = field;
        field = value;
        out.push_back(p);
        field = saved;
    };
    mutate(name, name + "'");
    mutate(seed, seed + 1);
    mutate(footprint, footprint + 4096);
    mutate(block_insts, block_insts + 0.01);
    mutate(blocks_per_fn, blocks_per_fn + 0.01);
    mutate(levels, levels + 1);
    mutate(zipf, zipf + 0.01);
    mutate(w_cond, w_cond + 0.01);
    mutate(w_jump, w_jump + 0.01);
    mutate(w_call, w_call + 0.01);
    mutate(w_ind_call, w_ind_call + 0.01);
    mutate(w_fallthrough, w_fallthrough + 0.01);
    mutate(loop_fraction, loop_fraction + 0.01);
    mutate(trip_count, trip_count + 0.01);
    mutate(pattern_fraction, pattern_fraction + 0.01);
    mutate(bias_lo, bias_lo + 0.01);
    mutate(bias_hi, bias_hi - 0.01);
    mutate(phase_len, phase_len + 1000);
    mutate(dispatcher_sites, dispatcher_sites + 1);
    return out;
}

} // namespace

TEST(Program, LayoutAssignsContiguousAddresses)
{
    auto prog = testutil::makeCallPattern();
    Addr pc = prog->base;
    for (const auto &fn : prog->funcs) {
        EXPECT_EQ(fn.entry, pc);
        for (const auto &bb : fn.blocks) {
            EXPECT_EQ(bb.start, pc);
            pc += Addr(bb.numInsts) * instBytes;
        }
    }
    EXPECT_EQ(prog->codeEnd(), pc);
}

TEST(Program, TerminatorPcIsLastInstruction)
{
    auto prog = testutil::makeTightLoop();
    const auto &bb = prog->funcs[0].blocks[1];
    EXPECT_EQ(bb.terminatorPc(), bb.start + 3 * instBytes);
    EXPECT_EQ(bb.end(), bb.start + 4 * instBytes);
}

TEST(Program, NumInstsCounts)
{
    auto prog = testutil::makeCallPattern();
    EXPECT_EQ(prog->funcs[0].numInsts(), 4u);
    EXPECT_EQ(prog->funcs[1].numInsts(), 8u);
    EXPECT_EQ(prog->numInsts(), 12u);
}

TEST(ProgramDeath, ValidateCatchesBadCondBr)
{
    Program prog;
    Function fn;
    BasicBlock bb;
    bb.numInsts = 2;
    bb.term = InstClass::CondBr; // cond branch in final block: invalid
    bb.targetBb = 0;
    fn.blocks.push_back(bb);
    prog.funcs.push_back(fn);
    prog.layout();
    EXPECT_DEATH(prog.validate(), "fallthrough");
}

TEST(ProgramDeath, ValidateCatchesDanglingTarget)
{
    Program prog;
    Function fn;
    BasicBlock b0;
    b0.numInsts = 2;
    b0.term = InstClass::Jump;
    b0.targetBb = 5; // out of range
    fn.blocks.push_back(b0);
    BasicBlock b1;
    b1.numInsts = 1;
    b1.term = InstClass::Return;
    fn.blocks.push_back(b1);
    prog.funcs.push_back(fn);
    prog.layout();
    EXPECT_DEATH(prog.validate(), "out of range");
}

// ---------------------------------------------------------------------
// Synthesizer properties, swept over the whole workload suite.
// ---------------------------------------------------------------------

class SynthSuite : public ::testing::TestWithParam<std::string>
{
  protected:
    const WorkloadProfile &profile() { return findProfile(GetParam()); }
};

TEST_P(SynthSuite, FootprintApproximatelyRequested)
{
    auto prog = buildProgram(profile());
    double want = static_cast<double>(profile().codeFootprintBytes);
    double got = static_cast<double>(prog->codeBytes());
    EXPECT_GT(got, want * 0.5);
    EXPECT_LT(got, want * 1.8);
}

TEST_P(SynthSuite, DeterministicInSeed)
{
    auto a = buildProgram(profile());
    auto b = buildProgram(profile());
    ASSERT_EQ(a->funcs.size(), b->funcs.size());
    EXPECT_EQ(a->codeBytes(), b->codeBytes());
    for (std::size_t i = 0; i < a->funcs.size(); ++i) {
        EXPECT_EQ(a->funcs[i].entry, b->funcs[i].entry);
        EXPECT_EQ(a->funcs[i].blocks.size(), b->funcs[i].blocks.size());
    }

    // Pinned across builder changes, not just between two builds: a
    // builder that draws one number more or less, or computes one CDF
    // value differently, redraws the program and fails here. Re-record
    // only for an intended change to the synthetic programs.
    static const std::map<std::string, std::uint64_t> pinned = {
        {"li", 0x8b4531a985270255ull},
        {"ijpeg", 0x5e007adc840a9742ull},
        {"m88ksim", 0xf12c1990bdc5c3aeull},
        {"deltablue", 0xc1eeed853910b397ull},
        {"burg", 0xc7963112b01c1b2cull},
        {"perl", 0x090962de6b05da1full},
        {"go", 0x904a2c9de40623c5ull},
        {"groff", 0xedd9020c5046af19ull},
        {"gcc", 0x82dd841de51cc6e4ull},
        {"vortex", 0x8df59ec1c72c2c08ull},
    };
    auto it = pinned.find(GetParam());
    ASSERT_NE(it, pinned.end()) << "no pinned digest for " << GetParam();
    EXPECT_EQ(programDigest(*a), it->second)
        << std::hex << "0x" << programDigest(*a);
}

TEST_P(SynthSuite, HasAllTerminatorKinds)
{
    auto prog = buildProgram(profile());
    unsigned cond = 0, jump = 0, call = 0, ret = 0, icall = 0;
    for (const auto &fn : prog->funcs) {
        for (const auto &bb : fn.blocks) {
            switch (bb.term) {
              case InstClass::CondBr: ++cond; break;
              case InstClass::Jump: ++jump; break;
              case InstClass::Call: ++call; break;
              case InstClass::Return: ++ret; break;
              case InstClass::IndCall: ++icall; break;
              default: break;
            }
        }
    }
    EXPECT_GT(cond, 0u);
    EXPECT_GT(jump, 0u);
    EXPECT_GT(call, 0u);
    EXPECT_GT(ret, 0u);
    EXPECT_GT(icall, 0u);
}

TEST_P(SynthSuite, CallGraphIsLayered)
{
    auto prog = buildProgram(profile());
    for (const auto &fn : prog->funcs) {
        for (const auto &bb : fn.blocks) {
            if (bb.term == InstClass::Call) {
                EXPECT_GT(prog->funcs[bb.targetFn].level, fn.level)
                    << "call must go to a deeper level (no recursion)";
            }
            for (auto t : bb.indTargets) {
                EXPECT_GT(prog->funcs[t].level, fn.level);
            }
        }
    }
}

TEST_P(SynthSuite, DispatcherLoopsForever)
{
    auto prog = buildProgram(profile());
    const Function &dispatcher = prog->funcs[0];
    const BasicBlock &last = dispatcher.blocks.back();
    EXPECT_EQ(last.term, InstClass::Jump);
    EXPECT_EQ(last.targetBb, 0u);
    for (const auto &bb : dispatcher.blocks)
        EXPECT_NE(bb.term, InstClass::Return);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SynthSuite,
                         ::testing::ValuesIn(allWorkloadNames()));

TEST(SynthBuilder, DistinctSeedsGiveDistinctPrograms)
{
    WorkloadProfile p = findProfile("gcc");
    auto a = buildProgram(p);
    p.seed += 1;
    auto b = buildProgram(p);
    // Same knobs, different seed: some structural difference expected.
    bool differs = a->codeBytes() != b->codeBytes() ||
        a->funcs.size() != b->funcs.size();
    if (!differs) {
        for (std::size_t i = 0; i < a->funcs.size() && !differs; ++i) {
            differs = a->funcs[i].blocks.size() !=
                b->funcs[i].blocks.size();
        }
    }
    EXPECT_TRUE(differs);
}

/**
 * The call-level layering at its extremes: two levels (one dispatcher,
 * every other function a leaf) with uniform callee popularity, and
 * twelve levels of two or three functions each with a steep skew.
 */
TEST(SynthBuilder, CallLevelExtremes)
{
    struct Case
    {
        unsigned levels;
        double zipf;
        std::uint64_t footprint;
        std::size_t funcs;
        std::uint64_t digest;
    };
    const Case cases[] = {
        {2, 0.0, 8 * 1024, 28, 0x11bf1acac9fc0c94ull},
        {12, 2.0, 1024, 24, 0x3f6b28853100741cull},
    };
    for (const Case &c : cases) {
        WorkloadProfile p;
        p.name = "levels" + std::to_string(c.levels);
        p.callLevels = c.levels;
        p.calleeZipf = c.zipf;
        p.codeFootprintBytes = c.footprint;
        SCOPED_TRACE(p.name);

        auto prog = buildProgram(p);
        prog->validate();
        ASSERT_EQ(prog->funcs.size(), c.funcs);
        std::map<unsigned, unsigned> per_level;
        for (const auto &fn : prog->funcs)
            ++per_level[fn.level];
        EXPECT_EQ(per_level.size(), c.levels);
        EXPECT_EQ(per_level[0], 1u);
        // Every callee level is populated: its Zipf table is not empty.
        for (unsigned l = 1; l < c.levels; ++l)
            EXPECT_GE(per_level[l], 2u) << "level " << l;
        for (const auto &fn : prog->funcs) {
            for (const auto &bb : fn.blocks) {
                if (bb.term == InstClass::Call) {
                    EXPECT_GT(prog->funcs[bb.targetFn].level, fn.level);
                }
                for (auto t : bb.indTargets)
                    EXPECT_GT(prog->funcs[t].level, fn.level);
            }
        }
        EXPECT_EQ(programDigest(*prog), c.digest)
            << std::hex << "0x" << programDigest(*prog);
    }
}

// ---------------------------------------------------------------------
// sharedProgram: one immutable program per distinct profile.
// ---------------------------------------------------------------------

TEST(SharedProgram, EqualProfilesShareOneProgram)
{
    const WorkloadProfile &gcc = findProfile("gcc");
    std::shared_ptr<const Program> prog = sharedProgram(gcc);
    WorkloadProfile copy = gcc;
    EXPECT_EQ(sharedProgram(copy), prog);

    // The shared program is the one buildProgram builds.
    auto fresh = buildProgram(gcc);
    EXPECT_EQ(prog->codeEnd(), fresh->codeEnd());
    EXPECT_EQ(programDigest(*prog), programDigest(*fresh));
}

TEST(SharedProgram, EveryProfileFieldSeparatesPrograms)
{
    const WorkloadProfile &gcc = findProfile("gcc");
    std::vector<WorkloadProfile> profiles = oneFieldMutations(gcc);
    profiles.push_back(gcc);

    // Each profile gets its own program, and its own fingerprint as a
    // custom profile: hashProfile() lists every field too.
    std::set<const Program *> programs;
    std::set<std::uint64_t> fingerprints;
    SimConfig cfg = makeBaselineConfig("gcc", PrefetchScheme::None);
    for (const WorkloadProfile &p : profiles) {
        programs.insert(sharedProgram(p).get());
        cfg.customProfile = p;
        fingerprints.insert(cfg.fingerprint());
    }
    EXPECT_EQ(programs.size(), profiles.size());
    EXPECT_EQ(fingerprints.size(), profiles.size());
}

TEST(SharedProgram, ConcurrentCallersGetOneProgram)
{
    // Seeds no other test asks for, so the first callers race to build.
    WorkloadProfile gcc = findProfile("gcc");
    WorkloadProfile li = findProfile("li");
    gcc.seed += 1000;
    li.seed += 1000;

    std::vector<std::vector<const Program *>> seen(8);
    std::vector<std::thread> threads;
    for (std::vector<const Program *> &mine : seen) {
        threads.emplace_back([&mine, &gcc, &li] {
            for (int i = 0; i < 20; ++i) {
                mine.push_back(sharedProgram(gcc).get());
                mine.push_back(sharedProgram(li).get());
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::set<const Program *> distinct;
    for (const std::vector<const Program *> &mine : seen)
        distinct.insert(mine.begin(), mine.end());
    EXPECT_EQ(distinct.size(), 2u);
}

// ---------------------------------------------------------------------
// sharedStart: one fast-forwarded executor per (profile, skip), copied.
// ---------------------------------------------------------------------

namespace
{

/** FNV-1a over the next @p n instructions @p src emits. */
std::uint64_t
streamDigest(TraceSource &src, int n)
{
    Fnv1a f;
    TraceInstr ti;
    for (int i = 0; i < n; ++i) {
        src.nextInto(ti);
        f.u64(ti.pc);
        f.u64(static_cast<std::uint64_t>(ti.cls));
        f.u64(ti.target);
        f.b(ti.taken);
    }
    return f.h;
}

constexpr std::uint64_t kStartSkip = 12345;

} // namespace

TEST(SharedStart, EqualKeysShareOneStart)
{
    const WorkloadProfile &gcc = findProfile("gcc");
    std::shared_ptr<const SyntheticExecutor> start =
        sharedStart(gcc, kStartSkip);
    WorkloadProfile copy = gcc;
    EXPECT_EQ(sharedStart(copy, kStartSkip), start);
    EXPECT_EQ(start->emitted(), kStartSkip);

    EXPECT_NE(sharedStart(gcc, kStartSkip + 1), start);
    copy.seed += 1;
    EXPECT_NE(sharedStart(copy, kStartSkip), start);
}

TEST(SharedStart, CopyContinuesAFreshFastForward)
{
    const WorkloadProfile &gcc = findProfile("gcc");
    auto prog = buildProgram(gcc);
    SyntheticExecutor fresh(*prog, gcc);
    for (std::uint64_t i = 0; i < kStartSkip; ++i)
        fresh.next();

    SyntheticExecutor copy(*sharedStart(gcc, kStartSkip));
    EXPECT_EQ(copy.classStats().dump(), fresh.classStats().dump());
    EXPECT_EQ(streamDigest(copy, 20000), streamDigest(fresh, 20000));
    EXPECT_EQ(copy.emitted(), fresh.emitted());
    EXPECT_EQ(copy.classStats().dump(), fresh.classStats().dump());
}

TEST(SharedStart, AdvancingACopyLeavesTheStartUnchanged)
{
    std::shared_ptr<const SyntheticExecutor> start =
        sharedStart(findProfile("gcc"), kStartSkip);
    std::string before = start->classStats().dump();

    SyntheticExecutor first(*start);
    std::uint64_t digest = streamDigest(first, 20000);
    EXPECT_EQ(start->emitted(), kStartSkip);
    EXPECT_EQ(start->classStats().dump(), before);

    SyntheticExecutor second(*start);
    EXPECT_EQ(streamDigest(second, 20000), digest);
}

TEST(SharedStart, ConcurrentCallersGetOneStartPerKey)
{
    // A seed no other test asks for, so the first callers race to
    // build the program and fast-forward both starts.
    WorkloadProfile gcc = findProfile("gcc");
    gcc.seed += 2000;
    const std::uint64_t skips[2] = {kStartSkip, 2 * kStartSkip};

    struct Seen
    {
        std::vector<const SyntheticExecutor *> starts;
        std::uint64_t digest[2] = {0, 0};
    };
    std::vector<Seen> seen(8);
    std::vector<std::thread> threads;
    for (Seen &mine : seen) {
        threads.emplace_back([&mine, &gcc, &skips] {
            for (int k = 0; k < 2; ++k) {
                std::shared_ptr<const SyntheticExecutor> start =
                    sharedStart(gcc, skips[k]);
                mine.starts.push_back(start.get());
                SyntheticExecutor copy(*start);
                mine.digest[k] = streamDigest(copy, 5000);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    std::set<const SyntheticExecutor *> distinct;
    for (const Seen &mine : seen) {
        distinct.insert(mine.starts.begin(), mine.starts.end());
        EXPECT_EQ(mine.digest[0], seen[0].digest[0]);
        EXPECT_EQ(mine.digest[1], seen[0].digest[1]);
    }
    EXPECT_EQ(distinct.size(), 2u);
    EXPECT_NE(seen[0].digest[0], seen[0].digest[1]);
}
