/** Tests for tagged next-line prefetching. */

#include <gtest/gtest.h>

#include "prefetch/nlp.hh"

using namespace fdip;

namespace
{

struct Rig
{
    MemHierarchy mem;

    Rig() : mem(makeCfg()) {}

    static MemConfig
    makeCfg()
    {
        MemConfig c;
        c.l1i.sizeBytes = 4096;
        c.l1i.assoc = 2;
        c.l1i.blockBytes = 32;
        c.l2.sizeBytes = 64 * 1024;
        c.l2.assoc = 4;
        c.l2.blockBytes = 32;
        return c;
    }

    FetchAccess
    missAccess()
    {
        FetchAccess a;
        a.hitL1 = false;
        a.readyAt = 100;
        return a;
    }

    FetchAccess
    hitAccess()
    {
        FetchAccess a;
        a.hitL1 = true;
        a.readyAt = 1;
        return a;
    }

    FetchAccess
    pfbufHit()
    {
        FetchAccess a;
        a.hitPrefetchBuffer = true;
        a.readyAt = 1;
        return a;
    }
};

} // namespace

TEST(Nlp, TriggersOnTrueMiss)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {});
    rig.mem.tick(1);
    nlp.onDemandAccess(0x1000, rig.missAccess(), 1);
    nlp.tick(1);
    EXPECT_EQ(nlp.stats.counter("nlp.triggers"), 1u);
    EXPECT_EQ(nlp.stats.counter("nlp.issued"), 1u);
    EXPECT_NE(rig.mem.mshrs().find(0x1020), nullptr); // next line
}

TEST(Nlp, TriggersOnPrefetchBufferFirstUse)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {});
    rig.mem.tick(1);
    nlp.onDemandAccess(0x2000, rig.pfbufHit(), 1);
    nlp.tick(1);
    EXPECT_EQ(nlp.stats.counter("nlp.triggers"), 1u);
    EXPECT_NE(rig.mem.mshrs().find(0x2020), nullptr);
}

TEST(Nlp, NoTriggerOnPlainHit)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {});
    rig.mem.tick(1);
    nlp.onDemandAccess(0x1000, rig.hitAccess(), 1);
    nlp.tick(1);
    EXPECT_EQ(nlp.stats.counter("nlp.triggers"), 0u);
    EXPECT_EQ(rig.mem.mshrs().inUse(), 0u);
}

TEST(Nlp, SkipsNextLineAlreadyCached)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {});
    rig.mem.l1i().insert(0x1020);
    rig.mem.tick(1);
    nlp.onDemandAccess(0x1000, rig.missAccess(), 1);
    nlp.tick(1);
    EXPECT_EQ(nlp.stats.counter("nlp.already_cached"), 1u);
    EXPECT_EQ(nlp.stats.counter("nlp.issued"), 0u);
}

TEST(Nlp, DegreeRequestsMultipleLines)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {.degree = 3});
    rig.mem.tick(1);
    nlp.onDemandAccess(0x1000, rig.missAccess(), 1);
    // The shared bus serializes issues: give it time.
    for (Cycle t = 1; t <= 600; ++t) {
        rig.mem.tick(t);
        nlp.tick(t);
    }
    EXPECT_EQ(nlp.stats.counter("nlp.issued"), 3u);
    EXPECT_TRUE(rig.mem.pfBuffer().probe(0x1020));
    EXPECT_TRUE(rig.mem.pfBuffer().probe(0x1040));
    EXPECT_TRUE(rig.mem.pfBuffer().probe(0x1060));
}

TEST(Nlp, RetriesWhenBusBusy)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {});
    rig.mem.l2Bus().transfer(1, 800); // bus busy 100 cycles
    rig.mem.tick(1);
    nlp.onDemandAccess(0x1000, rig.missAccess(), 1);
    nlp.tick(1);
    EXPECT_EQ(nlp.stats.counter("nlp.issue_stalls"), 1u);
    EXPECT_EQ(nlp.stats.counter("nlp.issued"), 0u);
    // Much later, the pending candidate issues.
    rig.mem.tick(200);
    nlp.tick(200);
    EXPECT_EQ(nlp.stats.counter("nlp.issued"), 1u);
}

TEST(Nlp, PendingQueueDedupes)
{
    Rig rig;
    NlpPrefetcher nlp(rig.mem, {});
    rig.mem.l2Bus().transfer(1, 800);
    rig.mem.tick(1);
    nlp.onDemandAccess(0x1000, rig.missAccess(), 1);
    nlp.onDemandAccess(0x1000, rig.missAccess(), 1);
    rig.mem.tick(200);
    nlp.tick(200);
    EXPECT_EQ(rig.mem.stats.counter("mem.prefetches_issued"), 1u);
}
