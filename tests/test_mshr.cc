/** Tests for the MSHR file. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/random.hh"
#include "mem/mshr.hh"
#include "test_helpers.hh"

using namespace fdip;

TEST(Mshr, AllocateAndFind)
{
    MshrFile m(4);
    MshrEntry *e = m.allocate(0x1000, 50, false, FillDest::DemandL1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(m.find(0x1000), e);
    EXPECT_EQ(m.find(0x2000), nullptr);
    EXPECT_EQ(m.inUse(), 1u);
}

TEST(Mshr, FullRejectsAllocation)
{
    MshrFile m(2);
    EXPECT_NE(m.allocate(0x1000, 1, false, FillDest::DemandL1), nullptr);
    EXPECT_NE(m.allocate(0x2000, 1, false, FillDest::DemandL1), nullptr);
    EXPECT_TRUE(m.full());
    EXPECT_EQ(m.allocate(0x3000, 1, false, FillDest::DemandL1), nullptr);
    EXPECT_EQ(m.stats.counter("mshr.alloc_failures"), 1u);
}

TEST(Mshr, FreeMakesRoom)
{
    MshrFile m(1);
    MshrEntry *e = m.allocate(0x1000, 1, false, FillDest::DemandL1);
    m.free(*e);
    EXPECT_FALSE(m.full());
    EXPECT_EQ(m.find(0x1000), nullptr);
    EXPECT_NE(m.allocate(0x2000, 1, false, FillDest::DemandL1), nullptr);
}

TEST(Mshr, PrefetchesCountedSeparately)
{
    MshrFile m(4);
    m.allocate(0x1000, 1, true, FillDest::PrefetchBuffer);
    m.allocate(0x2000, 1, true, FillDest::PrefetchBuffer);
    m.allocate(0x3000, 1, false, FillDest::DemandL1);
    EXPECT_EQ(m.prefetchesInFlight(), 2u);
    EXPECT_EQ(m.inUse(), 3u);
}

TEST(Mshr, ReadyCollectsCompletedOnly)
{
    MshrFile m(4);
    m.allocate(0x1000, 10, false, FillDest::DemandL1);
    m.allocate(0x2000, 20, false, FillDest::DemandL1);
    auto ready = m.ready(15);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0]->blockAddr, 0x1000u);
    // At t=20 both are ready.
    EXPECT_EQ(m.ready(20).size(), 2u);
}

TEST(Mshr, ClearDropsEverything)
{
    MshrFile m(4);
    m.allocate(0x1000, 1, false, FillDest::DemandL1);
    m.clear();
    EXPECT_EQ(m.inUse(), 0u);
    EXPECT_EQ(m.find(0x1000), nullptr);
}

TEST(Mshr, EarliestFillTracksAllocationsAndFrees)
{
    MshrFile m(4);
    EXPECT_EQ(m.nextReadyCycle(), kNever);
    m.allocate(0x1000, 30, false, FillDest::DemandL1);
    MshrEntry *a = m.allocate(0x2000, 10, true, FillDest::PrefetchBuffer);
    MshrEntry *b = m.allocate(0x3000, 10, false, FillDest::DemandL1);
    m.allocate(0x4000, 20, true, FillDest::PrefetchBuffer);
    EXPECT_EQ(m.nextReadyCycle(), 10u);
    // Nothing has arrived before the earliest fill.
    EXPECT_TRUE(m.ready(9).empty());
    // Two entries share the earliest fill: freeing one keeps it.
    m.free(*a);
    EXPECT_EQ(m.nextReadyCycle(), 10u);
    EXPECT_EQ(m.prefetchesInFlight(), 1u);
    // Freeing the last earliest entry moves to the next fill.
    m.free(*b);
    EXPECT_EQ(m.nextReadyCycle(), 20u);
    EXPECT_TRUE(m.ready(19).empty());
    ASSERT_EQ(m.ready(20).size(), 1u);
    m.clear();
    EXPECT_EQ(m.nextReadyCycle(), kNever);
    EXPECT_EQ(m.prefetchesInFlight(), 0u);
}

TEST(Mshr, CountsMatchRecountOverRandomSequences)
{
    // Each step allocates, frees or clears at random; the file's kept
    // counts must equal a brute-force recount over a model of the live
    // entries. Fill cycles come from a narrow range so several entries
    // often share the earliest one.
    struct Live
    {
        Addr addr;
        Cycle readyAt;
        bool isPrefetch;
    };
    constexpr unsigned kEntries = 6;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        MshrFile m(kEntries);
        std::vector<Live> live;
        for (int step = 0; step < 400; ++step) {
            std::uint64_t op = rng.below(16);
            if (op == 0) {
                m.clear();
                live.clear();
            } else if (op < 8 && !live.empty()) {
                std::size_t k = rng.below(live.size());
                // Bias toward freeing the earliest entry.
                if (rng.chance(0.5)) {
                    k = std::min_element(live.begin(), live.end(),
                                         [](const Live &x, const Live &y) {
                                             return x.readyAt < y.readyAt;
                                         }) -
                        live.begin();
                }
                MshrEntry *e = m.find(live[k].addr);
                ASSERT_NE(e, nullptr);
                m.free(*e);
                live.erase(live.begin() + k);
            } else {
                Addr addr = 0x1000 * (1 + rng.below(64));
                if (m.find(addr) != nullptr)
                    continue;
                Cycle ready = 100 + rng.below(6);
                bool pf = rng.chance(0.5);
                MshrEntry *e = m.allocate(addr, ready, pf,
                                          FillDest::DemandL1);
                if (live.size() == kEntries) {
                    EXPECT_EQ(e, nullptr);
                } else {
                    ASSERT_NE(e, nullptr);
                    live.push_back({addr, ready, pf});
                }
            }

            unsigned prefetches = 0;
            Cycle earliest = kNever;
            for (const Live &l : live) {
                prefetches += l.isPrefetch ? 1 : 0;
                earliest = std::min(earliest, l.readyAt);
            }
            ASSERT_EQ(m.inUse(), live.size()) << "seed " << seed;
            ASSERT_EQ(m.full(), live.size() == kEntries);
            ASSERT_EQ(m.prefetchesInFlight(), prefetches);
            ASSERT_EQ(m.nextReadyCycle(), earliest);
            std::size_t arrived = 0;
            for (const Live &l : live)
                arrived += l.readyAt <= 102 ? 1 : 0;
            ASSERT_EQ(m.ready(102).size(), arrived);
        }
    }
}

TEST(Mshr, FindMatchesAPlainSetUnderRandomTraffic)
{
    // Allocations, frees of random live entries and rare clears; every
    // find() must equal a scan of the live addresses, and a hit must
    // be the entry allocated for that address.
    for (unsigned entries : {1u, 4u, 16u}) {
        MshrFile m(entries);
        std::vector<Addr> live;
        auto held = [&live](Addr a) {
            return std::find(live.begin(), live.end(), a) != live.end();
        };
        Rng rng(0x3e5 + entries);
        for (int op = 0; op < 100000; ++op) {
            Addr key = testutil::drawKey(rng);
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2:
                if (!held(key)) {
                    MshrEntry *e = m.allocate(key, op, rng.chance(0.5),
                                              FillDest::PrefetchBuffer);
                    ASSERT_EQ(e == nullptr, live.size() == entries);
                    if (e != nullptr)
                        live.push_back(key);
                }
                break;
              case 3:
              case 4:
                if (!live.empty()) {
                    std::size_t k = rng.below(live.size());
                    MshrEntry *e = m.find(live[k]);
                    ASSERT_NE(e, nullptr);
                    m.free(*e);
                    live.erase(live.begin() + k);
                }
                break;
              case 5:
                if (rng.below(64) == 0) {
                    m.clear();
                    live.clear();
                }
                break;
              default: {
                const MshrFile &cm = m;
                const MshrEntry *e = cm.find(key);
                ASSERT_EQ(e != nullptr, held(key))
                    << "entries " << entries << " op " << op;
                if (e != nullptr) {
                    ASSERT_EQ(e->blockAddr, key);
                }
              }
            }
            ASSERT_EQ(m.inUse(), live.size());
        }
    }
}

TEST(MshrDeath, DuplicateAllocation)
{
    MshrFile m(4);
    m.allocate(0x1000, 1, false, FillDest::DemandL1);
    EXPECT_DEATH(m.allocate(0x1000, 2, false, FillDest::DemandL1),
                 "duplicate");
}

TEST(MshrDeath, DoubleFree)
{
    MshrFile m(2);
    MshrEntry *e = m.allocate(0x1000, 1, false, FillDest::DemandL1);
    m.free(*e);
    EXPECT_DEATH(m.free(*e), "invalid");
}
