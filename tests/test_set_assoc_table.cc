/**
 * Tests for SetAssocTable, the tag store behind the FTB, BTB, caches,
 * TLBs and MANA's table: random operation sequences against a
 * brute-force model, the victim rule, recency, key round trips and
 * geometry errors.
 */

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hh"
#include "common/set_assoc_table.hh"

using namespace fdip;

namespace
{

using Table = SetAssocTable<std::uint64_t>;

/** Index of @p w within its set. */
unsigned
wayIndex(Table &t, std::size_t set, const Table::Way &w)
{
    return static_cast<unsigned>(&w - &t.way(set, 0));
}

/**
 * Brute-force reference: every way remembers the last operation that
 * filled or touched it; the victim is the first invalid way, else the
 * least recently used, the lowest way winning a tie.
 */
class Model
{
  public:
    Model(unsigned sets, unsigned ways)
        : sets(sets), ways(ways), slots(std::size_t(sets) * ways)
    {}

    /** Way index holding @p key, or -1. */
    int
    find(std::uint64_t key) const
    {
        std::size_t set = key % sets;
        for (unsigned w = 0; w < ways; ++w) {
            const Slot &s = slots[set * ways + w];
            if (s.valid && s.key == key)
                return static_cast<int>(w);
        }
        return -1;
    }

    void
    touch(std::uint64_t key, unsigned w)
    {
        at(key, w).lastUse = ++now;
    }

    unsigned
    victim(std::uint64_t key) const
    {
        std::size_t set = key % sets;
        unsigned best = 0;
        for (unsigned w = 0; w < ways; ++w) {
            const Slot &s = slots[set * ways + w];
            if (!s.valid)
                return w;
            if (s.lastUse < slots[set * ways + best].lastUse)
                best = w;
        }
        return best;
    }

    /** Key held by way @p w of @p key's set, or ~0 when invalid. */
    std::uint64_t
    keyAt(std::uint64_t key, unsigned w)
    {
        const Slot &s = at(key, w);
        return s.valid ? s.key : ~std::uint64_t(0);
    }

    void
    fill(std::uint64_t key, unsigned w)
    {
        Slot &s = at(key, w);
        s.valid = true;
        s.key = key;
        s.lastUse = ++now;
    }

    void
    invalidate(std::uint64_t key, unsigned w)
    {
        at(key, w).valid = false;
    }

    unsigned
    validCount() const
    {
        unsigned n = 0;
        for (const Slot &s : slots)
            n += s.valid;
        return n;
    }

  private:
    struct Slot
    {
        bool valid = false;
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
    };

    Slot &
    at(std::uint64_t key, unsigned w)
    {
        return slots[(key % sets) * ways + w];
    }

    unsigned sets;
    unsigned ways;
    std::vector<Slot> slots;
    std::uint64_t now = 0;
};

} // namespace

class TableVsModel
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{};

TEST_P(TableVsModel, RandomSequencesMatch)
{
    auto [sets, ways] = GetParam();
    Table t("test table", sets, ways);
    Model m(sets, ways);
    std::mt19937_64 rng(sets * 131 + ways);
    // Three times the capacity in distinct keys keeps sets contended.
    std::uint64_t key_space = std::uint64_t(sets) * ways * 3;
    unsigned hits = 0, evictions = 0, invalidations = 0;
    for (int op = 0; op < 20000; ++op) {
        std::uint64_t key = rng() % key_space;
        std::size_t set = t.setOf(key);
        Table::Way *w = t.find(key);
        int mw = m.find(key);
        ASSERT_EQ(w != nullptr, mw >= 0) << "op " << op << " key " << key;
        if (w != nullptr) {
            ASSERT_EQ(wayIndex(t, set, *w), static_cast<unsigned>(mw));
            ASSERT_EQ(w->payload, key);
            ++hits;
        }
        switch (rng() % 4) {
          case 0: // probe: find() alone, already compared
            break;
          case 1: // demand hit
            if (w != nullptr) {
                t.touch(*w);
                m.touch(key, static_cast<unsigned>(mw));
            }
            break;
          case 2: // fill on a miss, refresh on a hit
            if (w != nullptr) {
                t.touch(*w);
                m.touch(key, static_cast<unsigned>(mw));
            } else {
                Table::Way &v = t.victim(set);
                unsigned mv = m.victim(key);
                ASSERT_EQ(wayIndex(t, set, v), mv) << "op " << op;
                std::uint64_t evicted =
                    v.valid() ? t.keyOf(set, v.tag) : ~std::uint64_t(0);
                ASSERT_EQ(evicted, m.keyAt(key, mv)) << "op " << op;
                evictions += v.valid();
                t.fill(v, t.tagOf(key));
                v.payload = key;
                m.fill(key, mv);
            }
            break;
          case 3:
            if (w != nullptr) {
                t.invalidate(*w);
                m.invalidate(key, static_cast<unsigned>(mw));
                ++invalidations;
            }
            break;
        }
        ASSERT_EQ(t.validCount(), m.validCount()) << "op " << op;
    }
    // The sequence exercised every path.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(invalidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TableVsModel,
    ::testing::Values(std::pair<unsigned, unsigned>{1, 1},
                      std::pair<unsigned, unsigned>{4, 2},
                      std::pair<unsigned, unsigned>{64, 8}));

TEST(SetAssocTable, FirstInvalidWayFillsFirst)
{
    Table t("t", 1, 4);
    EXPECT_EQ(wayIndex(t, 0, t.victim(0)), 0u);
    for (std::uint64_t k = 0; k < 4; ++k)
        t.fill(t.victim(0), k);
    // Open a hole in the middle of two: the lower one fills first,
    // even though the filled ways are older.
    t.invalidate(*t.find(0, 2));
    t.invalidate(*t.find(0, 1));
    EXPECT_EQ(wayIndex(t, 0, t.victim(0)), 1u);
    t.fill(t.victim(0), 9);
    EXPECT_EQ(wayIndex(t, 0, t.victim(0)), 2u);
}

TEST(SetAssocTable, InvalidatedWayIsNextVictimAheadOfOlderWays)
{
    Table t("t", 1, 4);
    for (std::uint64_t k = 0; k < 4; ++k)
        t.fill(t.victim(0), k);
    ASSERT_EQ(t.validCount(), 4u);
    // Way 3 holds the newest fill; invalidated, it goes before the
    // three older valid ways.
    Table::Way &w = *t.find(0, 3);
    t.invalidate(w);
    EXPECT_FALSE(w.valid());
    EXPECT_EQ(t.find(0, 3), nullptr);
    EXPECT_EQ(t.validCount(), 3u);
    EXPECT_EQ(&t.victim(0), &w);
    t.fill(t.victim(0), 7);
    EXPECT_TRUE(w.valid());
    EXPECT_EQ(t.validCount(), 4u);
    EXPECT_EQ(t.victim(0).tag, 0u);
}

TEST(SetAssocTable, OldestStampIsEvicted)
{
    Table t("t", 1, 4);
    for (std::uint64_t k = 0; k < 4; ++k)
        t.fill(t.victim(0), k);
    EXPECT_EQ(t.victim(0).tag, 0u);
    t.touch(*t.find(0, 0));
    t.touch(*t.find(0, 1));
    EXPECT_EQ(t.victim(0).tag, 2u);
    // A refill is a use too: the way that took tag 4 is the newest.
    t.fill(t.victim(0), 4);
    EXPECT_EQ(t.victim(0).tag, 3u);
    t.fill(t.victim(0), 5);
    EXPECT_EQ(t.victim(0).tag, 0u);
}

TEST(SetAssocTable, FindLeavesRecencyAlone)
{
    Table t("t", 1, 2);
    t.fill(t.victim(0), 10);
    t.fill(t.victim(0), 11);
    ASSERT_NE(t.find(0, 10), nullptr);
    std::uint64_t stamp = t.find(0, 10)->stamp;
    EXPECT_EQ(t.find(0, 10)->stamp, stamp);
    // 10 stays the oldest however often it is found.
    EXPECT_EQ(t.victim(0).tag, 10u);
    const Table &ct = t;
    EXPECT_NE(ct.find(0, 11), nullptr);
    EXPECT_EQ(ct.find(0, 12), nullptr);
}

TEST(SetAssocTable, KeySplitRoundTrips)
{
    std::mt19937_64 rng(7);
    for (auto [sets, ways] : {std::pair<unsigned, unsigned>{1, 1},
                              {4, 2}, {64, 8}, {1024, 4}}) {
        Table t("t", sets, ways);
        for (int i = 0; i < 1000; ++i) {
            std::uint64_t k = rng() >> 8;
            EXPECT_LT(t.setOf(k), sets);
            EXPECT_EQ(t.keyOf(t.setOf(k), t.tagOf(k)), k) << sets;
        }
    }
}

TEST(SetAssocTable, BadGeometryRaisesSimErrorNamingTheOwner)
{
    setFatalMode(FatalMode::Throw);
    for (auto [sets, ways] : {std::pair<unsigned, unsigned>{0, 1},
                              {3, 2}, {4, 0}}) {
        try {
            Table t("owner-x", sets, ways);
            ADD_FAILURE() << sets << "x" << ways << " was accepted";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("owner-x"),
                      std::string::npos)
                << e.what();
        }
    }
    setFatalMode(FatalMode::Abort);
}
