/** Tests for the fully-associative prefetch buffer. */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "mem/prefetch_buffer.hh"
#include "test_helpers.hh"

using namespace fdip;

TEST(PrefetchBuffer, InsertProbeConsume)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    EXPECT_TRUE(pb.probe(0x1000));
    EXPECT_TRUE(pb.consume(0x1000));
    EXPECT_FALSE(pb.probe(0x1000)); // consumed entries leave
    EXPECT_FALSE(pb.consume(0x1000));
}

TEST(PrefetchBuffer, FifoEvictionWhenFull)
{
    PrefetchBuffer pb(2);
    pb.insert(0x1000);
    pb.insert(0x2000);
    pb.insert(0x3000); // evicts 0x1000 (oldest)
    EXPECT_FALSE(pb.probe(0x1000));
    EXPECT_TRUE(pb.probe(0x2000));
    EXPECT_TRUE(pb.probe(0x3000));
    EXPECT_EQ(pb.stats.counter("pfbuf.unused_evictions"), 1u);
}

TEST(PrefetchBuffer, DuplicateFillIgnored)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    pb.insert(0x1000);
    EXPECT_EQ(pb.size(), 1u);
    EXPECT_EQ(pb.stats.counter("pfbuf.duplicate_fills"), 1u);
}

TEST(PrefetchBuffer, ConsumeCountsUseful)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    pb.insert(0x2000);
    pb.consume(0x2000);
    EXPECT_EQ(pb.stats.counter("pfbuf.consumed"), 1u);
    EXPECT_EQ(pb.size(), 1u);
}

TEST(PrefetchBuffer, ClearFlushes)
{
    PrefetchBuffer pb(4);
    pb.insert(0x1000);
    pb.insert(0x2000);
    pb.clear();
    EXPECT_EQ(pb.size(), 0u);
    EXPECT_EQ(pb.stats.counter("pfbuf.flushed_entries"), 2u);
}

TEST(PrefetchBuffer, CapacityRespected)
{
    PrefetchBuffer pb(8);
    for (int i = 0; i < 20; ++i)
        pb.insert(0x1000 + i * 0x20);
    EXPECT_EQ(pb.size(), 8u);
    EXPECT_EQ(pb.capacity(), 8u);
}

TEST(PrefetchBuffer, AnswersMatchAPlainFifoUnderRandomTraffic)
{
    // Fills (duplicates and evictions included), demand consumes,
    // probes and rare clears; every answer must equal a plain FIFO's.
    for (unsigned cap : {1u, 8u, 32u}) {
        PrefetchBuffer pb(cap);
        std::deque<Addr> ref;
        auto held = [&ref](Addr a) {
            return std::find(ref.begin(), ref.end(), a);
        };
        Rng rng(0xb0f + cap);
        for (int op = 0; op < 100000; ++op) {
            Addr key = testutil::drawKey(rng);
            switch (rng.below(8)) {
              case 0:
              case 1:
              case 2: {
                std::optional<Addr> evicted;
                if (held(key) == ref.end()) {
                    if (ref.size() == cap) {
                        evicted = ref.front();
                        ref.pop_front();
                    }
                    ref.push_back(key);
                }
                ASSERT_EQ(pb.insert(key), evicted)
                    << "cap " << cap << " op " << op;
                break;
              }
              case 3:
              case 4: {
                auto it = held(key);
                bool hit = it != ref.end();
                if (hit)
                    ref.erase(it);
                ASSERT_EQ(pb.consume(key), hit)
                    << "cap " << cap << " op " << op;
                break;
              }
              case 5:
                if (rng.below(64) == 0) {
                    pb.clear();
                    ref.clear();
                }
                break;
              default:
                ASSERT_EQ(pb.probe(key), held(key) != ref.end())
                    << "cap " << cap << " op " << op;
            }
            ASSERT_EQ(pb.size(), ref.size());
        }
    }
}

TEST(PrefetchBufferDeath, ZeroEntries)
{
    EXPECT_DEATH({ PrefetchBuffer p(0); }, "at least one");
}
