/** Unit tests for the fixed-capacity ring buffer. */

#include <gtest/gtest.h>

#include <deque>

#include "common/circular_queue.hh"
#include "common/random.hh"

using namespace fdip;

TEST(CircularQueue, StartsEmpty)
{
    CircularQueue<int> q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.capacity(), 4u);
    EXPECT_EQ(q.freeSlots(), 4u);
}

TEST(CircularQueue, FifoOrder)
{
    CircularQueue<int> q(4);
    q.append() = 1;
    q.append() = 2;
    q.append() = 3;
    EXPECT_EQ(q.front(), 1);
    EXPECT_EQ(q.back(), 3);
    q.pop();
    EXPECT_EQ(q.front(), 2);
    q.pop();
    EXPECT_EQ(q.front(), 3);
}

TEST(CircularQueue, RandomAccessFromHead)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 5; ++i)
        q.append() = i * 10;
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(q.at(i), i * 10);
}

TEST(CircularQueue, WrapsAround)
{
    CircularQueue<int> q(3);
    q.append() = 1;
    q.append() = 2;
    q.pop();
    q.append() = 3;
    q.append() = 4; // wraps
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.at(0), 2);
    EXPECT_EQ(q.at(1), 3);
    EXPECT_EQ(q.at(2), 4);
}

TEST(CircularQueue, TruncateDropsYoungest)
{
    CircularQueue<int> q(8);
    for (int i = 0; i < 6; ++i)
        q.append() = i;
    q.truncate(2);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.at(0), 0);
    EXPECT_EQ(q.at(1), 1);
}

TEST(CircularQueue, TruncateToZeroEqualsClear)
{
    CircularQueue<int> q(4);
    q.append() = 1;
    q.append() = 2;
    q.truncate(0);
    EXPECT_TRUE(q.empty());
    q.append() = 9;
    EXPECT_EQ(q.front(), 9);
}

TEST(CircularQueue, ClearResets)
{
    CircularQueue<int> q(4);
    q.append() = 1;
    q.append() = 2;
    q.clear();
    EXPECT_TRUE(q.empty());
    q.append() = 7;
    EXPECT_EQ(q.front(), 7);
    EXPECT_EQ(q.back(), 7);
}

TEST(CircularQueue, StressWrapManyTimes)
{
    CircularQueue<int> q(5);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 1000; ++round) {
        while (!q.full())
            q.append() = next_in++;
        while (!q.empty()) {
            EXPECT_EQ(q.front(), next_out++);
            q.pop();
        }
    }
    EXPECT_EQ(next_in, next_out);
}

TEST(CircularQueue, MatchesDequeModelAcrossWraps)
{
    // Random append/pop/truncate/clear against a std::deque model, at
    // capacities that put the wrap point at every offset: at(i) and
    // back() must address the same element as the model after every
    // step, whatever the head position and occupancy.
    for (std::size_t cap : {1u, 3u, 5u, 32u}) {
        Rng rng(cap);
        CircularQueue<int> q(cap);
        std::deque<int> model;
        int next = 0;
        for (int step = 0; step < 2000; ++step) {
            std::uint64_t op = rng.below(20);
            if (op == 0) {
                q.clear();
                model.clear();
            } else if (op == 1) {
                std::size_t from = rng.below(model.size() + 1);
                q.truncate(from);
                model.resize(from);
            } else if (op < 11 && !q.full()) {
                // The slot append() returns is the new tail, and what
                // is written through it is what the queue holds.
                int &slot = q.append();
                ASSERT_EQ(&slot, &q.back()) << "cap " << cap;
                ASSERT_EQ(&slot, &q.at(q.size() - 1)) << "cap " << cap;
                slot = next;
                model.push_back(next++);
            } else if (!q.empty()) {
                q.pop();
                model.pop_front();
            }
            ASSERT_EQ(q.size(), model.size()) << "cap " << cap;
            ASSERT_EQ(q.full(), model.size() == cap);
            for (std::size_t i = 0; i < model.size(); ++i)
                ASSERT_EQ(q.at(i), model[i]) << "cap " << cap << " i " << i;
            if (!model.empty()) {
                ASSERT_EQ(q.front(), model.front());
                ASSERT_EQ(q.back(), model.back());
            }
        }
    }
}

TEST(CircularQueue, AppendLeavesARecycledSlotAsItWas)
{
    // append() hands back a reused slot as its last occupant left it,
    // so a caller must write every field of its element.
    CircularQueue<int> q(2);
    q.append() = 7;
    q.pop();
    q.append() = 8;
    q.append(); // wraps onto the slot that held 7
    EXPECT_EQ(q.front(), 8);
    EXPECT_EQ(q.back(), 7);
}

TEST(CircularQueueDeath, Overflow)
{
    CircularQueue<int> q(1);
    q.append() = 1;
    EXPECT_DEATH(q.append() = 2, "full");
}

TEST(CircularQueueDeath, UnderflowAndRange)
{
    CircularQueue<int> q(2);
    EXPECT_DEATH(q.pop(), "empty");
    EXPECT_DEATH(q.front(), "empty");
    q.append() = 1;
    EXPECT_DEATH(q.at(1), "at");
    EXPECT_DEATH(q.truncate(2), "truncate");
}

TEST(CircularQueueDeath, ZeroCapacity)
{
    EXPECT_DEATH({ CircularQueue<int> q(0); }, "capacity");
}
