/** Tests for the backend drain model. */

#include <gtest/gtest.h>

#include "core/backend.hh"

using namespace fdip;

TEST(Backend, RetiresUpToWidth)
{
    Backend be({.retireWidth = 2, .queueDepth = 8});
    for (InstSeqNum s = 0; s < 5; ++s)
        be.deliver(1, 0);
    be.tick(1);
    EXPECT_EQ(be.committed(), 2u);
    be.tick(2);
    EXPECT_EQ(be.committed(), 4u);
    be.tick(3);
    EXPECT_EQ(be.committed(), 5u);
}

TEST(Backend, FreeSlotsTrackOccupancy)
{
    Backend be({.retireWidth = 4, .queueDepth = 4});
    EXPECT_EQ(be.freeSlots(), 4u);
    be.deliver(1, 0);
    be.deliver(1, 0);
    EXPECT_EQ(be.freeSlots(), 2u);
    be.tick(1);
    EXPECT_EQ(be.freeSlots(), 4u);
}

TEST(Backend, WrongPathBlocksRetirementUntilSquash)
{
    Backend be({.retireWidth = 4, .queueDepth = 8});
    be.deliver(1, 0);
    be.deliver(1, 0);
    be.deliver(0, /*wrong_path=*/1);
    be.deliver(0, /*wrong_path=*/1);
    be.tick(1);
    EXPECT_EQ(be.committed(), 2u);
    be.tick(2);
    EXPECT_EQ(be.committed(), 2u); // stuck behind wrong-path head
    be.squashWrongPath();
    EXPECT_EQ(be.freeSlots(), 8u);
    EXPECT_EQ(be.stats.counter("backend.squashed"), 2u);
}

TEST(Backend, SquashKeepsCorrectPathPrefix)
{
    Backend be({.retireWidth = 1, .queueDepth = 8});
    be.deliver(1, 0);
    be.deliver(1, 0);
    be.deliver(0, 1);
    be.squashWrongPath();
    be.tick(1);
    be.tick(2);
    EXPECT_EQ(be.committed(), 2u);
}

TEST(Backend, StarvedCyclesCounted)
{
    Backend be({.retireWidth = 4, .queueDepth = 8});
    be.tick(1);
    be.tick(2);
    EXPECT_EQ(be.stats.counter("backend.starved_cycles"), 2u);
    be.deliver(1, 0);
    be.tick(3);
    EXPECT_EQ(be.stats.counter("backend.starved_cycles"), 2u);
    EXPECT_EQ(be.stats.counter("backend.retire_slots_lost"), 8u + 3u);
}

TEST(Backend, DeliveryStatsSplitByPath)
{
    Backend be({.retireWidth = 4, .queueDepth = 8});
    be.deliver(1, 0);
    be.deliver(0, 1);
    EXPECT_EQ(be.stats.counter("backend.delivered"), 2u);
    EXPECT_EQ(be.stats.counter("backend.delivered_wrong_path"), 1u);
}

TEST(Backend, RunsRetireTheHeadAndSquashTheTail)
{
    // One cycle's run can carry both paths: its correct-path head
    // retires at the retire width, its wrong-path tail waits for the
    // squash, and wrong-path runs may follow wrong-path ones.
    Backend be({.retireWidth = 3, .queueDepth = 16});
    be.deliver(5, 0);
    be.deliver(2, 4);
    EXPECT_EQ(be.freeSlots(), 5u);
    be.tick(1);
    be.tick(2);
    EXPECT_EQ(be.committed(), 6u);
    EXPECT_EQ(be.nextEventCycle(2), 3u);
    be.tick(3); // the last correct-path instruction
    EXPECT_EQ(be.committed(), 7u);
    EXPECT_EQ(be.nextEventCycle(3), kNever);
    be.tick(4); // blocked behind the wrong-path tail
    EXPECT_EQ(be.committed(), 7u);
    be.deliver(0, 2);
    EXPECT_EQ(be.freeSlots(), 10u);
    be.squashWrongPath();
    EXPECT_EQ(be.freeSlots(), 16u);
    be.deliver(1, 0); // the redirected path
    be.tick(5);
    EXPECT_EQ(be.committed(), 8u);
    EXPECT_EQ(be.stats.counter("backend.delivered"), 14u);
    EXPECT_EQ(be.stats.counter("backend.delivered_wrong_path"), 6u);
    EXPECT_EQ(be.stats.counter("backend.squashed"), 6u);
    EXPECT_EQ(be.stats.counter("backend.starved_cycles"), 1u);
    EXPECT_EQ(be.stats.counter("backend.retire_slots_lost"),
              0u + 0u + 2u + 3u + 2u);
}

TEST(BackendDeath, RunOverflowPanics)
{
    Backend be({.retireWidth = 1, .queueDepth = 4});
    be.deliver(2, 1);
    EXPECT_DEATH(be.deliver(0, 2), "full");
}

TEST(BackendDeath, CorrectPathBehindWrongPathPanics)
{
    Backend be({.retireWidth = 1, .queueDepth = 8});
    be.deliver(1, 1);
    EXPECT_DEATH(be.deliver(1, 0), "behind wrong-path");
}

TEST(BackendDeath, OverflowPanics)
{
    Backend be({.retireWidth = 1, .queueDepth = 1});
    be.deliver(1, 0);
    EXPECT_DEATH(be.deliver(1, 0), "full");
}
