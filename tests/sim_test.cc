#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/random.h"
#include "src/sim/event_queue.h"

namespace omega {
namespace {

TEST(EventQueueTest, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.Push(SimTime(30), [&] { order.push_back(3); });
  q.Push(SimTime(10), [&] { order.push_back(1); });
  q.Push(SimTime(20), [&] { order.push_back(2); });
  while (!q.Empty()) {
    SimTime t;
    q.Pop(&t)();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TieBreaksByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(SimTime(5), [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    q.Pop(nullptr)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.Push(SimTime(1), [&] { fired = true; });
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelUnknownIdIsNoop) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, CancelAfterPopIsNoop) {
  EventQueue q;
  const EventId id = q.Push(SimTime(1), [] {});
  q.Pop(nullptr);
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, PendingCountExcludesCancelled) {
  EventQueue q;
  q.Push(SimTime(1), [] {});
  const EventId id = q.Push(SimTime(2), [] {});
  EXPECT_EQ(q.PendingCount(), 2u);
  q.Cancel(id);
  EXPECT_EQ(q.PendingCount(), 1u);
}

// Regression: cancelling an already-fired id must not enter the lazy
// cancelled set — a stray entry there would skew PendingCount (with the old
// `heap_.size() - cancelled_.size()` arithmetic it underflowed to a bogus
// huge count once the heap drained).
TEST(EventQueueTest, CancelAfterFireKeepsPendingCountExact) {
  EventQueue q;
  const EventId fired = q.Push(SimTime(1), [] {});
  q.Push(SimTime(2), [] {});
  q.Pop(nullptr)();  // fires `fired`
  EXPECT_EQ(q.PendingCount(), 1u);
  EXPECT_FALSE(q.Cancel(fired));
  EXPECT_EQ(q.PendingCount(), 1u);
  q.Pop(nullptr)();
  EXPECT_EQ(q.PendingCount(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, DoubleCancelCountsOnce) {
  EventQueue q;
  const EventId id = q.Push(SimTime(1), [] {});
  q.Push(SimTime(2), [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
  EXPECT_EQ(q.PendingCount(), 1u);
  q.Pop(nullptr)();
  EXPECT_EQ(q.PendingCount(), 0u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, PendingCountStableThroughMixedCancelAbuse) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.Push(SimTime(i + 1), [] {}));
  }
  // Fire two, then hammer Cancel on fired, live, unknown and repeat ids.
  q.Pop(nullptr)();
  q.Pop(nullptr)();
  EXPECT_FALSE(q.Cancel(ids[0]));  // already fired
  EXPECT_FALSE(q.Cancel(ids[1]));  // already fired
  EXPECT_TRUE(q.Cancel(ids[4]));
  EXPECT_FALSE(q.Cancel(ids[4]));       // double-cancel
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
  EXPECT_FALSE(q.Cancel(999999));       // never pushed
  EXPECT_EQ(q.PendingCount(), 5u);
  size_t fired = 0;
  while (!q.Empty()) {
    q.Pop(nullptr)();
    ++fired;
  }
  EXPECT_EQ(fired, 5u);
  EXPECT_EQ(q.PendingCount(), 0u);
}

TEST(EventQueueTest, PeekSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.Push(SimTime(1), [] {});
  q.Push(SimTime(5), [] {});
  q.Cancel(id);
  EXPECT_EQ(q.PeekTime(), SimTime(5));
}

TEST(EventQueueTest, InspectorsAreConstCallable) {
  EventQueue q;
  q.Push(SimTime(3), [] {});
  const EventQueue& cq = q;
  EXPECT_FALSE(cq.Empty());
  EXPECT_EQ(cq.PeekTime(), SimTime(3));
  EXPECT_EQ(cq.PendingCount(), 1u);
}

TEST(EventQueueTest, IdsAreUniqueAcrossSlotReuse) {
  // Slots are recycled through a free list; ids must not be. A stale id held
  // across a pop must never cancel the slot's new occupant.
  EventQueue q;
  const EventId first = q.Push(SimTime(1), [] {});
  q.Pop(nullptr);
  bool fired = false;
  const EventId second = q.Push(SimTime(2), [&] { fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(q.Cancel(first));
  EXPECT_EQ(q.PendingCount(), 1u);
  q.Pop(nullptr)();
  EXPECT_TRUE(fired);
  EXPECT_NE(first, kInvalidEventId);
  EXPECT_NE(second, kInvalidEventId);
}

// Differential regression against a trivially correct reference model: the
// slab/heap implementation must pop the exact same (time, insertion-order)
// sequence as the seed's lazy-tombstone queue under randomized push/cancel/pop
// interleavings, with matching Cancel results and pending counts throughout.
TEST(EventQueueTest, MatchesReferenceModelUnderRandomizedInterleavings) {
  struct RefEvent {
    int64_t time;
    uint64_t seq;
    EventId id;
  };
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    EventQueue q;
    std::vector<RefEvent> ref;  // live events, unordered
    std::vector<EventId> issued;
    uint64_t next_seq = 0;
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      const double roll = rng.NextDouble();
      if (roll < 0.5 || ref.empty()) {
        const auto t = static_cast<int64_t>(rng.NextBounded(50));
        const EventId id = q.Push(SimTime(t), [] {});
        ref.push_back(RefEvent{t, next_seq++, id});
        issued.push_back(id);
      } else if (roll < 0.75) {
        // Cancel a random issued id (live, fired, or already cancelled).
        const EventId id = issued[rng.NextBounded(issued.size())];
        bool ref_live = false;
        for (size_t i = 0; i < ref.size(); ++i) {
          if (ref[i].id == id) {
            ref[i] = ref.back();
            ref.pop_back();
            ref_live = true;
            break;
          }
        }
        EXPECT_EQ(q.Cancel(id), ref_live);
      } else {
        // Pop: must match the reference minimum by (time, seq).
        size_t best = 0;
        for (size_t i = 1; i < ref.size(); ++i) {
          if (ref[i].time < ref[best].time ||
              (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
            best = i;
          }
        }
        EXPECT_EQ(q.PeekTime(), SimTime(ref[best].time));
        SimTime when;
        q.Pop(&when);
        EXPECT_EQ(when, SimTime(ref[best].time));
        ref[best] = ref.back();
        ref.pop_back();
      }
      ASSERT_EQ(q.PendingCount(), ref.size()) << "step " << step;
      ASSERT_EQ(q.Empty(), ref.empty());
    }
    // Drain: remaining pops must come out in exact (time, seq) order.
    std::sort(ref.begin(), ref.end(), [](const RefEvent& a, const RefEvent& b) {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    });
    for (const RefEvent& e : ref) {
      SimTime when;
      q.Pop(&when);
      EXPECT_EQ(when, SimTime(e.time));
    }
    EXPECT_TRUE(q.Empty());
  }
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen;
  sim.ScheduleAt(SimTime::FromSeconds(3), [&] { seen = sim.Now(); });
  sim.Run();
  EXPECT_EQ(seen, SimTime::FromSeconds(3));
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(3));
}

TEST(SimulatorTest, ScheduleAfterUsesRelativeDelay) {
  Simulator sim;
  std::vector<double> times;
  sim.ScheduleAt(SimTime::FromSeconds(1), [&] {
    times.push_back(sim.Now().ToSeconds());
    sim.ScheduleAfter(Duration::FromSeconds(2),
                      [&] { times.push_back(sim.Now().ToSeconds()); });
  });
  sim.Run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.ScheduleAt(SimTime::FromSeconds(1), [&] { ++fired; });
  sim.ScheduleAt(SimTime::FromSeconds(2), [&] { ++fired; });
  sim.ScheduleAt(SimTime::FromSeconds(3), [&] { ++fired; });
  const int64_t processed = sim.RunUntil(SimTime::FromSeconds(2));
  EXPECT_EQ(processed, 2);
  EXPECT_EQ(fired, 2);
  // Clock lands exactly on the horizon even though an event remains.
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(2));
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, EventAtHorizonExecutes) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(SimTime::FromSeconds(5), [&] { fired = true; });
  sim.RunUntil(SimTime::FromSeconds(5));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelledEventDoesNotRun) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.ScheduleAt(SimTime::FromSeconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, EventsScheduledDuringRunExecuteInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime(10), [&] {
    order.push_back(1);
    // Same-time follow-up runs after already-queued same-time events.
    sim.ScheduleAt(SimTime(10), [&] { order.push_back(3); });
  });
  sim.ScheduleAt(SimTime(10), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// Lanes fix the tie order of same-time events: lower lanes fire first, and
// insertion order only breaks ties within a lane. Events pushed on lane 2
// before lane 1 and lane 0 still fire lane 0, lane 1, lane 2.
TEST(SimulatorLaneTest, SameTimeEventsFireByLaneBeforeInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  const uint32_t lanes[] = {2, 1, 0, 2, 1};
  for (int i = 0; i < 5; ++i) {
    sim.SetLane(lanes[i]);
    sim.ScheduleAt(SimTime(10), [&order, i] { order.push_back(i); });
  }
  sim.SetLane(0);
  sim.Run();
  // Lane 0 (push 2), then lane 1 (pushes 1, 4), then lane 2 (pushes 0, 3).
  EXPECT_EQ(order, (std::vector<int>{2, 1, 4, 0, 3}));
}

// While an event runs, the ambient lane is the event's lane, so everything it
// schedules inherits its stream; the caller's ambient lane is restored when
// RunUntil returns.
TEST(SimulatorLaneTest, FollowUpsInheritTheFiringEventsLane) {
  Simulator sim;
  std::vector<int> order;
  std::vector<uint32_t> lanes_seen;
  sim.SetLane(3);
  sim.ScheduleAt(SimTime(5), [&] {
    lanes_seen.push_back(sim.lane());
    // Pushed first, but inherits lane 3: fires after the lane-1 event below.
    sim.ScheduleAt(SimTime(20), [&] {
      lanes_seen.push_back(sim.lane());
      order.push_back(3);
    });
  });
  sim.SetLane(1);
  sim.ScheduleAt(SimTime(6), [&] {
    sim.ScheduleAt(SimTime(20), [&] { order.push_back(1); });
  });
  sim.SetLane(7);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_EQ(lanes_seen, (std::vector<uint32_t>{3, 3}));
  EXPECT_EQ(sim.lane(), 7u);
}

TEST(SimulatorLaneTest, ScopedLaneRestoresThePreviousLane) {
  Simulator sim;
  sim.SetLane(4);
  {
    ScopedLane outer(sim, 1);
    EXPECT_EQ(sim.lane(), 1u);
    {
      ScopedLane inner(sim, 9);
      EXPECT_EQ(sim.lane(), 9u);
    }
    EXPECT_EQ(sim.lane(), 1u);
  }
  EXPECT_EQ(sim.lane(), 4u);
}

TEST(SimulatorDeathTest, SchedulingIntoThePastAborts) {
  Simulator sim;
  sim.ScheduleAt(SimTime::FromSeconds(10), [&] {
    sim.ScheduleAt(SimTime::FromSeconds(1), [] {});
  });
  EXPECT_DEATH(sim.Run(), "scheduling into the past");
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  int64_t last = -1;
  bool monotone = true;
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const auto t = SimTime(static_cast<int64_t>(rng.NextBounded(1000000)));
    sim.ScheduleAt(t, [&, t] {
      if (t.micros() < last) {
        monotone = false;
      }
      last = t.micros();
    });
  }
  sim.Run();
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace omega
