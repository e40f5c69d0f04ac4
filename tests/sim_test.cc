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
    SimTime t;
    q.Pop(&t)();
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, InspectorsAreConstCallable) {
  EventQueue q;
  q.Push(SimTime(3), [] {});
  const EventQueue& cq = q;
  EXPECT_FALSE(cq.Empty());
  EXPECT_EQ(cq.PeekTime(), SimTime(3));
  EXPECT_EQ(cq.PendingCount(), 1u);
}

// Differential regression against a trivially correct reference model: the
// slab/heap implementation must pop the exact same (time, insertion-order)
// sequence as a linear scan under randomized push/pop interleavings, with
// matching pending counts throughout. Each callback reports its own sequence
// number, so a slot recycled by the free list must hold its new occupant.
TEST(EventQueueTest, MatchesReferenceModelUnderRandomizedInterleavings) {
  struct RefEvent {
    int64_t time;
    uint64_t seq;
  };
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    EventQueue q;
    std::vector<RefEvent> ref;  // pending events, unordered
    uint64_t next_seq = 0;
    uint64_t fired_seq = 0;
    Rng rng(seed);
    const auto pop_and_check = [&](const RefEvent& expected) {
      EXPECT_EQ(q.PeekTime(), SimTime(expected.time));
      SimTime when;
      q.Pop(&when)();
      EXPECT_EQ(when, SimTime(expected.time));
      EXPECT_EQ(fired_seq, expected.seq);
    };
    for (int step = 0; step < 20000; ++step) {
      if (rng.NextDouble() < 0.6 || ref.empty()) {
        const auto t = static_cast<int64_t>(rng.NextBounded(50));
        const uint64_t seq = next_seq++;
        q.Push(SimTime(t), [&fired_seq, seq] { fired_seq = seq; });
        ref.push_back(RefEvent{t, seq});
      } else {
        // Pop: must match the reference minimum by (time, seq).
        size_t best = 0;
        for (size_t i = 1; i < ref.size(); ++i) {
          if (ref[i].time < ref[best].time ||
              (ref[i].time == ref[best].time && ref[i].seq < ref[best].seq)) {
            best = i;
          }
        }
        pop_and_check(ref[best]);
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
      pop_and_check(e);
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

// A simulator built with a horizon keeps events at exactly the horizon and
// drops every later one at ScheduleAt.
TEST(SimulatorTest, EventAtExactHorizonRuns) {
  Simulator sim(SimTime::FromSeconds(5));
  bool fired = false;
  sim.ScheduleAt(SimTime::FromSeconds(5), [&] { fired = true; });
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, EventAfterHorizonIsDropped) {
  Simulator sim(SimTime::FromSeconds(5));
  std::vector<int> order;
  sim.ScheduleAt(SimTime::FromSeconds(5) + Duration(1),
                 [&] { order.push_back(0); });
  sim.ScheduleAt(SimTime::FromSeconds(1), [&] {
    order.push_back(1);
    sim.ScheduleAfter(Duration::FromSeconds(10), [&] { order.push_back(2); });
  });
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(SimulatorTest, RunUntilPastHorizonFiresNothing) {
  Simulator sim(SimTime::FromSeconds(5));
  int fired = 0;
  sim.ScheduleAt(SimTime::FromSeconds(6), [&] { ++fired; });
  sim.ScheduleAt(SimTime::FromSeconds(9), [&] { ++fired; });
  EXPECT_EQ(sim.RunUntil(SimTime::FromSeconds(10)), 0);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.Now(), SimTime::FromSeconds(10));
}

TEST(SimulatorTest, DefaultSimulatorKeepsEveryEvent) {
  Simulator sim;
  EXPECT_EQ(sim.horizon(), SimTime::Max());
  int fired = 0;
  sim.ScheduleAt(SimTime::FromDays(10000), [&] { ++fired; });
  sim.ScheduleAt(SimTime::Max(), [&] { ++fired; });
  EXPECT_EQ(sim.PendingEvents(), 2u);
  sim.Run();
  EXPECT_EQ(fired, 2);
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
