// Discrete-event simulator core.
//
// The simulator owns the virtual clock and the event queue. All architecture
// models (monolithic, two-level, shared-state) are built as event handlers on
// top of it. Scheduler "parallelism" is modeled logically: each scheduler has
// its own busy interval, so concurrent decision-making costs no wall-clock
// serialization yet produces exactly the interleavings the paper studies.
#pragma once

#include <functional>

#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace omega {

class Simulator {
 public:
  // `horizon` is the last time an event can run: ScheduleAt drops every event
  // after it. The default keeps every event.
  explicit Simulator(SimTime horizon = SimTime::Max()) : horizon_(horizon) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }
  SimTime horizon() const { return horizon_; }

  // Schedules `fn` to run at absolute time `when` (>= Now()). Events at the
  // same time run in the order they were scheduled. An event after the
  // horizon is dropped: it never runs and is not counted by PendingEvents().
  void ScheduleAt(SimTime when, std::function<void()> fn);

  // Schedules `fn` to run `delay` after Now().
  void ScheduleAfter(Duration delay, std::function<void()> fn);

  // Runs events until the queue is empty or the clock passes `end`. Events at
  // exactly `end` are executed. Returns the number of events processed.
  int64_t RunUntil(SimTime end);

  // Runs until no events remain.
  int64_t Run() { return RunUntil(SimTime::Max()); }

  size_t PendingEvents() const { return queue_.PendingCount(); }

  // Pre-sizes the event queue for at least `n` pending events.
  void Reserve(size_t n) { queue_.Reserve(n); }

 private:
  SimTime now_ = SimTime::Zero();
  SimTime horizon_;
  EventQueue queue_;
};

}  // namespace omega

