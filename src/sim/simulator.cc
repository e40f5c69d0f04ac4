#include "src/sim/simulator.h"

#include "src/common/logging.h"

namespace omega {

void Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  OMEGA_CHECK(when >= now_)
      << "scheduling into the past: " << when << " < " << now_;
  if (when > horizon_) {
    return;
  }
  queue_.Push(when, std::move(fn));
}

void Simulator::ScheduleAfter(Duration delay, std::function<void()> fn) {
  OMEGA_CHECK(delay >= Duration::Zero());
  ScheduleAt(now_ + delay, std::move(fn));
}

int64_t Simulator::RunUntil(SimTime end) {
  int64_t processed = 0;
  while (!queue_.Empty() && queue_.PeekTime() <= end) {
    SimTime when;
    auto fn = queue_.Pop(&when);
    now_ = when;
    fn();
    ++processed;
  }
  if (now_ < end && end != SimTime::Max()) {
    now_ = end;
  }
  return processed;
}

}  // namespace omega
