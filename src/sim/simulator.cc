#include "src/sim/simulator.h"

#include "src/common/logging.h"

namespace omega {

EventId Simulator::ScheduleAt(SimTime when, std::function<void()> fn) {
  OMEGA_CHECK(when >= now_) << "scheduling into the past: " << when << " < " << now_;
  return queue_.Push(when, lane_, std::move(fn));
}

EventId Simulator::ScheduleAfter(Duration delay, std::function<void()> fn) {
  OMEGA_CHECK(delay >= Duration::Zero());
  return ScheduleAt(now_ + delay, std::move(fn));
}

int64_t Simulator::RunUntil(SimTime end) {
  int64_t processed = 0;
  const uint32_t ambient = lane_;
  while (!queue_.Empty() && queue_.PeekTime() <= end) {
    SimTime when;
    uint32_t lane;
    auto fn = queue_.Pop(&when, &lane);
    now_ = when;
    lane_ = lane;  // follow-up events an event schedules stay in its stream
    fn();
    ++processed;
  }
  lane_ = ambient;
  if (now_ < end && end != SimTime::Max()) {
    now_ = end;
  }
  return processed;
}

}  // namespace omega
