// Scheduling-lifecycle event tracing (observability subsystem).
//
// The paper's evaluation reports three *derived* metrics — wait time,
// busyness, conflict fraction (§4 "Metrics") — but debugging why a
// configuration conflicts or stalls requires the underlying event stream:
// which attempt hit which machine, what the machine's sequence number was at
// placement vs. commit, who preempted whom. TraceRecorder captures that
// stream with low overhead so it can stay attached to full-length runs:
//
//  - recording is a bounds-checked store into a slab-backed ring buffer
//    (no allocation on the hot path after warm-up, fixed memory ceiling);
//  - it is off by default: a simulation without a recorder attached pays one
//    null-pointer check per hook, records nothing, and is bit-identical to a
//    build without the hooks (the figure sweeps rely on this);
//  - recording never schedules events, samples RNGs, or mutates simulation
//    state, so an *attached* recorder does not perturb results either.
//
// Two exporters cover the two consumption modes: Chrome trace-event JSON
// (open in Perfetto / about:tracing; one track per scheduler, attempts as
// duration slices) and JSON-lines (one event per line, for scripts).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/machine.h"
#include "src/common/sim_time.h"

namespace omega {

// The scheduling lifecycle, one enumerator per observable transition.
enum class TraceEventType : uint8_t {
  kJobSubmit = 0,       // job arrived at the harness (track: cluster)
  kAttemptBegin,        // scheduler started a scheduling attempt
  kAttemptEnd,          // attempt finished (placed / conflicted outcome)
  kTxnCommit,           // scheduler-side transaction result (accepted/conflicted)
  kCellCommit,          // state-store-side commit (every writer, incl. Mesos)
  kClaimConflict,       // one claim rejected at commit (machine + seqnums)
  kGangAbort,           // all-or-nothing transaction discarded wholesale
  kPreemption,          // one running task evicted for a beneficiary job
  kTaskStart,           // committed task began running
  kTaskEnd,             // running task finished and freed its resources
  kMachineFailure,      // machine failed; its tasks were killed
  kMachineRepair,       // failed machine returned to service
};
inline constexpr size_t kNumTraceEventTypes = 12;

// Stable lowercase name used by both exporters ("attempt_begin", ...).
const char* TraceEventTypeName(TraceEventType type);

// One recorded event. Fixed-size POD so the ring buffer is a flat slab copy;
// the meaning of arg0/arg1 depends on the type (see TraceRecorder's typed
// record methods, the single place events are constructed).
struct TraceEvent {
  int64_t time_us = 0;
  TraceEventType type = TraceEventType::kJobSubmit;
  uint16_t track = 0;  // scheduler track; 0 is the cluster/harness track
  uint64_t job = 0;
  MachineId machine = kInvalidMachineId;
  uint64_t seqnum = 0;  // claim's seqnum_at_placement where applicable
  int64_t arg0 = 0;
  int64_t arg1 = 0;
};

// Slab-backed ring buffer of TraceEvents plus per-type totals.
//
// Capacity is fixed at construction; once exceeded, the oldest events are
// overwritten (the per-type counts keep counting, so reconciliation against
// SchedulerMetrics totals works even after wrap-around — only the retained
// window shrinks). Slabs are allocated lazily, so a recorder attached to a
// short run costs memory proportional to what it actually recorded.
class TraceRecorder {
 public:
  static constexpr size_t kSlabSize = 4096;  // events per slab

  explicit TraceRecorder(size_t capacity_events = size_t{1} << 20);

  // --- track registry (one track per scheduler; track 0 is "cluster") ---

  uint16_t RegisterTrack(const std::string& name);
  const std::vector<std::string>& track_names() const { return track_names_; }

  // --- typed record methods (the instrumentation hooks call these) ---
  //
  // Harness-level events default to track 0 ("cluster"); a multi-cell driver
  // passes each cell's own harness track so two cells' streams never
  // interleave on one Perfetto thread.

  void JobSubmit(SimTime t, uint64_t job, int job_type, int64_t num_tasks,
                 uint16_t track = 0);
  void AttemptBegin(SimTime t, uint16_t track, uint64_t job, int64_t attempt,
                    int64_t tasks_in_attempt);
  void AttemptEnd(SimTime t, uint16_t track, uint64_t job, int64_t tasks_placed,
                  bool had_conflict);
  void TxnCommit(SimTime t, uint16_t track, uint64_t job, int64_t accepted,
                 int64_t conflicted);
  void CellCommit(SimTime t, int64_t claims, int64_t accepted,
                  int64_t conflicted, uint16_t track = 0);
  void ClaimConflict(SimTime t, uint16_t track, uint64_t job, MachineId machine,
                     uint64_t seqnum_at_placement, uint64_t seqnum_at_commit);
  void GangAbort(SimTime t, uint16_t track, uint64_t job, int64_t claims_discarded,
                 bool at_commit);
  void Preemption(SimTime t, uint64_t beneficiary_job, MachineId machine,
                  int64_t victim_precedence, uint64_t victim_task_id,
                  uint16_t track = 0);
  void TaskStart(SimTime t, uint64_t job, MachineId machine,
                 uint16_t track = 0);
  void TaskEnd(SimTime t, uint64_t job, MachineId machine, uint16_t track = 0);
  void MachineFailure(SimTime t, MachineId machine, int64_t tasks_killed,
                      uint16_t track = 0);
  void MachineRepair(SimTime t, MachineId machine, uint16_t track = 0);

  // --- queries ---

  // Total events ever appended (including overwritten ones).
  int64_t TotalRecorded() const { return total_; }
  // Events lost to ring wrap-around.
  int64_t Dropped() const;
  // Events currently retained in the ring.
  size_t Retained() const;
  // Appended events of `type`, wrap-proof (counts, not retained entries).
  int64_t CountOf(TraceEventType type) const {
    return counts_[static_cast<size_t>(type)];
  }
  // Sum of arg0 over appended events of `type` (e.g. total accepted tasks
  // across kTxnCommit events), wrap-proof like CountOf.
  int64_t SumArg0(TraceEventType type) const {
    return arg0_sums_[static_cast<size_t>(type)];
  }
  int64_t SumArg1(TraceEventType type) const {
    return arg1_sums_[static_cast<size_t>(type)];
  }

  // Visits retained events oldest-first.
  void ForEachRetained(const std::function<void(const TraceEvent&)>& fn) const;

  // --- exporters ---

  // Chrome trace-event JSON ({"traceEvents": [...]}); open in Perfetto or
  // chrome://tracing. One named thread per track; attempts render as B/E
  // duration slices, everything else as instant events with typed args.
  void ExportChromeTrace(std::ostream& os) const;

  // One JSON object per line, typed field names, oldest-first.
  void ExportJsonLines(std::ostream& os) const;

 private:
  void Append(const TraceEvent& e);
  const TraceEvent& At(size_t ring_index) const;

  size_t capacity_;
  int64_t total_ = 0;  // events ever appended; also the ring write cursor
  std::vector<std::unique_ptr<std::array<TraceEvent, kSlabSize>>> slabs_;
  std::array<int64_t, kNumTraceEventTypes> counts_{};
  std::array<int64_t, kNumTraceEventTypes> arg0_sums_{};
  std::array<int64_t, kNumTraceEventTypes> arg1_sums_{};
  std::vector<std::string> track_names_;
};

}  // namespace omega

