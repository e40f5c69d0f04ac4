// simbench: host time the simulator needs for a fixed simulated horizon.
//
// One process runs one workload, single-threaded and only through the public
// simulation API: a fixed set of seeds starting at --seed, each simulated
// --reps times. Every trial's simulated statistics are checked and printed
// as a hex-float digest; run.py runs several such processes, checks that all
// repetitions of a seed agree and turns the per-trial timings into the
// benchmark's metrics. With --traced each seed runs once with a TraceRecorder
// attached, the placer wrapped in a timing decorator (where the API allows
// it) and the event loop advanced in hourly RunUntil slices; its digests must
// match the untraced run's bit for bit. See README.md.
//
// Usage:
//   simbench --workload <name> --seed <n> [--seconds <s>] [--seeds <k>]
//            [--reps <r>] [--horizon-days <d>] [--traced] [--spans-out <path>]
//
// Output: one "digest <seed> <fields>" line per trial, one
// "fail <seed> <reason>" line per failed check, and a last line holding one
// JSON object with per-trial timings, peak RSS and (traced) layer counters.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/federation/federation.h"
#include "src/hifi/hifi_simulation.h"
#include "src/hifi/scoring_placer.h"
#include "src/mesos/mesos_simulation.h"
#include "src/omega/omega_scheduler.h"
#include "src/scheduler/placement.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/cluster_config.h"
#include "src/workload/generator.h"

namespace omega {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- workload parameters --------------------------------------------------

// Service-path per-job decision time of hifi-contended (§5.2: coarse
// conflicts and gang commits at long t_job produce the paper's contention).
constexpr double kHifiServiceTjobSecs = 10.0;
// Service-path t_job of mesos-offers, inside Fig. 7's 10 ms .. 100 s sweep.
constexpr double kMesosServiceTjobSecs = 10.0;
// fleet: 4x batch load and a 10 s pending watchdog make spillover engage.
constexpr uint32_t kFleetCells = 16;
constexpr double kFleetBatchLoad = 4.0;
constexpr double kFleetPendingTimeoutSecs = 10.0;

const Duration kSlice = Duration::FromHours(1);
constexpr size_t kTraceCapacityEvents = size_t{1} << 16;

SchedulerConfig NamedConfig(const char* name) {
  SchedulerConfig c;
  c.name = name;
  return c;
}

// --- tracing from outside the program -------------------------------------

// Aggregated placer calls (per-call spans would grow without bound).
struct PlacerStats {
  int64_t calls = 0;
  int64_t requested = 0;
  int64_t placed = 0;
  double seconds = 0.0;
};

// Timing decorator installed through the public PlacerFactory.
class TimedPlacer final : public TaskPlacer {
 public:
  TimedPlacer(std::unique_ptr<TaskPlacer> inner, PlacerStats* stats)
      : inner_(std::move(inner)), stats_(stats) {}

  uint32_t PlaceTasks(const CellState& cell, const Job& job, uint32_t count,
                      Rng& rng, std::vector<TaskClaim>* claims) override {
    const auto t0 = Clock::now();
    const uint32_t placed = inner_->PlaceTasks(cell, job, count, rng, claims);
    stats_->seconds += SecondsBetween(t0, Clock::now());
    ++stats_->calls;
    stats_->requested += count;
    stats_->placed += placed;
    return placed;
  }

 private:
  std::unique_ptr<TaskPlacer> inner_;
  PlacerStats* stats_;
};

// Coarse spans (set-up phases, event-loop slices), kept in memory and written
// out once at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  void Begin(std::string name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(Span{std::move(name), Now(), -1, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void End() {
    spans_[open_.back()].end_ns = Now();
    open_.pop_back();
  }

  // Chrome trace-event JSON: the coarse spans as complete events (with
  // their parent span's index), plus the aggregated placer calls.
  bool Write(const std::string& path, const PlacerStats& placer) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? "," : "") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_ns / 1000
          << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "],\"placer\":{\"calls\":" << placer.calls
        << ",\"seconds\":" << placer.seconds << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Every layer counter a traced run reports. A counter the public API does
// not expose on a workload stays 0 there (README.md lists which).
constexpr const char* kLayerCounters[] = {
    "sim.events", "sim.pending_peak",
    "workload.jobs", "workload.initial_tasks", "workload.construct_s",
    "workload.fill_s", "workload.trace_gen_s", "workload.sample_initial_s",
    "scheduler.attempts", "scheduler.tasks_started", "scheduler.tasks_ended",
    "cluster.commits", "cluster.claims_conflicted", "cluster.claims_accepted",
    "cluster.gang_aborts", "mesos.attempts", "mesos.jobs_scheduled",
    "federation.routed", "federation.spills", "federation.lost",
    "federation.fully_scheduled", "trace.events_recorded",
};

// Everything a traced run attaches. Null in timed runs.
struct Tracing {
  explicit Tracing(Clock::time_point origin) : spans(origin) {
    for (const char* name : kLayerCounters) counters[name] = 0.0;
  }

  TraceRecorder recorder{kTraceCapacityEvents};
  PlacerStats placer;
  SpanLog spans;
  // Layer counters summed over trials (peaks are maxima).
  std::map<std::string, double> counters;

  void Add(const std::string& name, double v) { counters[name] += v; }
  void Max(const std::string& name, double v) {
    counters[name] = std::max(counters[name], v);
  }

  PlacerFactory Wrap(PlacerFactory inner) {
    return [this, inner = std::move(inner)] {
      return std::make_unique<TimedPlacer>(inner(), &placer);
    };
  }
};

// Scoped span; a no-op in timed runs.
class SpanScope {
 public:
  SpanScope(Tracing* t, std::string name) : t_(t) {
    if (t_ != nullptr) t_->spans.Begin(std::move(name));
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->spans.End();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracing* t_;
};

// --- per-trial checks and digest ------------------------------------------

struct TrialResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  int64_t initial_tasks = 0;  // fill tasks after PrepareRun
  std::string digest;
  std::vector<std::string> failures;
};

class Digest {
 public:
  explicit Digest(TrialResult* r) : r_(r) {}

  // A rate or share that must lie in [0, 1].
  void Fraction(const char* name, double v) {
    Field(name, v);
    if (!(v >= 0.0 && v <= 1.0)) Fail(name, "outside [0, 1]");
  }
  // A non-negative quantity (waits; conflicts per job may exceed 1).
  void NonNegative(const char* name, double v) {
    Field(name, v);
    if (!(std::isfinite(v) && v >= 0.0)) Fail(name, "not finite and >= 0");
  }
  void Count(const char* name, int64_t v, int64_t min = 0) {
    r_->digest += std::string(" ") + name + "=" + std::to_string(v);
    if (v < min) Fail(name, ("below " + std::to_string(min)).c_str());
  }
  void Hash(const char* name, uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%016llx", name,
                  static_cast<unsigned long long>(v));
    r_->digest += buf;
  }
  void Require(bool ok, const char* what) {
    if (!ok) r_->failures.push_back(what);
  }

 private:
  void Field(const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %s=%a", name, v);
    r_->digest += buf;
  }
  void Fail(const char* name, const char* why) {
    r_->failures.push_back(std::string(name) + " " + why);
  }

  TrialResult* r_;
};

// FNV-1a over every machine's allocation and sequence number: the fields
// above are aggregates that do not see where tasks were placed; this does.
uint64_t CellFingerprint(const CellState& cell, uint64_t h = 0xcbf29ce484222325ULL) {
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const Machine& machine = cell.machine(m);
    uint64_t bits = 0;
    std::memcpy(&bits, &machine.allocated.cpus, sizeof(bits));
    mix(bits);
    std::memcpy(&bits, &machine.allocated.mem_gb, sizeof(bits));
    mix(bits);
    mix(machine.seqnum);
  }
  return h;
}

void DigestScheduler(Digest& d, const char* prefix, const SchedulerMetrics& m,
                     JobType type, SimTime end) {
  const std::string p(prefix);
  d.NonNegative((p + "_wait").c_str(), m.MeanWait(type));
  d.Fraction((p + "_busy").c_str(), m.Busyness(end).median);
  d.NonNegative((p + "_conflict").c_str(), m.ConflictFraction(end).mean);
  d.Count((p + "_scheduled").c_str(), m.JobsScheduled(type), 1);
  d.Count((p + "_abandoned").c_str(), m.JobsAbandoned(type));
  d.Count((p + "_accepted").c_str(), m.TasksAccepted());
  d.Count((p + "_conflicted").c_str(), m.TasksConflicted());
  d.Count((p + "_attempts").c_str(), m.TotalAttempts(), 1);
}

void DigestCell(Digest& d, const ClusterSimulation& sim) {
  d.Fraction("cpu_util", sim.cell().CpuUtilization());
  d.Fraction("mem_util", sim.cell().MemUtilization());
  d.Count("submitted", sim.JobsSubmittedTotal(), 1);
  d.Hash("cell_state", CellFingerprint(sim.cell()));
  d.Require(sim.cell().CheckInvariants(), "CellState::CheckInvariants failed");
}

void DigestOmega(Digest& d, OmegaSimulation& sim) {
  DigestCell(d, sim);
  DigestScheduler(d, "batch", sim.batch_scheduler(0).metrics(), JobType::kBatch,
                  sim.EndTime());
  DigestScheduler(d, "service", sim.service_scheduler().metrics(),
                  JobType::kService, sim.EndTime());
}

// Layer counters the TraceRecorder keeps for every architecture.
void CountTrace(Tracing& t) {
  const TraceRecorder& r = t.recorder;
  t.Add("workload.jobs", r.CountOf(TraceEventType::kJobSubmit));
  t.Add("scheduler.attempts", r.CountOf(TraceEventType::kAttemptBegin));
  t.Add("scheduler.tasks_started", r.CountOf(TraceEventType::kTaskStart));
  t.Add("scheduler.tasks_ended", r.CountOf(TraceEventType::kTaskEnd));
  t.Add("cluster.commits", r.CountOf(TraceEventType::kCellCommit));
  t.Add("cluster.claims_conflicted", r.SumArg1(TraceEventType::kCellCommit));
  t.Add("cluster.claims_accepted", r.SumArg0(TraceEventType::kCellCommit));
  t.Add("cluster.gang_aborts", r.CountOf(TraceEventType::kGangAbort));
  t.Add("trace.events_recorded", r.TotalRecorded());
}

// Advances the loop to `end`: in one RunUntil call, or (traced) in hourly
// slices recording the queue length at each boundary.
int64_t RunLoop(Simulator& sim, SimTime end, Tracing* t) {
  if (t == nullptr) return sim.RunUntil(end);
  int64_t events = 0;
  for (SimTime slice_end = sim.Now(); slice_end < end;) {
    slice_end = std::min(end, slice_end + kSlice);
    SpanScope span(t, "slice");
    events += sim.RunUntil(slice_end);
    t->Max("sim.pending_peak", static_cast<double>(sim.PendingEvents()));
  }
  return events;
}

// Counts initial-fill tasks after PrepareRun: every fill task has one pending
// end event, and the two arrival streams one pending arrival each.
int64_t InitialTasks(ClusterSimulation& sim) {
  return static_cast<int64_t>(sim.sim().PendingEvents()) - 2;
}

// --- the four workloads -----------------------------------------------------

struct Trial {
  uint64_t seed;
  Duration horizon;
};

// Runs and times a workload's set-up; returns what it built.
template <typename Setup>
auto TimeSetup(TrialResult& r, Setup setup) {
  const auto t0 = Clock::now();
  auto state = setup();
  r.setup_s = SecondsBetween(t0, Clock::now());
  return state;
}

// Adds the host time since `t0` to a traced run's counter.
void AddSince(Tracing* t, const char* name, Clock::time_point t0) {
  if (t != nullptr) t->Add(name, SecondsBetween(t0, Clock::now()));
}

// PrepareRun plus, when traced, the initial-fill counters.
void TimedPrepare(ClusterSimulation& sim, Tracing* t, TrialResult& r) {
  SpanScope span(t, "prepare_run");
  const auto t0 = Clock::now();
  sim.PrepareRun();
  AddSince(t, "workload.fill_s", t0);
  r.initial_tasks = InitialTasks(sim);
  if (t != nullptr) t->Add("workload.initial_tasks", r.initial_tasks);
}

// Times, outside the trial's phases, as many SampleInitialTask calls as the
// trial's fill made, on a fresh generator of the same cluster.
void TimeInitialSampling(const ClusterSimulation& sim, uint64_t seed,
                         const TrialResult& r, Tracing* t) {
  if (t == nullptr) return;
  SpanScope span(t, "sample_initial");
  WorkloadGenerator gen(sim.config(), GeneratorOptions{}, seed);
  double cpus = 0.0;
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < r.initial_tasks; ++i) {
    cpus += gen.SampleInitialTask().resources.cpus;
  }
  AddSince(t, "workload.sample_initial_s", t0);
  if (!(cpus > 0.0)) std::fprintf(stderr, "initial tasks sampled no cpus\n");
}

// The event loop of a prepared harness, in RunUntil calls.
void TimedLoop(ClusterSimulation& sim, Tracing* t, TrialResult& r) {
  const auto t0 = Clock::now();
  int64_t events = 0;
  {
    SpanScope span(t, "event_loop");
    events = RunLoop(sim.sim(), sim.EndTime(), t);
  }
  r.run_s = SecondsBetween(t0, Clock::now());
  if (t != nullptr) t->Add("sim.events", static_cast<double>(events));
}

TrialResult RunMegaCell(const Trial& trial, Tracing* t) {
  TrialResult r;
  SimOptions opts;
  opts.horizon = trial.horizon;
  opts.seed = trial.seed;
  auto sim = TimeSetup(r, [&] {
    PlacerFactory factory = nullptr;
    if (t != nullptr) {
      factory =
          t->Wrap([] { return std::make_unique<RandomizedFirstFitPlacer>(); });
    }
    std::unique_ptr<OmegaSimulation> s;
    {
      SpanScope span(t, "construct");
      const auto t0 = Clock::now();
      s = std::make_unique<OmegaSimulation>(
          ClusterMega(), opts, NamedConfig("batch"), NamedConfig("service"), 1,
          GeneratorOptions{}, std::move(factory));
      if (t != nullptr) s->SetTraceRecorder(&t->recorder);
      AddSince(t, "workload.construct_s", t0);
    }
    TimedPrepare(*s, t, r);
    return s;
  });
  TimedLoop(*sim, t, r);
  TimeInitialSampling(*sim, trial.seed, r, t);
  Digest d(&r);
  DigestOmega(d, *sim);
  return r;
}

// hifi-contended's scheduler configs: coarse-grained conflict detection for
// both, all-or-nothing commits for the service scheduler (Fig. 14's
// Coarse/Gang row).
std::pair<SchedulerConfig, SchedulerConfig> HifiConfigs() {
  SchedulerConfig batch = NamedConfig("batch");
  batch.conflict_mode = ConflictMode::kCoarseGrained;
  SchedulerConfig service = NamedConfig("service");
  service.service_times.t_job = Duration::FromSeconds(kHifiServiceTjobSecs);
  service.conflict_mode = ConflictMode::kCoarseGrained;
  service.commit_mode = CommitMode::kAllOrNothing;
  return {batch, service};
}

// The high-fidelity simulation assembled the way MakeHifiSimulation does it,
// but with the scoring placer behind the timing decorator. The traced run's
// digest must equal the timed run's (built by MakeHifiSimulation itself).
std::unique_ptr<OmegaSimulation> MakeTracedHifi(const ClusterConfig& cluster,
                                                SimOptions options,
                                                const SchedulerConfig& batch,
                                                const SchedulerConfig& service,
                                                Tracing& t) {
  const HifiOptions hifi;
  options.fullness = FullnessPolicy::kHeadroom;
  options.headroom_fraction = hifi.headroom_fraction;
  GeneratorOptions gen;
  gen.generate_constraints = true;
  gen.num_attribute_keys = hifi.num_attribute_keys;
  gen.num_attribute_values = hifi.num_attribute_values;
  const ScoringPlacerOptions placer = hifi.placer;
  auto sim = std::make_unique<OmegaSimulation>(
      cluster, options, batch, service, hifi.num_batch_schedulers, gen,
      t.Wrap([placer] { return std::make_unique<ScoringPlacer>(placer); }));
  sim->cell().EnableAvailabilityIndex();
  sim->SetTraceRecorder(&t.recorder);
  return sim;
}

TrialResult RunHifiContended(const Trial& trial, Tracing* t) {
  TrialResult r;
  SimOptions opts;
  opts.horizon = trial.horizon;
  opts.seed = trial.seed;
  const auto [batch, service] = HifiConfigs();
  auto [jobs, sim] = TimeSetup(r, [&] {
    std::vector<Job> trace;
    {
      SpanScope span(t, "generate_trace");
      const auto t0 = Clock::now();
      trace = GenerateHifiTrace(ClusterC(), trial.horizon,
                                SubstreamSeed(trial.seed, 1));
      AddSince(t, "workload.trace_gen_s", t0);
    }
    SpanScope span(t, "construct");
    const auto t0 = Clock::now();
    auto s = t == nullptr
                 ? MakeHifiSimulation(ClusterC(), opts, batch, service)
                 : MakeTracedHifi(ClusterC(), opts, batch, service, *t);
    AddSince(t, "workload.construct_s", t0);
    return std::make_pair(std::move(trace), std::move(s));
  });
  // RunTrace places the initial fill itself, so the fill is timed with the
  // event loop here, and the loop cannot be sliced.
  const auto t0 = Clock::now();
  {
    SpanScope span(t, "run_trace");
    sim->RunTrace(std::move(jobs));
  }
  r.run_s = SecondsBetween(t0, Clock::now());
  Digest d(&r);
  DigestOmega(d, *sim);
  d.Require(sim->service_scheduler().metrics().TasksConflicted() > 0,
            "no service claim conflicted: the workload is not contended");
  return r;
}

TrialResult RunFleet(const Trial& trial, Tracing* t) {
  TrialResult r;
  SimOptions opts;
  opts.horizon = trial.horizon;
  opts.seed = trial.seed;
  opts.batch_rate_multiplier = kFleetBatchLoad;
  FederationOptions fo;
  fo.num_cells = kFleetCells;
  fo.routing = FederationRouting::kLeastLoaded;
  fo.spillover = SpilloverPolicy::kNextBest;
  fo.gossip_interval = Duration::FromSeconds(15);
  fo.gossip_delay = Duration::FromSeconds(1);
  fo.pending_timeout = Duration::FromSeconds(kFleetPendingTimeoutSecs);
  // FederationSim::Run() prepares the cells inside the loop call, so set-up
  // is construction only.
  auto fed = TimeSetup(r, [&] {
    SpanScope span(t, "construct");
    const auto t0 = Clock::now();
    auto f = std::make_unique<FederationSim>(ClusterD(), opts,
                                             NamedConfig("batch"),
                                             NamedConfig("service"), fo);
    if (t != nullptr) f->SetTraceRecorder(&t->recorder);
    AddSince(t, "workload.construct_s", t0);
    return f;
  });
  const auto t0 = Clock::now();
  {
    SpanScope span(t, "federation_run");
    fed->Run();
  }
  r.run_s = SecondsBetween(t0, Clock::now());

  Digest d(&r);
  const FederationMetrics& m = fed->metrics();
  d.Count("routed", m.jobs_routed, 1);
  d.Count("spills", m.spills, 1);
  d.Count("spill_timeouts", m.spill_timeouts);
  d.Count("spill_rejections", m.spill_rejections);
  d.Count("fully_scheduled", m.jobs_fully_scheduled, 1);
  d.Count("lost", m.jobs_lost);
  d.Count("published", m.summaries_published, 1);
  d.Count("submitted", fed->JobsSubmittedTotal(), 1);
  d.Count("abandoned", fed->TotalJobsAbandoned());
  d.Fraction("mean_cpu_util", fed->MeanCellCpuUtilization());
  d.Fraction("cpu_skew", fed->CpuUtilizationSkew());
  d.NonNegative("fleet_conflict", fed->FleetConflictFraction());
  d.NonNegative("time_to_scheduled_mean", m.time_to_scheduled_secs.MeanValue());
  uint64_t fleet_state = 0xcbf29ce484222325ULL;
  for (uint32_t i = 0; i < fed->num_cells(); ++i) {
    fleet_state = CellFingerprint(fed->cell(i).cell(), fleet_state);
    d.Require(fed->cell(i).cell().CheckInvariants(),
              "CellState::CheckInvariants failed in a fleet cell");
  }
  d.Hash("cell_state", fleet_state);
  if (t != nullptr) {
    t->Add("federation.routed", m.jobs_routed);
    t->Add("federation.spills", m.spills);
    t->Add("federation.lost", m.jobs_lost);
    t->Add("federation.fully_scheduled", m.jobs_fully_scheduled);
  }
  return r;
}

TrialResult RunMesosOffers(const Trial& trial, Tracing* t) {
  TrialResult r;
  SimOptions opts;
  opts.horizon = trial.horizon;
  opts.seed = trial.seed;
  SchedulerConfig service = NamedConfig("service");
  service.service_times.t_job = Duration::FromSeconds(kMesosServiceTjobSecs);
  auto sim = TimeSetup(r, [&] {
    std::unique_ptr<MesosSimulation> s;
    {
      SpanScope span(t, "construct");
      const auto t0 = Clock::now();
      s = std::make_unique<MesosSimulation>(ClusterB(), opts,
                                            NamedConfig("batch"), service);
      if (t != nullptr) s->SetTraceRecorder(&t->recorder);
      AddSince(t, "workload.construct_s", t0);
    }
    TimedPrepare(*s, t, r);
    return s;
  });
  TimedLoop(*sim, t, r);
  TimeInitialSampling(*sim, trial.seed, r, t);
  Digest d(&r);
  DigestCell(d, *sim);
  const SchedulerMetrics& b = sim->batch_framework().metrics();
  const SchedulerMetrics& s = sim->service_framework().metrics();
  DigestScheduler(d, "batch", b, JobType::kBatch, sim->EndTime());
  DigestScheduler(d, "service", s, JobType::kService, sim->EndTime());
  if (t != nullptr) {
    t->Add("mesos.attempts", b.TotalAttempts() + s.TotalAttempts());
    t->Add("mesos.jobs_scheduled",
           b.JobsScheduled(JobType::kBatch) + s.JobsScheduled(JobType::kService));
  }
  return r;
}

using WorkloadFn = TrialResult (*)(const Trial&, Tracing*);

struct WorkloadSpec {
  const char* name;
  WorkloadFn run;
  double horizon_days;     // simulated horizon of one trial
  double nominal_trial_s;  // host seconds per trial; sets the seed count
};

constexpr WorkloadSpec kWorkloads[] = {
    {"mega-cell", RunMegaCell, 0.2, 2.6},
    {"hifi-contended", RunHifiContended, 0.25, 1.0},
    {"fleet", RunFleet, 0.1, 1.15},
    {"mesos-offers", RunMesosOffers, 0.03, 0.8},
};

// run.py repeats a timed run in rounds, one simbench process per round, each
// running every seed once: host time here depends on where a process's memory
// lands and on other tenants, so repetitions must come from separate
// processes spread over the run (README.md). --seconds sets the seed count
// for kTargetRounds rounds of the workload's nominal trial time.
constexpr int kTargetRounds = 4;

// --- main -----------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // run length the seed count is set for
  int seeds = 0;         // explicit seed count (overrides --seconds)
  int reps = 1;          // runs of each seed in this process
  double horizon_days = 0.0;  // 0 = the workload's own horizon
  bool traced = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--traced") {
      a->traced = true;
    } else if (flag == "--workload" && has_value) {
      a->workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      a->seconds = std::atof(argv[++i]);
    } else if (flag == "--seeds" && has_value) {
      a->seeds = std::atoi(argv[++i]);
    } else if (flag == "--reps" && has_value) {
      a->reps = std::atoi(argv[++i]);
    } else if (flag == "--horizon-days" && has_value) {
      a->horizon_days = std::atof(argv[++i]);
    } else if (flag == "--spans-out" && has_value) {
      a->spans_out = argv[++i];
    } else {
      return false;
    }
  }
  if (a->traced) a->reps = 1;
  return !a->workload.empty() && a->seconds >= 0.0 && a->seconds <= 3600.0 &&
         a->seeds >= 0 && a->seeds <= 1000 && a->reps >= 1 &&
         a->reps <= 100 && a->horizon_days >= 0.0 && a->horizon_days <= 30.0 &&
         (a->seconds > 0.0 || a->seeds > 0);
}

std::string JsonNumber(const std::string& key, double v) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "\"%s\":%.17g", key.c_str(), v);
  return buf;
}

// Derived ratios, computed once over the summed counters.
void DeriveLayerMetrics(Tracing& t, double run_s) {
  auto& c = t.counters;
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  c["scheduler.place_calls"] = static_cast<double>(t.placer.calls);
  c["scheduler.tasks_requested"] = static_cast<double>(t.placer.requested);
  c["scheduler.tasks_placed"] = static_cast<double>(t.placer.placed);
  c["scheduler.place_s"] = t.placer.seconds;
  c["scheduler.place_yield"] = ratio(c["scheduler.tasks_placed"],
                                     c["scheduler.tasks_requested"]);
  c["scheduler.attempts_per_job"] =
      ratio(c["scheduler.attempts"], c["workload.jobs"]);
  const double accepted = c["cluster.claims_accepted"];
  c.erase("cluster.claims_accepted");
  c["cluster.claims"] = accepted + c["cluster.claims_conflicted"];
  c["cluster.accept_ratio"] = ratio(accepted, c["cluster.claims"]);
  c["sim.ns_per_event"] = ratio(run_s * 1e9, c["sim.events"]);
  c["sim.loop_other_s"] = run_s - t.placer.seconds;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: simbench --workload <name> --seed <n> "
                 "[--seconds <s>] [--seeds <k>] [--reps <r>] "
                 "[--horizon-days <d>] [--traced] [--spans-out <path>]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  const int seeds =
      args.seeds > 0
          ? args.seeds
          : std::max(1, static_cast<int>(std::lround(
                            args.seconds /
                            (kTargetRounds * spec->nominal_trial_s))));
  const Duration horizon = Duration::FromDays(
      args.horizon_days > 0.0 ? args.horizon_days : spec->horizon_days);

  const auto start = Clock::now();
  std::unique_ptr<Tracing> tracing;
  if (args.traced) tracing = std::make_unique<Tracing>(start);

  std::string trials;  // JSON rows [seed, setup_s, run_s, wall_s]
  double total_run = 0.0;
  for (int rep = 0; rep < args.reps; ++rep) {
    for (int i = 0; i < seeds; ++i) {
      const Trial trial{args.seed + static_cast<uint64_t>(i), horizon};
      const auto t0 = Clock::now();
      TrialResult r;
      {
        SpanScope span(tracing.get(), "trial " + std::to_string(trial.seed));
        r = spec->run(trial, tracing.get());
      }
      const double wall = SecondsBetween(t0, Clock::now());
      total_run += r.run_s;
      const auto seed = static_cast<unsigned long long>(trial.seed);
      std::printf("digest %llu%s\n", seed, r.digest.c_str());
      for (const std::string& f : r.failures) {
        std::printf("fail %llu %s\n", seed, f.c_str());
      }
      char row[160];
      std::snprintf(row, sizeof(row), "%s[%llu,%.17g,%.17g,%.17g]",
                    trials.empty() ? "" : ",", seed, r.setup_s, r.run_s, wall);
      trials += row;
    }
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::string layers;
  if (tracing != nullptr) {
    CountTrace(*tracing);
    DeriveLayerMetrics(*tracing, total_run);
    if (!args.spans_out.empty() &&
        !tracing->spans.Write(args.spans_out, tracing->placer)) {
      std::fprintf(stderr, "cannot write spans to %s\n", args.spans_out.c_str());
      return 1;
    }
    for (const auto& [name, value] : tracing->counters) {
      layers += (layers.empty() ? "" : ",") + JsonNumber(name, value);
    }
  }
  std::printf("{\"workload\":\"%s\",\"seeds\":%d,\"reps\":%d,%s,"
              "\"trials\":[%s],\"layers\":{%s}}\n",
              args.workload.c_str(), seeds, args.reps,
              JsonNumber("peak_rss_mb", peak_rss_mb).c_str(), trials.c_str(),
              layers.c_str());
  return 0;
}

}  // namespace
}  // namespace omega

int main(int argc, char** argv) { return omega::Main(argc, argv); }
