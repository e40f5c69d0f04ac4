// Micro-benchmarks of the simulator's core operations (google-benchmark):
// cell-state allocate/free, transaction commit under both conflict-detection
// modes, the placement algorithms (including the randomized-first-fit vs
// scoring-placer ablation from DESIGN.md), and the event queue.
#include <benchmark/benchmark.h>

#include "src/cluster/cell_state.h"
#include "src/hifi/scoring_placer.h"
#include "src/scheduler/placement.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"

namespace omega {
namespace {

constexpr Resources kMachine{4.0, 16.0};
constexpr Resources kTask{0.5, 1.0};

// Micro benches run standalone (no SweepRunner/TrialContext), so their
// streams come from fixed, named per-bench seeds instead of an experiment
// substream. Identity on purpose: the value IS the documented seed.
constexpr uint64_t BenchSeed(uint64_t n) { return n; }

void BM_CellStateAllocateFree(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  MachineId m = 0;
  for (auto _ : state) {
    cell.Allocate(m, kTask);
    cell.Free(m, kTask);
    m = (m + 1) % cell.NumMachines();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CellStateAllocateFree)->Arg(1000)->Arg(12000);

void BM_CellStateAllocateFreeWithIndex(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  cell.EnableAvailabilityIndex();
  MachineId m = 0;
  for (auto _ : state) {
    cell.Allocate(m, kTask);
    cell.Free(m, kTask);
    m = (m + 1) % cell.NumMachines();
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_CellStateAllocateFreeWithIndex)->Arg(1000)->Arg(12000);

void CommitBenchmark(benchmark::State& state, ConflictMode mode) {
  CellState cell(1000, kMachine);
  Rng rng(BenchSeed(1));
  std::vector<TaskClaim> claims;
  for (int i = 0; i < 10; ++i) {
    const auto m = static_cast<MachineId>(rng.NextBounded(1000));
    claims.push_back(TaskClaim{m, kTask, cell.machine(m).seqnum});
  }
  for (auto _ : state) {
    const CommitResult r = cell.Commit(claims, mode, CommitMode::kIncremental);
    benchmark::DoNotOptimize(r);
    // Undo so the cell never fills.
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
    state.PauseTiming();
    for (TaskClaim& c : claims) {
      c.seqnum_at_placement = cell.machine(c.machine).seqnum;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * 10);
}

void BM_CommitFineGrained(benchmark::State& state) {
  CommitBenchmark(state, ConflictMode::kFineGrained);
}
BENCHMARK(BM_CommitFineGrained);

void BM_CommitCoarseGrained(benchmark::State& state) {
  CommitBenchmark(state, ConflictMode::kCoarseGrained);
}
BENCHMARK(BM_CommitCoarseGrained);

void BM_RandomizedFirstFit(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  // Half-full cell.
  Rng fill(BenchSeed(7));
  for (uint32_t i = 0; i < cell.NumMachines() / 2; ++i) {
    const auto m = static_cast<MachineId>(fill.NextBounded(cell.NumMachines()));
    if (cell.CanFit(m, Resources{2.0, 8.0})) {
      cell.Allocate(m, Resources{2.0, 8.0});
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  RandomizedFirstFitPlacer placer;
  Rng rng(BenchSeed(3));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    benchmark::DoNotOptimize(placer.PlaceTasks(cell, job, 10, rng, &claims));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_RandomizedFirstFit)->Arg(1000)->Arg(12000);

void BM_ScoringPlacer(benchmark::State& state) {
  CellState cell(static_cast<uint32_t>(state.range(0)), kMachine);
  cell.EnableAvailabilityIndex();
  Rng fill(BenchSeed(7));
  for (uint32_t i = 0; i < cell.NumMachines() / 2; ++i) {
    const auto m = static_cast<MachineId>(fill.NextBounded(cell.NumMachines()));
    if (cell.CanFit(m, Resources{2.0, 8.0})) {
      cell.Allocate(m, Resources{2.0, 8.0});
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  ScoringPlacer placer;
  Rng rng(BenchSeed(3));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    benchmark::DoNotOptimize(placer.PlaceTasks(cell, job, 10, rng, &claims));
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_ScoringPlacer)->Arg(1000)->Arg(12000);

// One 1,000-task job on a packed cluster-C-sized cell (12,500 machines under
// the high-fidelity 4% headroom): every machine holds a random 40-95% load,
// so each task's tightest feasible machines fill after one or a few tasks
// and the job's later tasks must walk past them.
void BM_ScoringPlacerPacked(benchmark::State& state) {
  CellState cell(12500, kMachine, FullnessPolicy::kHeadroom, 0.04);
  Rng fill(BenchSeed(11));
  for (MachineId m = 0; m < cell.NumMachines(); ++m) {
    const double load = 0.4 + 0.55 * fill.NextDouble();
    cell.Allocate(m, Resources{kMachine.cpus * load, kMachine.mem_gb * load});
  }
  cell.EnableAvailabilityIndex();
  Job job;
  job.num_tasks = 1000;
  job.task_resources = kTask;
  ScoringPlacer placer;
  Rng rng(BenchSeed(3));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    benchmark::DoNotOptimize(
        placer.PlaceTasks(cell, job, job.num_tasks, rng, &claims));
  }
  state.SetItemsProcessed(state.iterations() * job.num_tasks);
}
BENCHMARK(BM_ScoringPlacerPacked);

void BM_EventQueuePushPop(benchmark::State& state) {
  EventQueue q;
  Rng rng(BenchSeed(5));
  int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      q.Push(SimTime(t + static_cast<int64_t>(rng.NextBounded(10000))), [] {});
    }
    while (!q.Empty()) {
      SimTime when;
      q.Pop(&when);
      t = when.micros();
    }
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_EventQueuePushPop);

// Steady-state hold-one-pop-one at a fixed backlog: the shape of a running
// simulation, where every task-end pops one event and schedules the next.
// Arg is the number of pending events (heap depth).
void BM_EventQueueSteadyState(benchmark::State& state) {
  const auto backlog = static_cast<size_t>(state.range(0));
  EventQueue q;
  q.Reserve(backlog + 1);
  Rng rng(BenchSeed(5));
  int64_t now = 0;
  for (size_t i = 0; i < backlog; ++i) {
    q.Push(SimTime(static_cast<int64_t>(rng.NextBounded(1000000))), [] {});
  }
  for (auto _ : state) {
    SimTime when;
    q.Pop(&when);
    now = when.micros();
    q.Push(SimTime(now + 1 + static_cast<int64_t>(rng.NextBounded(1000000))),
           [] {});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueSteadyState)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000);

// Mixed pop/push traffic (2 pushes : 1 pop per round) with the backlog
// growing from `backlog` to 2 * `backlog` and then trimmed back (untimed) —
// the closest microbenchmark to what a figure sweep drives through the queue.
void BM_EventQueueMixed(benchmark::State& state) {
  const auto backlog = static_cast<size_t>(state.range(0));
  EventQueue q;
  q.Reserve(2 * backlog + 2);
  Rng rng(BenchSeed(9));
  int64_t now = 0;
  for (size_t i = 0; i < backlog; ++i) {
    q.Push(SimTime(static_cast<int64_t>(rng.NextBounded(1000000))), [] {});
  }
  for (auto _ : state) {
    SimTime when;
    q.Pop(&when);
    now = when.micros();
    for (int i = 0; i < 2; ++i) {
      q.Push(SimTime(now + 1 + static_cast<int64_t>(rng.NextBounded(1000000))),
             [] {});
    }
    if (q.PendingCount() > 2 * backlog) {
      state.PauseTiming();
      while (q.PendingCount() > backlog) {
        q.Pop(&when);
      }
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_EventQueueMixed)->Arg(10000)->Arg(100000)->Arg(1000000);

// Randomized first fit at a controlled utilization level. The paper's
// experiments deliberately push cells toward fullness (§4/§5), where the
// random-probe phase keeps missing and the linear fallback dominates. Arg is
// percent utilization of the binding (CPU) dimension.
void BM_PlacerAtUtilization(benchmark::State& state) {
  constexpr uint32_t kMachines = 10000;
  CellState cell(kMachines, kMachine);
  Rng fill(BenchSeed(11));
  const double target = static_cast<double>(state.range(0)) / 100.0;
  if (state.range(0) >= 100) {
    // Saturate: pack every machine until the probe task fits nowhere, so each
    // placement attempt degenerates to the exhaustive 10000-machine no-fit
    // sweep.
    for (MachineId m = 0; m < kMachines; ++m) {
      while (cell.CanFit(m, kTask)) {
        cell.Allocate(m, kTask);
      }
    }
  } else {
    // Random first-fit fill: leaves a realistic mix of full and loose
    // machines.
    while (cell.CpuUtilization() < target) {
      const auto m = static_cast<MachineId>(fill.NextBounded(kMachines));
      if (cell.CanFit(m, kTask)) {
        cell.Allocate(m, kTask);
      }
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  RandomizedFirstFitPlacer placer;
  Rng rng(BenchSeed(13));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    const uint32_t placed = placer.PlaceTasks(cell, job, 10, rng, &claims);
    benchmark::DoNotOptimize(placed);
    // Commit and undo so utilization stays pinned at the target.
    for (const TaskClaim& c : claims) {
      cell.Allocate(c.machine, c.resources);
    }
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}
BENCHMARK(BM_PlacerAtUtilization)->Arg(50)->Arg(85)->Arg(95)->Arg(99)->Arg(100);

// No-fit scan at mega-cell scale (100k machines). With max_random_probes=0
// every placement goes straight to the phase-2 linear fallback, so this
// isolates the scan itself: the sweep over the cell's allocation slots (the
// 8-wide chunked fit kernel, DESIGN.md §11). Arg is the percent
// of machines that cannot fit the probe task: the first Arg% of the cell is
// packed solid and the rest left empty, so every scan must sweep past a
// controlled no-fit span before its first fit (at 100, every scan is a
// full-cell proof that no fit exists).
void BM_NoFitScanSoA(benchmark::State& state) {
  constexpr uint32_t kMachines = 100000;
  CellState cell(kMachines, kMachine);
  const auto saturated =
      static_cast<uint32_t>(state.range(0)) * (kMachines / 100);
  for (MachineId m = 0; m < saturated; ++m) {
    while (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
  Job job;
  job.num_tasks = 10;
  job.task_resources = kTask;
  RandomizedFirstFitPlacer placer(/*max_random_probes=*/0);
  Rng rng(BenchSeed(13));
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    claims.clear();
    const uint32_t placed = placer.PlaceTasks(cell, job, 10, rng, &claims);
    benchmark::DoNotOptimize(placed);
    for (const TaskClaim& c : claims) {
      cell.Allocate(c.machine, c.resources);
    }
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
  }
  state.SetItemsProcessed(state.iterations() * 10);
}

BENCHMARK(BM_NoFitScanSoA)->Arg(50)->Arg(85)->Arg(95)->Arg(99)->Arg(100);

// Fills a cell to roughly `percent` CPU utilization with task-sized
// allocations (random first fit, mirroring BM_PlacerAtUtilization's fill).
// Machines below `reserve` are left empty so the benchmark body always has
// room to stack a transaction — at 99% utilization random fill can leave no
// machine with several free slots, and a rejection-sampling pick would spin.
void FillToUtilization(CellState& cell, int64_t percent, uint64_t seed,
                       uint32_t reserve) {
  Rng fill(seed);
  const double target = static_cast<double>(percent) / 100.0;
  const uint32_t fillable = cell.NumMachines() - reserve;
  while (cell.CpuUtilization() < target) {
    const auto m =
        static_cast<MachineId>(reserve + fill.NextBounded(fillable));
    if (cell.CanFit(m, kTask)) {
      cell.Allocate(m, kTask);
    }
  }
}

// Commit of a transaction whose claims stack several tasks onto each
// machine — the shape StartTasks produces for multi-task jobs. Arg is
// percent CPU utilization.
void BM_Commit(benchmark::State& state) {
  constexpr uint32_t kMachines = 10000;
  constexpr int kTasksPerMachine = 4;
  constexpr int kMachinesPerTxn = 4;
  CellState cell(kMachines, kMachine);
  FillToUtilization(cell, state.range(0), 11, kMachinesPerTxn);
  std::vector<TaskClaim> claims;
  for (auto _ : state) {
    state.PauseTiming();
    claims.clear();
    // The reserved (empty) machines always fit the stack, so every claim is
    // accepted and the undo below frees exactly what was committed.
    for (MachineId m = 0; m < kMachinesPerTxn; ++m) {
      for (int t = 0; t < kTasksPerMachine; ++t) {
        claims.push_back(TaskClaim{m, kTask, cell.machine(m).seqnum});
      }
    }
    state.ResumeTiming();
    const CommitResult r = cell.Commit(claims, ConflictMode::kFineGrained,
                                       CommitMode::kIncremental);
    benchmark::DoNotOptimize(r);
    state.PauseTiming();
    for (const TaskClaim& c : claims) {
      cell.Free(c.machine, c.resources);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * claims.size());
}

BENCHMARK(BM_Commit)->Arg(50)->Arg(85)->Arg(95)->Arg(99);

void BM_SimulatorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int64_t count = 0;
    for (int i = 0; i < 10000; ++i) {
      // This frame drives sim.Run() below, so every callback fires while
      // `count` is still alive.
      // omega-lint: allow(sim-dangling-capture)
      sim.ScheduleAt(SimTime(i), [&count] { ++count; });
    }
    sim.Run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorThroughput);

}  // namespace
}  // namespace omega

BENCHMARK_MAIN();
