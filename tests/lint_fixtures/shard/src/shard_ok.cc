// Negative fixture: the sanctioned shapes. Frame-local state and ShardSlots
// writes inside shard callbacks are clean.
#include <cstddef>
#include <vector>

namespace omega {

double ShardLocalOnly() {
  std::vector<double> out(8, 0.0);
  ShardSlots<double> slots(out);
  ParallelFor(8, [&](size_t i) {
    double local = static_cast<double>(i);  // frame-local: fine
    local += 1.0;
    slots[i] = local;  // per-shard output view: allowlisted scratch type
  });
  double total = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    total += out[i];
  }
  return total;
}

// Per-trial pattern: the whole object is constructed inside the shard
// callback, so its member writes are private to the shard.
struct Trial {
  void Step() { ticks_ += 1; }
  int ticks_ = 0;
};

void PerTrialObjects() {
  ParallelFor(4, [&](size_t i) {
    Trial trial;
    trial.Step();  // receiver tree rooted at a shard-frame local
    (void)i;
  });
}

// Sweep trial pattern: the trial builds its row from trial-local state and
// returns it; SweepRunner stores it in a per-trial slot. Pointers that a
// range-for takes into trial-local objects stay per-trial.
struct Config {
  int mode = 0;
};

struct Row {
  int value = 0;
};

void CleanSweepTrial() {
  SweepRunner runner("ok", 1);
  const auto rows = runner.Run(4, [&](const TrialContext& ctx) {
    Config batch;
    Config service;
    for (Config* c : {&batch, &service}) {
      c->mode = 1;  // points into this trial's frame
    }
    Row row;
    row.value = static_cast<int>(ctx.index) + batch.mode + service.mode;
    return row;
  });
  (void)rows;
}

}  // namespace omega
