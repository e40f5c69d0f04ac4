// Call-graph edge cases for det-shard-unsafe-write: overload widening,
// virtual dispatch, recursion termination, and SweepRunner::Run trial roots.
#include <cstddef>

namespace omega {

int g_touch_count = 0;

// Overload pair: a receiverless call to Touch from shard code must
// conservatively reach BOTH bodies, so the global write in either one fires.
void Touch(int v) { g_touch_count += v; }  // written through overload widening
void Touch(double) {}

struct Base {
  virtual void Apply() {}
  virtual ~Base() = default;
};

struct Derived : Base {
  void Apply() override { hits_ += 1; }  // reached via virtual dispatch
  int hits_ = 0;
};

// Recursion in the reachable set must terminate (visited-set worklist), and a
// pure recursive walker with only frame-local writes stays clean.
int CountDown(int n) {
  int acc = n;
  if (n > 0) {
    acc = CountDown(n - 1);
  }
  return acc;
}

int g_trial_state = 0;
int g_other_state = 0;

// A class with a Run method that is not SweepRunner: its callback runs on
// the calling thread, so it is not a shard root.
struct Sequential {
  template <typename Fn>
  void Run(int n, Fn fn) {
    for (int i = 0; i < n; ++i) fn(i);
  }
};

void EdgeCases(Base* shape) {
  ParallelFor(4, [&](size_t i) {
    Touch(static_cast<int>(i));  // overload widening reaches the int body
    shape->Apply();              // virtual dispatch reaches Derived::Apply
    CountDown(3);                // recursion: must terminate, no finding
  });
  SweepRunner runner("edges", 1);
  runner.Run(4, [&](const TrialContext& ctx) {
    g_trial_state += static_cast<int>(ctx.index);  // sweep trials are roots
    return 0;
  });
  Sequential seq;
  seq.Run(4, [&](int i) { g_other_state += i; });
}

}  // namespace omega
