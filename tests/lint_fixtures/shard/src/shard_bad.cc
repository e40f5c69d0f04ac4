// Positive fixture for det-shard-unsafe-write: writes to shared state from
// code reachable from shard callbacks. Types are opaque to the scanner; only
// the token shapes matter.
#include <cstddef>
#include <vector>

namespace omega {

struct Accum {
  void Bump() { total_ += 1.0; }  // member write, reached via shard call
  double total_ = 0.0;
};

void ShardedWrites() {
  Accum acc;
  int shared_counter = 0;
  std::vector<double> out(8, 0.0);
  ParallelFor(8, [&](size_t i) {
    shared_counter += 1;  // by-ref capture of the launching frame
    acc.Bump();           // member write through a shared receiver
    out[i] = 1.0;         // raw vector capture: not an allowlisted view
  });
}

struct Tally {
  int hits = 0;
};

void PointerLoopWrites() {
  Tally shared;
  ParallelFor(4, [&](size_t i) {
    for (Tally* t : {&shared}) {
      t->hits += static_cast<int>(i);  // points into the launching frame
    }
  });
}

}  // namespace omega
