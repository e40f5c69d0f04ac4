// A single machine in a cell.
#pragma once

#include <cstdint>
#include <span>

#include "src/cluster/resources.h"

namespace omega {

using MachineId = uint32_t;
inline constexpr MachineId kInvalidMachineId = ~0u;

// A read-only snapshot of one machine, assembled by CellState::machine() from
// the cell's per-machine arrays (CellState holds the only copy). Hot paths
// read single fields through CellState's accessors instead.
struct Machine {
  MachineId id = kInvalidMachineId;
  Resources capacity;
  Resources allocated;

  // Bumped on every allocation or free; coarse-grained conflict detection
  // (§5.2) compares this against the value captured at placement time.
  uint64_t seqnum = 0;

  // Failure-domain index (rack); the high-fidelity placement algorithm spreads
  // a job's tasks across failure domains.
  int32_t failure_domain = 0;

  // Attribute value per attribute key; task placement constraints (§5) are
  // predicates over these. Views the cell's storage.
  std::span<const int32_t> attributes;

  Resources Available() const { return capacity - allocated; }
};

}  // namespace omega
