// Per-layer probes: loops that time calls into each layer's public API,
// from outside the program.  Every probe runs kProcs ranks or PEs, like the
// workloads.  Probes of operations that never block time them inside the
// PE (host seconds per call, summed over PEs); probes of operations that
// park (barriers, receives, hand-offs) divide a run's wall time by the
// operations it performed.  Each probe reports the median of three trials.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace hostbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Run every probe.  kTiny cuts the iteration counts and runs the serial
/// kernels at their tiny workload sizes; `seed` feeds the serial nbody
/// kernel.
[[nodiscard]] std::vector<Metric> run_probes(Size size, std::uint64_t seed);

}  // namespace hostbench
