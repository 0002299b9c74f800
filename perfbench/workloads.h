// perfbench workloads. Each takes its seed, builds its inputs before any
// timing starts, runs an untimed warm-up slice, measures for `seconds`,
// checks every answer against the generator's model, and returns both
// metric sets (the caller prints the one its mode asks for).
#pragma once

#include <cstdint>
#include <string>

#include "measure.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for file-backed arenas (inside the checkout).
  std::string work_dir = ".bench_work";
  /// Service workloads: offered rate override (ops/s); 0 = the default.
  double rate = 0;
  /// Service workloads: most requests parked or outstanding at once
  /// (>= 1); kDefault = the workload's own.
  static constexpr size_t kDefault = SIZE_MAX;
  size_t window = kDefault;
};

RunResult run_engine_churn(const Args& args);
/// svc-skew (in-process) when `tcp` is false, tcp-quorum otherwise.
RunResult run_service(const Args& args, bool tcp);

}  // namespace perfbench
