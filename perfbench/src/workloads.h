// The four benchmark workloads. Each drives the system only through its
// public entry points (agl::Run, driver::Run*Processes / TrainProcesses,
// serve::InferenceService), checks its outputs outside the timed window,
// and returns every end-to-end and per-layer metric it measured.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for this run's DFS roots (wiped at start).
  std::string work_dir;
};

/// `pipeline` (threads) and `pipeline_procs` (worker processes).
Report RunPipeline(const Options& options, bool processes, Tracer* tracer);

/// `serve_read` and `serve_mutate`.
Report RunServe(const Options& options, bool mutate, Tracer* tracer);

/// Self-test of the metric code in measure.h / trace.h; returns the
/// failed checks (empty = pass).
std::vector<std::string> SelfTest();

/// Removes and recreates `dir`.
bool WipeDir(const std::string& dir);

}  // namespace perfbench
