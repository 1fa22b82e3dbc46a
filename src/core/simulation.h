#pragma once
// Single-trial simulation: feeds one workload through a configured resource
// allocation system and reports the trial's outcome.

#include <vector>

#include "core/config.h"
#include "core/scheduler.h"
#include "sim/metrics.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::core {

/// Everything a trial produces.
struct TrialResult {
  sim::Metrics metrics;

  /// % of counted tasks completed on time — the paper's robustness metric.
  double robustnessPercent = 0.0;

  /// Per-machine busy-time / makespan.
  std::vector<double> machineUtilization;

  /// Final per-type sufferage scores (diagnostics for the Fairness module).
  std::vector<double> fairnessScores;

  std::size_t mappingEvents = 0;
  sim::Time makespan = 0;  ///< time of the last event in the trial

  /// Wall-clock seconds spent inside the batch-mapping section of mapping
  /// events (candidate assembly + heuristic + dispatch/defer decisions).
  /// Populated only when SimulationConfig.measureMappingEngine is set;
  /// 0 otherwise.  Lets benches compare mapping engines without the
  /// simulation substrate (event heap, sampling, metrics) diluting the
  /// signal.
  double mappingEngineSeconds = 0.0;

  /// The clusters' PCT-cache counters, summed (all zero with the cache
  /// off): how often each memo and certified shortcut decided.  Diagnostics
  /// only — no report reads them, and they differ between the cached and
  /// the reference path by design.
  heuristics::PctCache::Stats pctCache;
};

/// Runs one workload trial to completion.  Deterministic: the same model,
/// workload, and config always produce the same result.
///
/// The single-cluster front end of fed::FederatedSimulation: run() is a
/// federation of one cluster with no dispatch latency and accept-all
/// admission.  Arrivals are always pulled from a TaskStream (a
/// materialized Workload is wrapped in a WorkloadStream), and terminal
/// tasks' TaskPool slots are recycled, so the pool stays bounded by the
/// in-flight window however long the trial runs.  The same task sequence
/// gives the identical TrialResult and trace either way; warm-up trimming
/// is decided online.
class Simulation {
 public:
  /// `model` must outlive run().
  Simulation(const sim::ExecutionModel& model,
             const workload::Workload& workload, SimulationConfig config);

  /// Streamed-arrival trial; `model` and `stream` must outlive run().
  Simulation(const sim::ExecutionModel& model, workload::TaskStream& stream,
             SimulationConfig config);

  TrialResult run();

 private:
  const sim::ExecutionModel& model_;
  const workload::Workload* workload_ = nullptr;
  workload::TaskStream* stream_ = nullptr;
  SimulationConfig config_;
};

}  // namespace hcs::core
