// Bursty inhomogeneous-Poisson arrival stress.
//
// The paper's spiky pattern rescales Gamma gaps through a piecewise-
// constant rate profile; scenarios/burst_stress.json stresses the other
// classic construction (cf. Hohmann's simulation methods for inhomogeneous
// Poisson point processes): Lewis-Shedler THINNING against a smooth
// intensity
//
//   lambda(t) = base + sum_k peak * exp(-((t - c_k) / width)^2 / 2)
//
// whose Gaussian burst trains pile tens to hundreds of tasks into the
// batch queue within a few time units — the oversubscribed regime the
// incremental mapping engine exists for.  The example binds that scenario
// (base and peak are calibrated to the cluster's capacity), draws one
// workload from its arrival spec, and reports the QoS story (MM bare vs
// MM + pruning), the peak batch-queue depth reached, and the wall-clock of
// the incremental vs the reference mapping engine on the identical
// workload.

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/simulation.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "sim/trace.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

struct RunResult {
  core::TrialResult trial;
  std::size_t peakBatchQueue = 0;
  double wallMs = 0.0;
};

RunResult run(const workload::BoundExecutionModel& model,
              const workload::Workload& wl, bool prune, bool incremental) {
  core::SimulationConfig config;
  config.heuristic = "MM";
  config.pruning =
      prune ? pruning::PruningConfig{} : pruning::PruningConfig::disabled();
  config.incrementalMappingEnabled = incremental;
  config.warmupMargin = 0;

  // Batch-queue depth from the lifecycle trace: a task occupies the
  // arrival queue from Arrival until Dispatched, or until a drop that
  // happened *in* the batch queue (drops out of a machine queue carry the
  // machine id).
  RunResult r;
  std::size_t depth = 0;
  config.traceSink = [&](const sim::TraceEvent& e) {
    switch (e.kind) {
      case sim::TraceEventKind::Arrival:
        r.peakBatchQueue = std::max(r.peakBatchQueue, ++depth);
        break;
      case sim::TraceEventKind::Dispatched:
        --depth;
        break;
      case sim::TraceEventKind::DroppedReactive:
      case sim::TraceEventKind::DroppedProactive:
        if (e.machine == sim::kInvalidMachine) --depth;
        break;
      default:
        break;
    }
  };

  const auto start = std::chrono::steady_clock::now();
  r.trial = core::Simulation(model, wl, config).run();
  const auto end = std::chrono::steady_clock::now();
  r.wallMs = std::chrono::duration<double, std::milli>(end - start).count();
  return r;
}

}  // namespace

int main() {
  const exp::ScenarioSpec spec =
      exp::loadScenarioDoc(std::string(HCS_SCENARIO_DIR) + "/burst_stress.json")
          .baseSpec();
  const exp::BoundScenario bound = exp::bindScenario(spec);
  const workload::BoundExecutionModel& cluster = *bound.model;
  const workload::ArrivalSpec& arrival = bound.experiment.arrival;
  const workload::Workload wl = workload::Workload::generate(
      *bound.paper->pet(), arrival, bound.experiment.deadline, 7919);

  std::printf(
      "burst stress: thinning-sampled inhomogeneous Poisson arrivals\n"
      "  %zu tasks over %.0f time units, %d machines\n"
      "  lull rate %.1f/unit (%.2fx capacity), burst peak %.1f/unit "
      "(%.2fx)\n\n",
      wl.size(), arrival.span, cluster.numMachines(), arrival.burstBaseRate,
      spec.burstBaseFactor, arrival.burstBaseRate + arrival.burstPeakRate,
      spec.burstBaseFactor + spec.burstPeakFactor);

  const RunResult bare = run(cluster, wl, /*prune=*/false, true);
  const RunResult pruned = run(cluster, wl, /*prune=*/true, true);
  const RunResult reference = run(cluster, wl, /*prune=*/false, false);

  auto report = [](const char* label, const RunResult& r) {
    std::printf(
        "%-12s robustness %5.1f%%  late %5zu  dropped %5zu  deferred %5zu  "
        "peak batch queue %4zu  mapping events %6zu  %7.1f ms\n",
        label, r.trial.robustnessPercent, r.trial.metrics.completedLate(),
        r.trial.metrics.droppedReactive() +
            r.trial.metrics.droppedProactive(),
        r.trial.metrics.deferrals(), r.peakBatchQueue,
        r.trial.mappingEvents, r.wallMs);
  };
  report("MM bare", bare);
  report("MM + prune", pruned);

  std::printf(
      "\nmapping engines on the bare run (identical reports required):\n");
  report("incremental", bare);
  report("reference", reference);
  if (bare.trial.robustnessPercent != reference.trial.robustnessPercent ||
      bare.trial.mappingEvents != reference.trial.mappingEvents ||
      bare.trial.makespan != reference.trial.makespan) {
    std::fprintf(stderr, "burst_stress: engine reports DIVERGED\n");
    return 1;
  }
  std::printf("engines agree; incremental %.2fx faster on this workload\n",
              bare.wallMs > 0 ? reference.wallMs / bare.wallMs : 0.0);
  return 0;
}
