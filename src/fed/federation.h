#pragma once
// The event loop: N independent clusters behind a gateway.
//
// Every trial runs here — core::Simulation is the one-cluster front end.  A
// FederatedSimulation owns one full resource-allocation stack per cluster —
// Scheduler (heuristic + pruner + the cluster's one Eq. 2 context and PCT
// cache, which the gateway and the capacity controller read too),
// EventQueue, machines, metrics, and a *split per-cluster RNG stream* —
// plus a gateway that pulls the arrival stream in time order and routes
// every task by a pluggable RoutingPolicy.  Routed tasks reach their cluster immediately or after a
// configurable inter-cluster dispatch latency; failure retries come back
// to the gateway and are routed and admitted again.
//
// Reproducibility contracts:
//  - Cluster 0 keeps the trial's base execution/fault/elasticity RNG
//    streams and clusters run their events in deterministic
//    (time, cluster, seq) order, so the default FederationSpec (one
//    cluster, zero latency, accept-all admission) IS the single-cluster
//    trial.
//  - Cluster c > 0 derives its stream from the same seed via a splitmix64
//    step, so paired-seed sweeps (same run.seed, different cluster counts or
//    routing policies) stay paired.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/scheduler.h"
#include "core/simulation.h"
#include "fed/admission.h"
#include "fed/routing.h"
#include "prob/rng.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::fed {

/// Shape of a federation, independent of the per-cluster simulation config.
struct FederationSpec {
  std::size_t clusters = 1;
  RoutingPolicyKind routing = RoutingPolicyKind::RoundRobin;
  /// Gateway-to-cluster delivery delay (time units).  0 = a routed task
  /// arrives at its cluster at its global arrival time.
  double dispatchLatency = 0.0;
  /// Gateway admission control: applied after routing to every task that
  /// enters the gateway (stream arrivals AND failure retries).  A refused
  /// task spills to sibling clusters in ascending index order (when
  /// spillover is on); a federation-wide refusal rejects it outright.  The
  /// accept_all default keeps the fault-free identity contracts intact.
  AdmissionConfig admission;
  /// Per-cluster elastic-capacity overrides.  Empty = every cluster runs
  /// the shared SimulationConfig.elasticity block; otherwise exactly one
  /// fully-resolved config per cluster (the bind layer merges scenario
  /// overrides and fills each cluster's baseMachines/pool).
  std::vector<sim::ElasticityConfig> clusterElasticity;
};

/// Execution-RNG seed of cluster `cluster`, split from the trial seed.
/// Cluster 0 keeps the base stream (so one cluster is the plain trial);
/// higher clusters get independent splitmix64-derived streams from the same
/// seed.
std::uint64_t clusterExecutionSeed(std::uint64_t base, std::size_t cluster);

/// One cluster's share of a federated trial.
struct ClusterOutcome {
  sim::Metrics metrics;
  std::size_t tasksRouted = 0;
  std::size_t mappingEvents = 0;
  /// Time of the last event processed on this cluster (0 if none).
  sim::Time lastEvent = 0;
  std::vector<double> machineUtilization;
  std::vector<double> fairnessScores;
};

/// Everything a federated trial produces: the aggregate (cross-cluster)
/// trial result plus the per-cluster breakdown.
struct FederatedTrialResult {
  /// Aggregate result — metrics merged across clusters, utilizations
  /// concatenated cluster-major — in the shape core::Simulation returns.
  core::TrialResult total;
  std::vector<ClusterOutcome> clusters;
};

/// Runs one workload trial through the federation.  Deterministic: the same
/// models, workload, config, and spec always produce the same result.
///
/// The gateway always pulls arrivals from a TaskStream (a materialized
/// Workload is wrapped in a WorkloadStream) and creates each task as it
/// reaches it; warm-up trimming is decided online, and the slots of
/// terminal tasks are recycled, so the task pool stays bounded by the
/// in-flight window.  The same task sequence gives the same TrialResult
/// and the same trace either way.
class FederatedSimulation {
 public:
  /// `models` (one per cluster, all sharing the workload's task-type count
  /// and PET bin width) and `workload` must outlive run().
  FederatedSimulation(std::vector<const sim::ExecutionModel*> models,
                      const workload::Workload& workload,
                      core::SimulationConfig config, FederationSpec spec);

  /// Streamed-arrival federated trial; `models` and `stream` must outlive
  /// run().
  FederatedSimulation(std::vector<const sim::ExecutionModel*> models,
                      workload::TaskStream& stream,
                      core::SimulationConfig config, FederationSpec spec);

  FederatedTrialResult run();

 private:
  void validate(int numTaskTypes);

  std::vector<const sim::ExecutionModel*> models_;
  /// Set when constructed from a Workload: the stream wrapping it.
  std::unique_ptr<workload::WorkloadStream> ownedStream_;
  workload::TaskStream* stream_ = nullptr;
  core::SimulationConfig config_;
  FederationSpec spec_;
};

}  // namespace hcs::fed
