#pragma once
// Declarative scenario files: a JSON format that fully describes one
// experiment — PET synthesis/seed, cluster shape, arrival process
// (including the bursty IPPP pattern), deadline spec, heuristic/pruning/
// simulation config, and trials/jobs/scale — so the §V evaluation grid is
// data, not compiled-in C++.  scenario_spec covers a single experiment;
// sweep.h adds the parameter-sweep axes that expand one file into a grid.
//
// Design rules:
//  - Every field has the same default as the hand-written bench path, and
//    binding goes through the same PaperScenario + ExperimentSpec
//    machinery, so a scenario file reproduces its figure bench
//    byte-identically at the same scale/seed.
//  - Parsing is strict: unknown keys and ill-typed/out-of-range values are
//    rejected with line-numbered errors (util/json keeps source lines).
//  - parse -> serialize -> parse is the identity (canonical full form).

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/config.h"
#include "exp/experiment.h"
#include "exp/scenario.h"
#include "fed/federation.h"
#include "util/json.h"
#include "workload/arrival.h"
#include "workload/deadline.h"
#include "workload/pet_matrix.h"

namespace hcs::exp {

/// Schema violations (unknown key, bad type, out-of-range value); the
/// message carries "line N:" context from the scenario file.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& message)
      : std::runtime_error(message) {}
};

/// One fully-described experiment.  Field defaults mirror the bench
/// defaults exactly (PaperScenario::Options, ExperimentSpec,
/// SimulationConfig), so an empty scenario object `{}` is the canonical
/// paper setup: MM, heterogeneous cluster, 15k spiky, full pruning.
struct ScenarioSpec {
  std::string name;
  std::string description;

  // --- pet ---
  std::uint64_t petSeed = 2019;
  double targetRhoAt15k = 1.25;
  workload::PetSynthesisConfig synthesis;

  // --- cluster ---
  enum class ClusterKind { Heterogeneous, Homogeneous, Custom };
  ClusterKind clusterKind = ClusterKind::Heterogeneous;
  /// Custom clusters: machine i is of PET machine type customMachineTypes[i]
  /// (any mix, any count — e.g. 6 fast + 2 slow).
  std::vector<int> customMachineTypes;

  // --- workload ---
  /// Paper-equivalent task count (15000/20000/25000 in §V); scaled by
  /// run.scale.  Ignored by the bursty pattern.
  std::size_t rate = 15000;
  workload::ArrivalPattern pattern = workload::ArrivalPattern::Spiky;
  int numSpikes = 6;
  double spikeFactor = 3.0;
  double gapVarianceFraction = 0.1;
  /// Bursty IPPP intensity, relative to the bound cluster's capacity
  /// (tasks/time-unit it can serve): lambda(t) = base + peak * Gaussian
  /// burst train.  Spans/periods/widths are absolute time units and are
  /// NOT scaled by run.scale.
  double burstBaseFactor = 0.9;
  double burstPeakFactor = 7.0;
  double burstWidth = 4.0;
  double burstPeriod = 80.0;
  double burstSpan = 400.0;
  workload::DeadlineSpec deadline;

  // --- stream ---
  /// Bounded-memory arrival mode (scenario `stream` block).  When enabled,
  /// every trial pulls its tasks from a TaskStream instead of materializing
  /// the full workload: generated on the fly (identical results to the
  /// materialized trial) or replayed from an external trace file
  /// (stream.trace + stream.format).  max_tasks / max_time cut the stream
  /// short, which is how a scenario replays "the first N tasks" of a
  /// million-task trace.
  workload::StreamSpec stream;

  // --- sim ---
  std::string heuristic = "MM";
  heuristics::HeuristicOptions heuristicOptions;
  pruning::PruningConfig pruning;
  std::size_t machineQueueCapacity = 4;
  bool abortRunningAtDeadline = false;
  bool pctCacheEnabled = true;
  bool incrementalMappingEnabled = true;
  /// Adaptive-engine threshold (sim.incremental_map_min_queue): mapping
  /// rounds with fewer queued tasks than this run the reference evaluation;
  /// 0 forces every round down the incremental path.  Mirrors (and must
  /// stay in step with) core::SimulationConfig::incrementalMapMinQueue.
  std::size_t incrementalMapMinQueue = 16;

  // --- faults ---
  /// Machine churn + retry policy (scenario `faults` block).  The default
  /// (disabled) leaves the engine byte-identical to the fault-free build.
  /// Scripted events and initially_offline name machine indices, applied
  /// to the matching index in EVERY cluster of a federated scenario;
  /// out-of-range indices are rejected when the trial starts.
  sim::FaultConfig faults;

  // --- admission ---
  /// Gateway admission control (scenario `admission` block).  Any policy
  /// other than accept_all requires federation.enabled — the gateway is
  /// what applies it.
  fed::AdmissionConfig admission;

  // --- federation ---
  /// When enabled, the experiment runs through the federated dispatch
  /// engine (src/fed/): `fedClusters` clusters behind a gateway routing by
  /// `fedRouting` with `fedDispatchLatency` delivery delay.  A federation
  /// of 1 cluster with zero latency is the plain engine: single-cluster
  /// trials run through the same event loop.
  bool federationEnabled = false;
  std::size_t fedClusters = 1;
  fed::RoutingPolicyKind fedRouting = fed::RoutingPolicyKind::RoundRobin;
  double fedDispatchLatency = 0.0;
  /// Per-cluster machine shapes (capacity/heterogeneity skew): entry c is
  /// cluster c's machine → PET-machine-type map, like cluster.machine_types
  /// but per federation cluster.  Empty = every cluster mirrors the base
  /// cluster's shape.  When set, must have exactly fedClusters entries.
  std::vector<std::vector<int>> fedClusterShapes;

  // --- elasticity ---
  /// Elastic capacity control (scenario `elasticity` block).  The default
  /// (disabled) leaves the engine byte-identical to the fixed-capacity
  /// build.  `pool` bounds capacity per PET machine type; the bind layer
  /// expands the cluster with parked surplus slots up to each group's max
  /// (baseMachines is derived there, never parsed).
  sim::ElasticityConfig elasticity;
  /// Fully-resolved per-cluster controller configs (federated scenarios
  /// only): parsed from `elasticity.cluster_overrides`, each starting from
  /// the base block with its override keys applied — so serialization
  /// round-trips without a diff-vs-base merge step.
  struct ElasticityOverride {
    std::size_t cluster = 0;
    sim::ElasticityConfig config;
  };
  std::vector<ElasticityOverride> elasticityOverrides;

  // --- run ---
  std::size_t trials = 8;
  std::size_t jobs = 1;
  std::uint64_t seed = 2019;
  double scale = 0.1;
  /// Warm-up trim margin; -1 = auto (the paper's 100-of-15000 ratio for
  /// rate-based patterns, 0 for bursty).
  long warmup = -1;
};

/// Parses a scenario object.  Throws ScenarioError on unknown keys,
/// ill-typed values, or out-of-range values, naming the source line.
/// (The "sweep" key belongs to the document level — see sweep.h — and is
/// rejected here.)
ScenarioSpec parseScenarioSpec(const util::JsonValue& json);

/// Canonical full-form serialization; parseScenarioSpec(toJson(s))
/// reproduces `s` exactly.
util::JsonValue scenarioSpecToJson(const ScenarioSpec& spec);

/// A scenario bound to concrete models, ready to run.
struct BoundScenario {
  /// Owns the PET matrix and the hetero/homo clusters (shared so sweep
  /// grids reuse one synthesis across grid points).
  std::shared_ptr<const PaperScenario> paper;
  /// Set for ClusterKind::Custom, and for elastic scenarios (where the base
  /// shape is expanded with parked surplus slots up to each pool group's
  /// max).
  std::unique_ptr<workload::BoundExecutionModel> customModel;
  /// The cluster this scenario runs against (points into paper or
  /// customModel).
  const workload::BoundExecutionModel* model = nullptr;
  /// Fully-populated spec for runExperiment().
  ExperimentSpec experiment;

  /// Federated scenarios (spec.federationEnabled): the gateway shape and
  /// one bound model per cluster.  `fedModels` point into fedOwned (and/or
  /// `model` for clusters mirroring the base shape).
  bool federated = false;
  fed::FederationSpec federation;
  std::vector<std::unique_ptr<workload::BoundExecutionModel>> fedOwned;
  std::vector<const workload::BoundExecutionModel*> fedModels;
};

/// Key over the fields that determine PaperScenario construction (PET
/// seed/synthesis, scale, target rho); equal keys may share one
/// PaperScenario across bindScenario calls.
std::string scenarioModelKey(const ScenarioSpec& spec);

/// Binds `spec` to models and an ExperimentSpec.  Pass a `paper` previously
/// obtained from a spec with the same scenarioModelKey() to skip the PET
/// re-synthesis; pass nullptr to build fresh.
BoundScenario bindScenario(const ScenarioSpec& spec,
                           std::shared_ptr<const PaperScenario> paper = {});

}  // namespace hcs::exp
