#pragma once
// Declarative scenario files: a JSON format that fully describes one
// experiment — PET synthesis/seed, cluster shape, arrival process
// (including the bursty IPPP pattern), deadline spec, heuristic/pruning/
// simulation config, and trials/jobs/scale — so the §V evaluation grid is
// data, not compiled-in C++.  scenario_spec covers a single experiment;
// sweep.h adds the parameter-sweep axes that expand one file into a grid.
//
// Design rules:
//  - Each block parses straight into the engine struct that consumes it,
//    and binding goes through the same PaperScenario + ExperimentSpec
//    machinery, so a scenario file reproduces its figure byte-identically
//    at the same scale/seed.
//  - Parsing is strict: unknown keys and ill-typed/out-of-range values are
//    rejected with line-numbered errors (util/json keeps source lines).
//  - parse -> serialize -> parse is the identity (canonical full form).
//    Each block's keys, types and bounds are written once, in one
//    description that both the parser and the serializer walk.

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenario.h"
#include "fed/federation.h"
#include "sim/elasticity.h"
#include "util/json.h"
#include "workload/arrival.h"

namespace hcs::exp {

/// Schema violations (unknown key, bad type, out-of-range value); the
/// message carries "line N:" context from the scenario file.
class ScenarioError : public std::runtime_error {
 public:
  explicit ScenarioError(const std::string& message)
      : std::runtime_error(message) {}
};

/// One fully-described experiment.  Each engine setting lives in the
/// engine struct that consumes it (`pet`, `experiment`, `federation`), so
/// its default is written once, there; an empty scenario object `{}` is the
/// canonical paper setup: MM, heterogeneous cluster, 15k spiky, full
/// pruning.  The fields declared here are the ones no engine struct holds.
struct ScenarioSpec {
  std::string name;
  std::string description;

  /// The `pet` block, plus `run.scale`.
  PaperScenario::Options pet;

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
  /// Bursty IPPP intensity, relative to the bound cluster's capacity
  /// (tasks/time-unit it can serve): lambda(t) = base + peak * Gaussian
  /// burst train.  Spans/periods/widths are absolute time units and are
  /// NOT scaled by run.scale.
  double burstBaseFactor = 0.9;
  double burstPeakFactor = 7.0;
  double burstWidth = 4.0;
  double burstPeriod = 80.0;
  double burstSpan = 400.0;

  /// `workload.spikes/spike_factor/gap_variance_fraction/values` (in
  /// `arrival`), `workload.deadline`, the `stream` block, the `sim` block
  /// (with its `faults` and `elasticity` blocks, which live in the
  /// SimulationConfig) and `run.trials/jobs/seed`.  The binder fills in the
  /// rest of the arrival spec and the warm-up margin, and replaces the
  /// elasticity block with its resolved form.
  ExperimentSpec experiment;

  // --- federation ---
  /// When enabled, the experiment runs through the federated dispatch
  /// engine (src/fed/) with the shape in `federation` (the `clusters`,
  /// `routing`, `dispatch_latency` keys and the `admission` block).  A
  /// federation of 1 cluster with zero latency is the plain engine.
  bool federationEnabled = false;
  fed::FederationSpec federation;
  /// Per-cluster machine shapes (capacity/heterogeneity skew): entry c is
  /// cluster c's machine → PET-machine-type map, like cluster.machine_types
  /// but per federation cluster.  Empty = every cluster mirrors the base
  /// cluster's shape.  When set, must have exactly `clusters` entries.
  std::vector<std::vector<int>> fedClusterShapes;

  // --- elasticity ---
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
  /// Warm-up trim margin; -1 = auto (the paper's 100-of-15000 ratio for
  /// rate-based patterns, 0 for bursty).
  long warmup = -1;
};

/// Parses a scenario object.  Throws ScenarioError on unknown keys,
/// ill-typed values, or out-of-range values, naming the source line.
/// (The "sweep" and "report" keys belong to the document level — see
/// sweep.h — and are rejected here.)
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

/// Key over what determines PaperScenario construction: the canonical
/// `pet` block plus run.scale.  Equal keys may share one PaperScenario
/// across bindScenario calls.
std::string scenarioModelKey(const ScenarioSpec& spec);

/// Binds `spec` to models and an ExperimentSpec.  Pass a `paper` previously
/// obtained from a spec with the same scenarioModelKey() to skip the PET
/// re-synthesis; pass nullptr to build fresh.
BoundScenario bindScenario(const ScenarioSpec& spec,
                           std::shared_ptr<const PaperScenario> paper = {});

}  // namespace hcs::exp
