#pragma once
// Multi-trial experiments: the paper's methodology of §V-A — "30 workload
// trials were performed using different task arrival times built from the
// same arrival rate and pattern. In each case, the mean and 95% confidence
// interval of the results are reported."

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "fed/federation.h"
#include "stats/confidence.h"
#include "stats/running_stats.h"
#include "workload/pet_matrix.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::exp {

struct ExperimentSpec {
  workload::ArrivalSpec arrival;
  workload::DeadlineSpec deadline;
  core::SimulationConfig sim;
  /// Streamed-arrival mode (the scenario `stream` block): when enabled,
  /// each trial pulls its tasks from a TaskStream — generated on the fly
  /// from `arrival`/`deadline` with the trial's workload seed (identical
  /// results, bounded memory) or replayed from an external trace — instead
  /// of materializing a Workload up front.
  workload::StreamSpec stream;
  std::size_t trials = 8;
  /// Trial t uses workload seed baseSeed + t (and a derived execution
  /// seed), so different specs with the same baseSeed see the *same*
  /// workload trials — the paper's paired-comparison setup.
  std::uint64_t baseSeed = 2019;
  /// Worker threads for trial execution: 1 = serial (default), 0 = one per
  /// hardware thread, N = at most N, and never more than one per hardware
  /// thread.  Trials are independent and results are merged in trial
  /// order, so every value produces bit-identical aggregates.
  std::size_t jobs = 1;
};

/// One reported outcome of an experiment: how a trial yields it and how
/// every report (tables, JSON, CSV) names and prints its mean ±95% CI.
struct ReportMetric {
  std::string_view key;     ///< JSON / flat-CSV key
  std::string_view label;   ///< row of the experiment table
  std::string_view column;  ///< column of the one-axis sweep table, or ""
  int precision;            ///< decimals in the tables
  /// The trial's value; nullopt leaves the trial out of this metric.
  std::optional<double> (*perTrial)(const core::TrialResult&);
};

/// Every reported metric, in report order; robustness comes first.
std::span<const ReportMetric> reportMetrics();

struct ExperimentResult {
  /// One accumulator per reportMetrics() row, in the same order.
  std::vector<stats::RunningStats> metricStats;
  stats::ConfidenceInterval robustnessCi;
  std::vector<double> perTrialRobustness;

  /// The accumulator of the metric `key`; throws std::out_of_range for a
  /// key reportMetrics() does not name.
  const stats::RunningStats& metric(std::string_view key) const;
  /// Its mean and 95% CI.
  stats::ConfidenceInterval ci(std::string_view key) const;
};

/// Executes the independent trials of one experiment through a federation
/// of one or more clusters.  Each trial generates its own workload (seeded
/// from the spec) and owns every piece of mutable simulation state, so any
/// number of trials may run concurrently against the shared immutable
/// models.
class TrialRunner {
 public:
  /// Single-cluster runner; `model` and `spec` must outlive the runner.
  TrialRunner(const workload::BoundExecutionModel& model,
              const ExperimentSpec& spec);

  /// One model per cluster (models.size() == fed.clusters), all sharing
  /// one PET matrix; models[0]'s drives deadline assignment.  `models`
  /// and `spec` must outlive the runner.
  TrialRunner(const std::vector<const workload::BoundExecutionModel*>& models,
              const ExperimentSpec& spec, fed::FederationSpec fed);

  std::size_t trials() const { return spec_->trials; }

  /// Runs trial `trial` (0-based) to completion.  Deterministic in
  /// (models, spec, federation, trial) — thread-safe by construction.
  core::TrialResult runTrial(std::size_t trial) const;

 private:
  std::vector<const sim::ExecutionModel*> models_;
  const workload::PetMatrix* pet_;
  const ExperimentSpec* spec_;
  fed::FederationSpec fed_;
};

/// Runs `spec.trials` independent workload trials against the given cluster
/// model — on `spec.jobs` threads — and aggregates the outcomes in trial
/// order (bit-identical for any job count).  The PET matrix behind `model`
/// is also used for deadline assignment (Eq. 4 needs avg_i / avg_all).
ExperimentResult runExperiment(const workload::BoundExecutionModel& model,
                               const ExperimentSpec& spec);

/// The same through a federation of `models.size()` (== fed.clusters)
/// clusters.  Workloads and seeds are derived per trial exactly as above,
/// so federated sweep points stay paired with single-cluster ones.
ExperimentResult runExperiment(
    const std::vector<const workload::BoundExecutionModel*>& models,
    const ExperimentSpec& spec, const fed::FederationSpec& fed);

/// The per-trial execution seed derived from a workload seed; exposed so
/// callers driving trials by hand derive the identical stream.
std::uint64_t executionSeedFor(std::uint64_t workloadSeed);

/// The per-trial FAULT-stream seed derived from the same workload seed but
/// through a different mix, so the fault stream is independent of both the
/// workload and execution streams.  Because workload and execution draws
/// never touch it, a fault-enabled sweep point sees the exact same arrivals
/// and execution samples as its fault-free twin — the seed-pairing contract
/// the robustness sweeps rely on.
std::uint64_t faultSeedFor(std::uint64_t workloadSeed);

/// The per-trial ELASTICITY-stream seed, again from the same workload seed
/// through its own mix.  The controller's reserved RNG draws nothing in the
/// shipped (deterministic) policies, but the stream exists and is derived
/// here so a future stochastic policy cannot be tempted to tap the
/// execution or fault streams and break seed pairing.
std::uint64_t elasticitySeedFor(std::uint64_t workloadSeed);

}  // namespace hcs::exp
