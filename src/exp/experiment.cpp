#include "exp/experiment.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/parallel.h"

namespace hcs::exp {

std::uint64_t executionSeedFor(std::uint64_t workloadSeed) {
  // Independent execution randomness per trial, decoupled from the
  // workload stream.
  return workloadSeed * 0x9e3779b97f4a7c15ULL + 1;
}

std::uint64_t faultSeedFor(std::uint64_t workloadSeed) {
  // A full splitmix64 scramble (distinct increment from the execution
  // stream's golden-ratio step) keeps the fault stream well-separated from
  // both the workload and execution streams of the same trial.
  std::uint64_t z = workloadSeed + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t elasticitySeedFor(std::uint64_t workloadSeed) {
  // Same splitmix64 scramble shape as the fault stream, with its own
  // increment, so the controller's reserved stream is independent of the
  // workload, execution, and fault streams of the same trial.
  std::uint64_t z = workloadSeed + 0x7f4a7c159e3779b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TrialRunner::TrialRunner(const workload::BoundExecutionModel& model,
                         const ExperimentSpec& spec)
    : TrialRunner({&model}, spec, fed::FederationSpec{}) {}

TrialRunner::TrialRunner(
    const std::vector<const workload::BoundExecutionModel*>& models,
    const ExperimentSpec& spec, fed::FederationSpec fed)
    : models_(models.begin(), models.end()),
      pet_(models.empty() ? nullptr : &models.front()->matrix()),
      spec_(&spec),
      fed_(std::move(fed)) {
  if (models.empty() || models.size() != fed_.clusters) {
    throw std::invalid_argument(
        "runExperiment: one model per cluster required");
  }
}

core::TrialResult TrialRunner::runTrial(std::size_t trial) const {
  const std::uint64_t workloadSeed = spec_->baseSeed + trial;

  core::SimulationConfig simConfig = spec_->sim;
  simConfig.executionSeed = executionSeedFor(workloadSeed);
  simConfig.faultSeed = faultSeedFor(workloadSeed);
  simConfig.elasticitySeed = elasticitySeedFor(workloadSeed);

  if (spec_->stream.enabled) {
    // Bounded-memory path: the trial pulls tasks as it reaches them —
    // generated (identical to the materialized trial below) or replayed
    // from an external trace — and never holds more than the in-flight
    // window.
    const std::unique_ptr<workload::TaskStream> stream =
        workload::openTaskStream(spec_->stream, *pet_, spec_->arrival,
                                 spec_->deadline, workloadSeed);
    return fed::FederatedSimulation(models_, *stream, simConfig, fed_)
        .run()
        .total;
  }

  const workload::Workload wl = workload::Workload::generate(
      *pet_, spec_->arrival, spec_->deadline, workloadSeed);
  return fed::FederatedSimulation(models_, wl, simConfig, fed_).run().total;
}

namespace {

/// A per-trial total read off the trial's metrics.
template <auto Get>
std::optional<double> total(const core::TrialResult& tr) {
  return static_cast<double>((tr.metrics.*Get)());
}

/// `Count` per counted task, times `Scale`; a trial that counted no task
/// is not recorded.
template <auto Count, int Scale>
std::optional<double> perCounted(const core::TrialResult& tr) {
  const double counted = static_cast<double>(tr.metrics.countedTasks());
  if (counted == 0) return std::nullopt;
  return Scale * static_cast<double>((tr.metrics.*Count)()) / counted;
}

std::optional<double> robustness(const core::TrialResult& tr) {
  return tr.robustnessPercent;
}

/// Busy time / makespan, averaged over the machines.
std::optional<double> meanMachineUtilization(const core::TrialResult& tr) {
  double utilization = 0.0;
  for (double u : tr.machineUtilization) utilization += u;
  if (!tr.machineUtilization.empty()) {
    utilization /= static_cast<double>(tr.machineUtilization.size());
  }
  return utilization;
}

/// Busy time spent on tasks that missed their deadline, as a % of all
/// busy time: with one busy power for every machine, the share of busy
/// energy wasted on failing tasks (§VII).
std::optional<double> wastedBusyPercent(const core::TrialResult& tr) {
  const double wasted = tr.metrics.wastedBusyTime();
  const double busy = tr.metrics.usefulBusyTime() + wasted;
  return busy > 0 ? 100.0 * wasted / busy : 0.0;
}

/// Online machine-seconds per on-time task: the rental cost of one
/// on-time completion at one cost unit per machine-second (§VII).
std::optional<double> costPerOnTime(const core::TrialResult& tr) {
  const auto onTime = static_cast<double>(tr.metrics.completedOnTime());
  if (onTime == 0) return std::nullopt;
  return tr.metrics.onlineMachineSeconds() / onTime;
}

/// Max minus min per-type on-time %, over the types that have a task: how
/// unevenly the task types are served (§IV-D's fairness concern).
std::optional<double> typeSpread(const core::TrialResult& tr) {
  double lo = 101.0, hi = -1.0;
  for (const sim::TypeOutcomes& type : tr.metrics.perType()) {
    if (type.total() == 0) continue;
    const double rate = 100.0 * static_cast<double>(type.completedOnTime) /
                        static_cast<double>(type.total());
    lo = std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  if (hi < lo) return std::nullopt;
  return hi - lo;
}

std::optional<double> weightedRobustness(const core::TrialResult& tr) {
  return tr.metrics.weightedRobustnessPercent();
}

using M = sim::Metrics;

constexpr ReportMetric kReportMetrics[] = {
    {"robustness_pct", "robustness (% on time)", "robustness %", 1,
     robustness},
    {"completed_late_pct", "completed late %", "late %", 1,
     perCounted<&M::completedLate, 100>},
    {"dropped_reactive_pct", "dropped reactive %", "dropped reactive %", 1,
     perCounted<&M::droppedReactive, 100>},
    {"dropped_proactive_pct", "dropped proactive %", "dropped proactive %",
     1, perCounted<&M::droppedProactive, 100>},
    {"deferrals_per_task", "deferrals per task", "deferrals/task", 2,
     perCounted<&M::deferrals, 1>},
    {"mean_utilization", "mean machine utilization", "utilization", 2,
     meanMachineUtilization},
    // Robustness under churn (all zero for fault-free runs).
    {"abandoned_pct", "abandoned %", "", 1, perCounted<&M::abandoned, 100>},
    {"rejected_pct", "rejected %", "", 1, perCounted<&M::rejected, 100>},
    {"retries_per_task", "retries per task", "", 2,
     perCounted<&M::retries, 1>},
    {"failed_then_met_pct", "failed-then-met %", "", 1,
     perCounted<&M::failedThenMet, 100>},
    {"machine_failures", "machine failures per trial", "", 2,
     total<&M::machineFailures>},
    // Capacity cost: the elastic knobs move these, fixed capacity reports
    // the flat baseline.
    {"utilization_pct", "utilization % (of online)", "", 1,
     total<&M::utilizationPercent>},
    {"machine_seconds", "machine-seconds (online)", "", 1,
     total<&M::onlineMachineSeconds>},
    {"scale_ups", "scale-ups per trial", "", 2, total<&M::scaleUps>},
    {"scale_downs", "scale-downs per trial", "", 2, total<&M::scaleDowns>},
    // Opt-in rows: a scenario names them in `report.metrics`.
    {"wasted_busy_pct", "wasted busy time %", "wasted busy %", 1,
     wastedBusyPercent, true},
    {"cost_per_on_time", "machine-seconds per on-time task", "cost/on-time",
     2, costPerOnTime, true},
    {"type_spread_pp", "per-type on-time spread (pp)", "type spread (pp)", 1,
     typeSpread, true},
    {"weighted_robustness_pct", "value-weighted robustness %",
     "weighted robustness %", 1, weightedRobustness, true},
};

/// Folds per-trial outcomes — already in trial order, so the aggregates
/// are bit-identical to a serial run no matter how many jobs executed.
ExperimentResult aggregateTrialResults(
    const std::vector<core::TrialResult>& outcomes) {
  ExperimentResult result;
  result.metricStats.resize(std::size(kReportMetrics));
  for (const core::TrialResult& tr : outcomes) {
    result.perTrialRobustness.push_back(tr.robustnessPercent);
    for (std::size_t i = 0; i < std::size(kReportMetrics); ++i) {
      if (const std::optional<double> v = kReportMetrics[i].perTrial(tr)) {
        result.metricStats[i].add(*v);
      }
    }
  }
  result.robustnessCi =
      stats::meanConfidenceInterval(result.metricStats.front());
  return result;
}

}  // namespace

std::span<const ReportMetric> reportMetrics() { return kReportMetrics; }

const stats::RunningStats& ExperimentResult::metric(
    std::string_view key) const {
  for (std::size_t i = 0; i < std::size(kReportMetrics); ++i) {
    if (kReportMetrics[i].key == key) return metricStats.at(i);
  }
  throw std::out_of_range("ExperimentResult: no metric " + std::string(key));
}

stats::ConfidenceInterval ExperimentResult::ci(std::string_view key) const {
  return stats::meanConfidenceInterval(metric(key));
}

ExperimentResult runExperiment(const workload::BoundExecutionModel& model,
                               const ExperimentSpec& spec) {
  return runExperiment({&model}, spec, fed::FederationSpec{});
}

ExperimentResult runExperiment(
    const std::vector<const workload::BoundExecutionModel*>& models,
    const ExperimentSpec& spec, const fed::FederationSpec& fed) {
  if (spec.trials == 0) {
    throw std::invalid_argument("runExperiment: need at least one trial");
  }
  const TrialRunner runner(models, spec, fed);

  // Execute trials on the pool (each owns all of its mutable state)…
  std::vector<core::TrialResult> outcomes(spec.trials);
  ParallelExecutor(spec.jobs).run(
      spec.trials,
      [&](std::size_t trial) { outcomes[trial] = runner.runTrial(trial); });

  return aggregateTrialResults(outcomes);
}

}  // namespace hcs::exp
