#pragma once
// The canonical experimental setup of Section V, shared by every scenario
// (bindScenario builds one) and the integration tests.
//
// The paper runs a fixed 12-type x 8-machine PET matrix ("The PET matrix
// remains constant across all of our experiments") and workloads of
// 15k/20k/25k tasks over a fixed time span.  PaperScenario reproduces that
// setup, with a scale knob: scale 1.0 is paper size, scale 0.1 (the default)
// keeps the arrival *intensity* — and therefore the oversubscription ratio —
// identical while shrinking task counts and span tenfold.  The span is
// self-calibrated from the synthesized PET matrix so the 15k-equivalent
// point lands at the target oversubscription ratio.

#include <cstdint>
#include <memory>
#include <string>

#include "exp/experiment.h"
#include "workload/pet_matrix.h"

namespace hcs::exp {

class PaperScenario {
 public:
  /// Oversubscription levels used throughout Section V.
  static constexpr std::size_t kRate15k = 15000;
  static constexpr std::size_t kRate20k = 20000;
  static constexpr std::size_t kRate25k = 25000;

  struct Options {
    std::uint64_t petSeed = 2019;
    double scale = 0.1;
    /// Oversubscription ratio (offered load / cluster capacity) that the
    /// 15k-equivalent workload should hit; higher rates scale from it.
    double targetRhoAt15k = 1.25;
    workload::PetSynthesisConfig synthesis;
  };

  explicit PaperScenario(const Options& options);
  PaperScenario() : PaperScenario(Options{}) {}

  const Options& options() const { return options_; }
  std::shared_ptr<const workload::PetMatrix> pet() const { return pet_; }

  /// Heterogeneous cluster: one machine per machine type (the paper's 8).
  const workload::BoundExecutionModel& hetero() const { return hetero_; }

  /// Homogeneous cluster: same machine count, all of one (median-speed)
  /// machine type, PET rows homogenized accordingly (§V-F).
  const workload::BoundExecutionModel& homo() const { return *homo_; }

  /// Workload time span (time units) after scaling / self-calibration.
  double span() const { return span_; }

  /// Arrival spec for a paper-equivalent rate ("15k", "20k", "25k" tasks)
  /// and pattern, at this scenario's scale.
  workload::ArrivalSpec arrivalSpec(std::size_t paperRate,
                                    workload::ArrivalPattern pattern) const;

  /// Experiment spec preconfigured with this scenario's arrival setup and
  /// warm-up margin; trials, jobs and seed keep the ExperimentSpec
  /// defaults, and callers fill in spec.sim.
  ExperimentSpec experimentSpec(std::size_t paperRate,
                                workload::ArrivalPattern pattern) const;

  /// Tasks in a trial at `paperRate`, after scaling.
  std::size_t scaledTasks(std::size_t paperRate) const;

  /// Warm-up trim margin, scaled with the workload (paper: 100 of 15000).
  std::size_t warmupMargin(std::size_t paperRate) const;

 private:
  Options options_;
  std::shared_ptr<const workload::PetMatrix> pet_;
  std::shared_ptr<const workload::PetMatrix> homoPet_;
  workload::BoundExecutionModel hetero_;
  std::unique_ptr<workload::BoundExecutionModel> homo_;
  double span_ = 0;
};

}  // namespace hcs::exp
