#include "exp/scenario.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace hcs::exp {

namespace {

/// Effective mean service time of the cluster: halfway between "every task
/// runs on its best machine" and "tasks land on average machines" —
/// mapping heuristics under load sit between those extremes.
double effectiveMeanService(const workload::PetMatrix& pet) {
  double acc = 0.0;
  for (int t = 0; t < pet.numTaskTypes(); ++t) {
    double best = pet.expectedExec(t, 0);
    double avg = 0.0;
    for (int j = 0; j < pet.numMachineTypes(); ++j) {
      best = std::min(best, pet.expectedExec(t, j));
      avg += pet.expectedExec(t, j);
    }
    avg /= static_cast<double>(pet.numMachineTypes());
    acc += 0.5 * (best + avg);
  }
  return acc / static_cast<double>(pet.numTaskTypes());
}

/// Machine type with the median column-mean execution time — the
/// "representative" machine used for the homogeneous cluster.
int medianMachineType(const workload::PetMatrix& pet) {
  std::vector<std::pair<double, int>> columns;
  for (int j = 0; j < pet.numMachineTypes(); ++j) {
    double avg = 0.0;
    for (int t = 0; t < pet.numTaskTypes(); ++t) {
      avg += pet.expectedExec(t, j);
    }
    columns.emplace_back(avg, j);
  }
  std::sort(columns.begin(), columns.end());
  return columns[columns.size() / 2].second;
}

}  // namespace

PaperScenario::PaperScenario(const Options& options)
    : options_(options),
      pet_(std::make_shared<const workload::PetMatrix>(
          workload::PetMatrix::specLike(options.synthesis, options.petSeed))),
      homoPet_(std::make_shared<const workload::PetMatrix>(
          pet_->homogenized(medianMachineType(*pet_)))),
      hetero_(workload::BoundExecutionModel::heterogeneous(pet_)) {
  if (options.scale <= 0.0) {
    throw std::invalid_argument("PaperScenario: scale must be positive");
  }
  if (options.targetRhoAt15k <= 0.0) {
    throw std::invalid_argument("PaperScenario: target rho must be positive");
  }
  homo_ = std::make_unique<workload::BoundExecutionModel>(
      workload::BoundExecutionModel::homogeneous(
          homoPet_, pet_->numMachineTypes(), medianMachineType(*pet_)));
  // Self-calibrate the span: the 15k-equivalent workload should offer
  // targetRhoAt15k times the cluster's capacity.
  const double service = effectiveMeanService(*pet_);
  const double tasks15k =
      static_cast<double>(kRate15k) * options_.scale;
  span_ = tasks15k * service /
          (static_cast<double>(pet_->numMachineTypes()) *
           options_.targetRhoAt15k);
}

std::size_t PaperScenario::scaledTasks(std::size_t paperRate) const {
  return static_cast<std::size_t>(std::llround(
      static_cast<double>(paperRate) * options_.scale));
}

std::size_t PaperScenario::warmupMargin(std::size_t paperRate) const {
  // Paper trims 100 of 15000; keep the ratio, with a floor.
  const auto margin = static_cast<std::size_t>(
      std::llround(static_cast<double>(scaledTasks(paperRate)) * 100.0 /
                   15000.0));
  return std::max<std::size_t>(margin, 10);
}

workload::ArrivalSpec PaperScenario::arrivalSpec(
    std::size_t paperRate, workload::ArrivalPattern pattern) const {
  workload::ArrivalSpec spec;
  spec.pattern = pattern;
  spec.span = span_;
  spec.totalTasks = scaledTasks(paperRate);
  spec.numTaskTypes = pet_->numTaskTypes();
  return spec;
}

ExperimentSpec PaperScenario::experimentSpec(
    std::size_t paperRate, workload::ArrivalPattern pattern) const {
  ExperimentSpec spec;
  spec.arrival = arrivalSpec(paperRate, pattern);
  spec.sim.warmupMargin = warmupMargin(paperRate);
  return spec;
}

}  // namespace hcs::exp
