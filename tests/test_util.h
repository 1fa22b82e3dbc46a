#pragma once
// Shared helpers for the hcs test suites.

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include "prob/pmf.h"
#include "sim/types.h"

namespace hcs::testutil {

/// PaperScenario scale of the scale-labelled suites: HCS_SCALE when set
/// (the sanitizer and coverage CI legs shrink it), never above 0.03.
inline double testScale() {
  if (const char* env = std::getenv("HCS_SCALE")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return std::min(s, 0.03);
  }
  return 0.03;
}

/// Hand-built execution model: pet[type][machine].
class FakeModel final : public sim::ExecutionModel {
 public:
  explicit FakeModel(std::vector<std::vector<prob::DiscretePmf>> pets)
      : pets_(std::move(pets)) {
    if (pets_.empty() || pets_.front().empty()) {
      throw std::invalid_argument("FakeModel: empty matrix");
    }
    for (const auto& row : pets_) {
      if (row.size() != pets_.front().size()) {
        throw std::invalid_argument("FakeModel: ragged matrix");
      }
      std::vector<double> means;
      means.reserve(row.size());
      for (const auto& pmf : row) means.push_back(pmf.mean());
      means_.push_back(std::move(means));
    }
  }

  /// Deterministic model: every (type, machine) pair executes in exactly
  /// `exec[type][machine]` time units.
  static FakeModel deterministic(
      const std::vector<std::vector<double>>& exec) {
    std::vector<std::vector<prob::DiscretePmf>> pets;
    pets.reserve(exec.size());
    for (const auto& row : exec) {
      std::vector<prob::DiscretePmf> petsRow;
      petsRow.reserve(row.size());
      for (double e : row) petsRow.push_back(prob::DiscretePmf::pointMass(e));
      pets.push_back(std::move(petsRow));
    }
    return FakeModel(std::move(pets));
  }

  int numMachines() const override {
    return static_cast<int>(pets_.front().size());
  }
  int numTaskTypes() const override { return static_cast<int>(pets_.size()); }

  const prob::DiscretePmf& pet(sim::TaskType type,
                               sim::MachineId machine) const override {
    return pets_[static_cast<std::size_t>(type)]
                [static_cast<std::size_t>(machine)];
  }

  double expectedExec(sim::TaskType type,
                      sim::MachineId machine) const override {
    return means_[static_cast<std::size_t>(type)]
                 [static_cast<std::size_t>(machine)];
  }

 private:
  std::vector<std::vector<prob::DiscretePmf>> pets_;
  std::vector<std::vector<double>> means_;
};

}  // namespace hcs::testutil
