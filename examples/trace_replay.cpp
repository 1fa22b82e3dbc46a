// Reproducible workload trials: generate, persist, reload, replay.
//
// The paper published its workload trials "for reproducing purposes"
// (§V-B).  This example shows the library's equivalent: a trial saved to a
// plain-text trace replays bit-for-bit, so experiments can be shared and
// re-run across machines and versions.  Exits non-zero if the replay
// differs from the original run.

#include <unistd.h>  // mkstemp, close

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "core/simulation.h"
#include "workload/pet_matrix.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

int main() {
  using namespace hcs;

  const auto pet = std::make_shared<const workload::PetMatrix>(
      workload::PetMatrix::specLike(2019));
  const auto cluster = workload::BoundExecutionModel::heterogeneous(pet);

  workload::ArrivalSpec arrival;
  arrival.span = 600.0;
  arrival.totalTasks = 1200;
  arrival.numTaskTypes = pet->numTaskTypes();
  const workload::Workload original =
      workload::Workload::generate(*pet, arrival, {}, /*seed=*/17);

  // A fresh file per run, so concurrent runs never share one.
  std::string path =
      (std::filesystem::temp_directory_path() / "hcs_trial_017_XXXXXX")
          .string();
  const int fd = mkstemp(path.data());
  if (fd < 0) {
    std::perror("mkstemp");
    return 1;
  }
  close(fd);
  workload::saveWorkloadFile(original, path);
  std::printf("saved trial: %zu tasks -> %s\n", original.size(), path.c_str());

  const workload::Workload replayed = workload::loadWorkloadFile(path);
  std::filesystem::remove(path);
  std::printf("loaded trial: %zu tasks\n\n", replayed.size());

  core::SimulationConfig config;
  config.heuristic = "MSD";
  config.warmupMargin = 50;
  const core::TrialResult a = core::Simulation(cluster, original, config).run();
  const core::TrialResult b = core::Simulation(cluster, replayed, config).run();

  std::printf("robustness from generated trial: %.4f%%\n", a.robustnessPercent);
  std::printf("robustness from replayed trial:  %.4f%%\n", b.robustnessPercent);
  const bool identical =
      a.robustnessPercent == b.robustnessPercent &&
      a.metrics.completedOnTime() == b.metrics.completedOnTime();
  std::printf("identical: %s\n", identical ? "yes" : "NO — replay broke!");
  return identical ? 0 : 1;
}
