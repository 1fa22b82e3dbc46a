// Tests for the parallel experiment engine: the executor itself, and the
// determinism guarantee that any job count produces identical experiment
// results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exp/experiment.h"
#include "exp/parallel.h"
#include "exp/scenario.h"

namespace {

using namespace hcs;

// --- Spawn-failure machinery -------------------------------------------------

std::thread spawnAlwaysFails(const std::function<void()>&) {
  throw std::runtime_error("spawn refused");
}

int g_spawnBudget = 0;
std::thread spawnWithBudget(const std::function<void()>& fn) {
  if (g_spawnBudget <= 0) throw std::runtime_error("spawn refused");
  --g_spawnBudget;
  return std::thread(fn);
}

/// One per hardware thread, at least 1: the executor's thread cap.
std::size_t hardwareCap() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Spawns real workers until the spawn count reaches the cap, then refuses:
/// only an executor that asks for more than cap - 1 workers sees a refusal,
/// and no more than cap - 1 threads ever start.
std::size_t g_spawnCalls = 0;
std::thread spawnUpToTheCap(const std::function<void()>& fn) {
  if (++g_spawnCalls >= hardwareCap()) {
    throw std::runtime_error("spawn past one thread per hardware thread");
  }
  return std::thread(fn);
}

/// Restores the real std::thread path no matter how the test exits.
struct SpawnHookGuard {
  explicit SpawnHookGuard(std::thread (*hook)(const std::function<void()>&)) {
    exp::ParallelExecutor::setSpawnHookForTesting(hook);
  }
  ~SpawnHookGuard() { exp::ParallelExecutor::setSpawnHookForTesting(nullptr); }
};

// --- ParallelExecutor --------------------------------------------------------

TEST(ParallelExecutorTest, RunsEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{3}, std::size_t{16},
                           std::size_t{0}}) {
    std::vector<std::atomic<int>> counts(37);
    exp::ParallelExecutor(jobs).run(
        counts.size(), [&](std::size_t i) { ++counts[i]; });
    for (std::size_t i = 0; i < counts.size(); ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "jobs=" << jobs << " index " << i;
    }
  }
}

TEST(ParallelExecutorTest, ZeroTasksIsANoOp) {
  exp::ParallelExecutor(4).run(0, [](std::size_t) { FAIL(); });
}

TEST(ParallelExecutorTest, ResolveJobs) {
  EXPECT_EQ(exp::resolveJobs(1), 1u);
  EXPECT_EQ(exp::resolveJobs(7), 7u);
  EXPECT_GE(exp::resolveJobs(0), 1u);  // auto: at least one
}

TEST(ParallelExecutorTest, RethrowsLowestIndexException) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    try {
      exp::ParallelExecutor(jobs).run(8, [](std::size_t i) {
        if (i == 2 || i == 5) {
          throw std::runtime_error("boom " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      // jobs=1 runs in order so index 2 throws first; with more jobs the
      // lowest-index exception wins deterministically.
      EXPECT_STREQ(e.what(), "boom 2") << "jobs=" << jobs;
    }
  }
}

// --- Degraded path: worker threads fail to spawn -----------------------------

TEST(ParallelExecutorTest, DegradesToCallingThreadWhenNoWorkerSpawns) {
  const SpawnHookGuard guard(&spawnAlwaysFails);
  std::vector<std::atomic<int>> counts(23);
  exp::ParallelExecutor(8).run(counts.size(),
                               [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelExecutorTest, DegradesWithPartialWorkerComplement) {
  const SpawnHookGuard guard(&spawnWithBudget);
  g_spawnBudget = 1;  // one worker spawns, the rest hit the resource limit
  std::vector<std::atomic<int>> counts(41);
  exp::ParallelExecutor(8).run(counts.size(),
                               [&](std::size_t i) { ++counts[i]; });
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelExecutorTest, CapsWorkersAtOnePerHardwareThread) {
  // run.jobs has no upper bound; a job count far past the hardware must
  // not turn into as many threads.
  const SpawnHookGuard guard(&spawnUpToTheCap);
  g_spawnCalls = 0;
  std::vector<std::atomic<int>> counts(1024);
  exp::ParallelExecutor(1024).run(counts.size(),
                                  [&](std::size_t i) { ++counts[i]; });
  EXPECT_LE(g_spawnCalls, hardwareCap() - 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelExecutorTest, DegradedRunStillRethrowsLowestIndexException) {
  const SpawnHookGuard guard(&spawnAlwaysFails);
  try {
    exp::ParallelExecutor(4).run(8, [](std::size_t i) {
      if (i == 2 || i == 5) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 2");
  }
}

TEST(ParallelExperimentTest, SpawnFailureKeepsResultsIdenticalToSerial) {
  exp::PaperScenario::Options options;
  options.scale = 0.02;
  const exp::PaperScenario scenario(options);

  exp::ExperimentSpec spec = scenario.experimentSpec(
      exp::PaperScenario::kRate20k, workload::ArrivalPattern::Spiky);
  spec.trials = 5;
  spec.sim.heuristic = "MM";

  spec.jobs = 1;
  const exp::ExperimentResult serial =
      exp::runExperiment(scenario.hetero(), spec);

  const SpawnHookGuard guard(&spawnAlwaysFails);
  spec.jobs = 4;  // requests 3 workers; all spawns fail, caller drains
  const exp::ExperimentResult degraded =
      exp::runExperiment(scenario.hetero(), spec);

  ASSERT_EQ(serial.perTrialRobustness.size(),
            degraded.perTrialRobustness.size());
  for (std::size_t i = 0; i < serial.perTrialRobustness.size(); ++i) {
    EXPECT_EQ(serial.perTrialRobustness[i], degraded.perTrialRobustness[i]);
  }
  EXPECT_EQ(serial.robustnessCi.mean, degraded.robustnessCi.mean);
  EXPECT_EQ(serial.robustnessCi.halfWidth, degraded.robustnessCi.halfWidth);
  for (const char* key :
       {"mean_utilization", "machine_seconds", "utilization_pct"}) {
    EXPECT_EQ(serial.metric(key).mean(), degraded.metric(key).mean()) << key;
  }
}

// --- Experiment determinism --------------------------------------------------

TEST(ParallelExperimentTest, JobCountDoesNotChangeResults) {
  exp::PaperScenario::Options options;
  options.scale = 0.02;
  const exp::PaperScenario scenario(options);

  exp::ExperimentSpec spec = scenario.experimentSpec(
      exp::PaperScenario::kRate20k, workload::ArrivalPattern::Spiky);
  spec.trials = 5;
  spec.sim.heuristic = "MM";

  spec.jobs = 1;
  const exp::ExperimentResult serial =
      exp::runExperiment(scenario.hetero(), spec);
  spec.jobs = 4;
  const exp::ExperimentResult parallel =
      exp::runExperiment(scenario.hetero(), spec);

  ASSERT_EQ(serial.perTrialRobustness.size(),
            parallel.perTrialRobustness.size());
  for (std::size_t i = 0; i < serial.perTrialRobustness.size(); ++i) {
    EXPECT_EQ(serial.perTrialRobustness[i], parallel.perTrialRobustness[i]);
  }
  // Aggregates fold in trial order, so they are bit-identical too.
  EXPECT_EQ(serial.robustnessCi.mean, parallel.robustnessCi.mean);
  EXPECT_EQ(serial.robustnessCi.halfWidth, parallel.robustnessCi.halfWidth);
  for (const exp::ReportMetric& metric : exp::reportMetrics()) {
    EXPECT_EQ(serial.metric(metric.key).mean(),
              parallel.metric(metric.key).mean())
        << metric.key;
  }
}

TEST(ParallelExperimentTest, TrialRunnerMatchesExperimentTrials) {
  exp::PaperScenario::Options options;
  options.scale = 0.02;
  const exp::PaperScenario scenario(options);

  exp::ExperimentSpec spec = scenario.experimentSpec(
      exp::PaperScenario::kRate20k, workload::ArrivalPattern::Spiky);
  spec.trials = 3;
  spec.sim.heuristic = "MSD";

  const exp::ExperimentResult result =
      exp::runExperiment(scenario.hetero(), spec);
  const exp::TrialRunner runner(scenario.hetero(), spec);
  ASSERT_EQ(runner.trials(), 3u);
  for (std::size_t t = 0; t < spec.trials; ++t) {
    EXPECT_EQ(runner.runTrial(t).robustnessPercent,
              result.perTrialRobustness[t]);
  }
}

}  // namespace
