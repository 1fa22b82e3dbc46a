// End-to-end tests for the resource-allocation core: the Scheduler's
// Fig. 5 procedure and the Simulation trial runner.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/simulation.h"
#include "fed/federation.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/pet_matrix.h"
#include "workload/workload.h"

namespace {

using hcs::core::AllocationMode;
using hcs::core::Simulation;
using hcs::core::SimulationConfig;
using hcs::core::TrialResult;
using hcs::pruning::PruningConfig;
using hcs::pruning::ToggleMode;
using hcs::sim::TaskStatus;
using hcs::testutil::FakeModel;
using hcs::workload::TaskSpec;
using hcs::workload::Workload;

SimulationConfig baseline(const std::string& heuristic) {
  SimulationConfig config;
  config.heuristic = heuristic;
  config.pruning = PruningConfig::disabled();
  config.warmupMargin = 0;
  return config;
}

SimulationConfig pruned(const std::string& heuristic) {
  SimulationConfig config;
  config.heuristic = heuristic;
  config.warmupMargin = 0;
  return config;
}

Workload workloadOf(std::vector<TaskSpec> tasks, int numTypes) {
  return Workload(std::move(tasks), numTypes);
}

// --- Mode resolution ------------------------------------------------------------

TEST(AllocationModeTest, ResolvesFromHeuristicName) {
  EXPECT_EQ(hcs::core::allocationModeFor("RR"), AllocationMode::Immediate);
  EXPECT_EQ(hcs::core::allocationModeFor("KPB"), AllocationMode::Immediate);
  EXPECT_EQ(hcs::core::allocationModeFor("MM"), AllocationMode::Batch);
  EXPECT_EQ(hcs::core::allocationModeFor("EDF"), AllocationMode::Batch);
  EXPECT_THROW(hcs::core::allocationModeFor("bogus"), std::invalid_argument);
}

// --- Basic lifecycle --------------------------------------------------------------

TEST(SimulationTest, SingleTaskCompletesOnTime) {
  const FakeModel model = FakeModel::deterministic({{3.0}});
  const Workload wl = workloadOf({TaskSpec{0, 1.0, 10.0}}, 1);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 1u);
  EXPECT_DOUBLE_EQ(result.robustnessPercent, 100.0);
  EXPECT_DOUBLE_EQ(result.makespan, 4.0);  // arrival 1 + exec 3
}

TEST(SimulationTest, LateCompletionCountsAsMiss) {
  const FakeModel model = FakeModel::deterministic({{5.0}});
  const Workload wl = workloadOf({TaskSpec{0, 0.0, 2.0}}, 1);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 0u);
  EXPECT_EQ(result.metrics.completedLate(), 1u);
  EXPECT_DOUBLE_EQ(result.robustnessPercent, 0.0);
}

TEST(SimulationTest, CompletionExactlyAtDeadlineIsOnTime) {
  const FakeModel model = FakeModel::deterministic({{5.0}});
  const Workload wl = workloadOf({TaskSpec{0, 0.0, 5.0}}, 1);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 1u);
}

TEST(SimulationTest, FifoExecutionOnOneMachine) {
  // Three 4-unit tasks on one machine: completions at 4, 8, 12.
  const FakeModel model = FakeModel::deterministic({{4.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0}, TaskSpec{0, 0.0, 100.0},
       TaskSpec{0, 0.0, 100.0}},
      1);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 3u);
  EXPECT_DOUBLE_EQ(result.makespan, 12.0);
}

TEST(SimulationTest, ImmediateHeuristicUsesAffinity) {
  // Type 0 runs 10x faster on machine 1; MET must send it there.
  const FakeModel model = FakeModel::deterministic({{20.0, 2.0}});
  const Workload wl = workloadOf({TaskSpec{0, 0.0, 5.0}}, 1);
  const TrialResult result = Simulation(model, wl, baseline("MET")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 1u);
  EXPECT_DOUBLE_EQ(result.makespan, 2.0);
}

TEST(SimulationTest, BatchHeuristicMapsOnArrivalWhenSlotsFree) {
  const FakeModel model = FakeModel::deterministic({{2.0, 2.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 50.0}, TaskSpec{0, 0.0, 50.0}}, 1);
  const TrialResult result = Simulation(model, wl, baseline("MM")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 2u);
  // Two machines, both idle: tasks run in parallel, makespan 2.
  EXPECT_DOUBLE_EQ(result.makespan, 2.0);
}

// --- Reactive dropping (step 1) -----------------------------------------------------

TEST(SimulationTest, TasksStuckInBatchQueueAreReactivelyDropped) {
  // One machine, capacity 1 (running only): a long task hogs the machine
  // while short-deadline tasks wait in the batch queue past their deadlines.
  // Reactive dropping (Fig. 5 step 1) evicts them at later mapping events.
  const FakeModel model = FakeModel::deterministic({{30.0}, {30.0}});
  SimulationConfig config = pruned("MM");
  config.machineQueueCapacity = 1;
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 35.0}, TaskSpec{1, 1.0, 5.0}, TaskSpec{1, 2.0, 6.0}},
      2);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 1u);
  EXPECT_EQ(result.metrics.droppedReactive(), 2u);
}

TEST(SimulationTest, QueuedTasksPastDeadlineAreReactivelyDropped) {
  // Machine queue holds a task whose deadline passes while it waits; the
  // pruning mechanism's reactive pass drops it before it can start.
  const FakeModel model = FakeModel::deterministic({{10.0}, {4.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 50.0},   // runs 0..10
       TaskSpec{1, 1.0, 6.0},    // queued behind it, dead by 6
       TaskSpec{1, 20.0, 30.0}}, // triggers a mapping event after the miss
      2);
  const TrialResult result = Simulation(model, wl, pruned("MCT")).run();
  EXPECT_EQ(result.metrics.droppedReactive(), 1u);
  EXPECT_EQ(result.metrics.completedOnTime(), 2u);
}

TEST(SimulationTest, BaselineExecutesExpiredQueuedTasks) {
  // With pruning disabled there are NO reactive drops: a task that expires
  // while queued still runs (late), wasting the machine — the paper's
  // baselines collapse under oversubscription precisely because of this.
  const FakeModel model = FakeModel::deterministic({{10.0}, {4.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 50.0}, TaskSpec{1, 1.0, 6.0},
       TaskSpec{1, 20.0, 30.0}},
      2);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  EXPECT_EQ(result.metrics.droppedReactive(), 0u);
  EXPECT_EQ(result.metrics.completedLate(), 1u);  // the expired task
  EXPECT_EQ(result.metrics.completedOnTime(), 2u);
}

// --- Proactive dropping (steps 4-6) ---------------------------------------------------

TEST(SimulationTest, ReactiveToggleEngagesDropAfterMiss) {
  // Deterministic 10-unit execs on one machine.  A runs 0..10; M1 and M2
  // queue behind it with deadlines 5 and 6.5.  At B's arrival (t=6) M1's
  // reactive drop engages the Toggle, and the proactive pass catches M2
  // (chance 0: earliest completion 20) while it is still within deadline.
  // B itself maps after the passes; at later events no new misses occur,
  // the Toggle stays off, and B — equally doomed — survives to run late.
  // This pins down both sides of reactive gating.
  const FakeModel model = FakeModel::deterministic({{10.0}});
  SimulationConfig config = pruned("MCT");
  config.pruning.toggle = ToggleMode::Reactive;
  config.pruning.deferEnabled = false;
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0},  // A: runs 0..10
       TaskSpec{0, 0.0, 5.0},    // M1: expires at 5
       TaskSpec{0, 0.0, 6.5},    // M2: proactively dropped at t=6
       TaskSpec{0, 6.0, 12.0},   // B: zero chance but toggle is off later
       TaskSpec{0, 7.0, 100.0}}, // C: healthy
      1);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.droppedReactive(), 1u);   // M1
  EXPECT_EQ(result.metrics.droppedProactive(), 1u);  // M2
  EXPECT_EQ(result.metrics.completedLate(), 1u);     // B (runs 10..20)
  // A (0..10) and C (20..30, deadline 100) complete on time.
  EXPECT_EQ(result.metrics.completedOnTime(), 2u);
}

TEST(SimulationTest, NoDroppingToggleNeverDropsProactively) {
  const FakeModel model = FakeModel::deterministic({{10.0}});
  SimulationConfig config = pruned("MCT");
  config.pruning.toggle = ToggleMode::NoDropping;
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.push_back(TaskSpec{0, static_cast<double>(i), i + 12.0});
  }
  const Workload wl = workloadOf(std::move(tasks), 1);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.droppedProactive(), 0u);
}

TEST(SimulationTest, AlwaysDroppingPrunesDoomedTasksImmediately) {
  const FakeModel model = FakeModel::deterministic({{10.0}});
  SimulationConfig config = pruned("MCT");
  config.pruning.toggle = ToggleMode::AlwaysDropping;
  config.pruning.deferEnabled = false;
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0},  // runs 0..10
       TaskSpec{0, 1.0, 8.0},    // queued, completion 20 -> chance 0
       TaskSpec{0, 2.0, 100.0}}, // healthy; its arrival triggers the pass
      1);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.droppedProactive(), 1u);
  EXPECT_EQ(result.metrics.completedOnTime(), 2u);
}

// --- Deferring (step 10) ----------------------------------------------------------------

TEST(SimulationTest, LowChanceTasksAreDeferredNotDispatched) {
  // One machine; a 30-unit task is running.  A task with deadline 12 has
  // zero chance if queued now — deferring keeps it in the batch queue.
  const FakeModel model = FakeModel::deterministic({{30.0}, {5.0}});
  SimulationConfig config = pruned("MM");
  config.pruning.toggle = ToggleMode::NoDropping;
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0}, TaskSpec{1, 1.0, 12.0}}, 2);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_GE(result.metrics.deferrals(), 1u);
  // The deferred task dies in the batch queue (reactive drop at a later
  // event or the trial drain), never on the machine.
  EXPECT_EQ(result.metrics.completedLate(), 0u);
}

TEST(SimulationTest, WithoutPruningDoomedTaskIsDispatchedAndLate) {
  // Pruning disabled and a deadline (32) that is still alive when the
  // machine frees at t=30: the doomed task starts anyway, finishes at 35,
  // and wastes the machine — the exact pathology §I describes.  (With a
  // deadline that expires while queued, even the baseline drops it
  // reactively; the waste happens for tasks that are not-yet-expired but
  // unwinnable.)
  const FakeModel model = FakeModel::deterministic({{30.0}, {5.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0}, TaskSpec{1, 1.0, 32.0}}, 2);
  const TrialResult result = Simulation(model, wl, baseline("MM")).run();
  EXPECT_EQ(result.metrics.deferrals(), 0u);
  EXPECT_EQ(result.metrics.completedLate(), 1u);

  // With pruning, the same task is deferred (chance 0 at mapping time) and
  // never wastes the machine.
  const TrialResult kept = Simulation(model, wl, pruned("MM")).run();
  EXPECT_EQ(kept.metrics.completedLate(), 0u);
  EXPECT_GE(kept.metrics.deferrals(), 1u);
}

TEST(SimulationTest, DeferredTaskRunsWhenAffineMachineFreesUp) {
  // Queue capacity 1: both machines run an 8-unit type-0 task.  The type-1
  // task (40 units on machine 0, 4 on machine 1, deadline 30) arrives at
  // t=1 and must wait.  Machine 0 frees first (lower event sequence); the
  // only open slot would complete at 48 — deferring holds the task for the
  // affine machine 1, which frees at the same timestamp and finishes it by
  // t=12.  §IV-B's motivating case.
  const FakeModel model =
      FakeModel::deterministic({{8.0, 8.0}, {40.0, 4.0}});
  SimulationConfig config = pruned("MM");
  config.pruning.toggle = ToggleMode::NoDropping;
  config.machineQueueCapacity = 1;
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0},  // occupies machine 0 (phase-1 tie -> 0)
       TaskSpec{0, 0.0, 100.0},  // occupies machine 1
       TaskSpec{1, 1.0, 30.0}},
      2);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 3u);
  EXPECT_GE(result.metrics.deferrals(), 1u);

  // Without pruning the task is dispatched to the first free (wrong)
  // machine and finishes at t=48, hopelessly late.
  SimulationConfig off = baseline("MM");
  off.machineQueueCapacity = 1;
  const TrialResult late = Simulation(model, wl, off).run();
  EXPECT_EQ(late.metrics.completedLate(), 1u);
  EXPECT_EQ(late.metrics.deferrals(), 0u);
}

// --- Abort-at-deadline policy -------------------------------------------------------------

TEST(SimulationTest, AbortPolicyFreesTheMachineEarly) {
  const FakeModel model = FakeModel::deterministic({{30.0}, {5.0}});
  SimulationConfig config = baseline("MCT");
  config.abortRunningAtDeadline = true;
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 10.0},   // aborted at the first event past t=10
       TaskSpec{1, 12.0, 20.0}}, // would be late behind a 30-unit task
      2);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.droppedReactive(), 1u);
  EXPECT_EQ(result.metrics.completedOnTime(), 1u);
}

TEST(SimulationTest, WithoutAbortPolicyRunningTaskFinishesLate) {
  const FakeModel model = FakeModel::deterministic({{30.0}, {5.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 10.0}, TaskSpec{1, 12.0, 20.0}}, 2);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  // No abort policy and no pruning: the running task finishes late at
  // t=30 and the queued task (deadline 20) runs 30..35, also late.
  EXPECT_EQ(result.metrics.completedLate(), 2u);
  EXPECT_EQ(result.metrics.droppedReactive(), 0u);
  EXPECT_EQ(result.metrics.completedOnTime(), 0u);
}

TEST(SimulationTest, SimultaneousAbortsStartSuccessorsInMachineOrder) {
  // Machines 0 and 1 run tasks with deadline 10; machine 2's task completes
  // at t=12.  That completion's mapping event aborts both overdue tasks, so
  // all three machines start their queued successor at t=12, in ascending
  // machine order.  Each type is fast on exactly one machine, pinning MCT's
  // placement.
  const FakeModel model = FakeModel::deterministic({{30.0, 1000.0, 1000.0},
                                                    {1000.0, 30.0, 1000.0},
                                                    {1000.0, 1000.0, 12.0},
                                                    {5.0, 1000.0, 1000.0},
                                                    {1000.0, 5.0, 1000.0},
                                                    {1000.0, 1000.0, 5.0}});
  SimulationConfig config = baseline("MCT");
  config.abortRunningAtDeadline = true;
  hcs::sim::TraceLog log;
  config.traceSink = log.sink();
  const Workload wl = workloadOf({TaskSpec{0, 0.0, 10.0},
                                  TaskSpec{1, 0.0, 10.0},
                                  TaskSpec{2, 0.0, 100.0},
                                  TaskSpec{3, 1.0, 100.0},
                                  TaskSpec{4, 1.0, 100.0},
                                  TaskSpec{5, 1.0, 100.0}},
                                 6);
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.droppedReactive(), 2u);
  EXPECT_EQ(result.metrics.completedOnTime(), 4u);

  using K = hcs::sim::TraceEventKind;
  const auto aborted = log.ofKind(K::Aborted);
  ASSERT_EQ(aborted.size(), 2u);
  EXPECT_DOUBLE_EQ(aborted[0].time, 12.0);
  EXPECT_DOUBLE_EQ(aborted[1].time, 12.0);
  std::vector<hcs::sim::MachineId> machines;
  std::vector<hcs::sim::TaskId> tasks;
  for (const auto& e : log.ofKind(K::Started)) {
    if (e.time == 12.0) {
      machines.push_back(e.machine);
      tasks.push_back(e.task);
    }
  }
  EXPECT_EQ(machines, (std::vector<hcs::sim::MachineId>{0, 1, 2}));
  EXPECT_EQ(tasks, (std::vector<hcs::sim::TaskId>{3, 4, 5}));
}

// --- Reactive dropping is prompt -----------------------------------------------------------

class ReactivePromptnessTest
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(ReactivePromptnessTest, NothingRunsLateAndDropsHitTheFirstEventPast) {
  // With reactive dropping on, no task is dispatched or started after its
  // deadline, and every reactive drop (queued or, under abort-at-deadline,
  // running) happens at the first mapping event past the deadline.  On one
  // cluster without churn the mapping events are exactly the arrivals and
  // completions.
  const auto& [heuristic, abort] = GetParam();
  const auto pet = std::make_shared<const hcs::workload::PetMatrix>(
      hcs::workload::PetMatrix::specLike(5));
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(pet);
  hcs::workload::ArrivalSpec arrival;
  arrival.span = 150.0;
  arrival.totalTasks = 600;  // oversubscribed
  arrival.numTaskTypes = pet->numTaskTypes();
  const Workload wl = Workload::generate(*pet, arrival, {}, 11);
  SimulationConfig config = pruned(heuristic);
  config.abortRunningAtDeadline = abort;
  hcs::sim::TraceLog log;
  config.traceSink = log.sink();
  Simulation(model, wl, config).run();

  using K = hcs::sim::TraceEventKind;
  std::vector<double> eventTimes;
  for (const auto& e : log.events()) {
    if (e.kind == K::Arrival || e.kind == K::Completed) {
      eventTimes.push_back(e.time);
    }
  }
  std::sort(eventTimes.begin(), eventTimes.end());
  std::size_t drops = 0;
  for (const auto& e : log.events()) {
    if (e.task == hcs::sim::kInvalidTask) continue;
    const double deadline =
        wl.tasks()[static_cast<std::size_t>(e.task)].deadline;
    if (e.kind == K::Dispatched || e.kind == K::Started) {
      EXPECT_LE(e.time, deadline) << "task " << e.task;
    } else if (e.kind == K::DroppedReactive) {
      ++drops;
      const auto firstPast =
          std::upper_bound(eventTimes.begin(), eventTimes.end(), deadline);
      ASSERT_NE(firstPast, eventTimes.end());
      EXPECT_EQ(e.time, *firstPast) << "task " << e.task;
    }
  }
  EXPECT_GT(drops, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicsAndAbort, ReactivePromptnessTest,
    ::testing::Combine(::testing::Values("MM", "MSD", "MCT"),
                       ::testing::Bool()));

// --- Conservation & determinism --------------------------------------------------------------

class ConservationTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(ConservationTest, EveryTaskReachesExactlyOneTerminalState) {
  const auto& [heuristic, seed] = GetParam();
  const auto pet = hcs::workload::PetMatrix::specLike(seed);
  const auto petPtr =
      std::make_shared<const hcs::workload::PetMatrix>(pet);
  const auto model =
      hcs::workload::BoundExecutionModel::heterogeneous(petPtr);
  hcs::workload::ArrivalSpec arrival;
  arrival.span = 150.0;
  arrival.totalTasks = 300;
  const Workload wl = Workload::generate(pet, arrival, {}, seed);
  SimulationConfig config = pruned(heuristic);
  config.warmupMargin = 0;
  const TrialResult result = Simulation(model, wl, config).run();
  const auto& m = result.metrics;
  EXPECT_EQ(m.completedOnTime() + m.completedLate() + m.droppedReactive() +
                m.droppedProactive(),
            wl.size());
  EXPECT_GE(result.robustnessPercent, 0.0);
  EXPECT_LE(result.robustnessPercent, 100.0);
  EXPECT_GT(result.mappingEvents, wl.size() / 2);
  for (double u : result.machineUtilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicsAndSeeds, ConservationTest,
    ::testing::Combine(::testing::Values("RR", "MET", "MCT", "KPB", "MM",
                                         "MSD", "MMU"),
                       ::testing::Values(1u, 2u, 3u)));

TEST(SimulationTest, DisabledPruningYieldsNoProactiveDropsOrDeferrals) {
  const auto pet = hcs::workload::PetMatrix::specLike(4);
  const auto petPtr = std::make_shared<const hcs::workload::PetMatrix>(pet);
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(petPtr);
  hcs::workload::ArrivalSpec arrival;
  arrival.span = 100.0;
  arrival.totalTasks = 200;
  const Workload wl = Workload::generate(pet, arrival, {}, 4);
  const TrialResult result = Simulation(model, wl, baseline("MM")).run();
  EXPECT_EQ(result.metrics.droppedProactive(), 0u);
  EXPECT_EQ(result.metrics.deferrals(), 0u);
  const auto& m = result.metrics;
  EXPECT_EQ(m.completedOnTime() + m.completedLate() + m.droppedReactive(),
            wl.size());
}

TEST(SimulationTest, RunsAreDeterministic) {
  const auto pet = hcs::workload::PetMatrix::specLike(5);
  const auto petPtr = std::make_shared<const hcs::workload::PetMatrix>(pet);
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(petPtr);
  hcs::workload::ArrivalSpec arrival;
  arrival.span = 120.0;
  arrival.totalTasks = 250;
  const Workload wl = Workload::generate(pet, arrival, {}, 5);
  const SimulationConfig config = pruned("MSD");
  const TrialResult a = Simulation(model, wl, config).run();
  const TrialResult b = Simulation(model, wl, config).run();
  EXPECT_DOUBLE_EQ(a.robustnessPercent, b.robustnessPercent);
  EXPECT_EQ(a.metrics.completedOnTime(), b.metrics.completedOnTime());
  EXPECT_EQ(a.metrics.droppedProactive(), b.metrics.droppedProactive());
  EXPECT_EQ(a.mappingEvents, b.mappingEvents);
}

TEST(SimulationTest, ExecutionSeedChangesOutcomesButNotConservation) {
  const auto pet = hcs::workload::PetMatrix::specLike(6);
  const auto petPtr = std::make_shared<const hcs::workload::PetMatrix>(pet);
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(petPtr);
  hcs::workload::ArrivalSpec arrival;
  arrival.span = 120.0;
  arrival.totalTasks = 250;
  const Workload wl = Workload::generate(pet, arrival, {}, 6);
  SimulationConfig config = pruned("MM");
  config.executionSeed = 1;
  const TrialResult a = Simulation(model, wl, config).run();
  config.executionSeed = 2;
  const TrialResult b = Simulation(model, wl, config).run();
  const auto total = [&](const TrialResult& r) {
    return r.metrics.completedOnTime() + r.metrics.completedLate() +
           r.metrics.droppedReactive() + r.metrics.droppedProactive();
  };
  EXPECT_EQ(total(a), wl.size());
  EXPECT_EQ(total(b), wl.size());
}

TEST(SimulationTest, RejectsTypeCountMismatch) {
  const FakeModel model = FakeModel::deterministic({{1.0}});
  const Workload wl = workloadOf({TaskSpec{1, 0.0, 5.0}}, 2);
  EXPECT_THROW(Simulation(model, wl, baseline("MCT")), std::invalid_argument);
}

// --- Custom heuristic plumbing ------------------------------------------------------

namespace {

/// Trivial batch heuristic: first unmapped task to the first open machine.
class FirstFit final : public hcs::heuristics::BatchHeuristic {
 public:
  std::string_view name() const override { return "FirstFit"; }
  std::vector<hcs::heuristics::Assignment> map(
      const hcs::heuristics::MappingContext& ctx,
      std::span<const hcs::sim::TaskId> batch) override {
    std::vector<hcs::heuristics::Assignment> out;
    std::vector<std::size_t> slots(
        static_cast<std::size_t>(ctx.numMachines()));
    for (int j = 0; j < ctx.numMachines(); ++j) {
      slots[static_cast<std::size_t>(j)] = ctx.freeSlots(j);
    }
    for (hcs::sim::TaskId task : batch) {
      for (int j = 0; j < ctx.numMachines(); ++j) {
        if (slots[static_cast<std::size_t>(j)] > 0) {
          out.push_back({task, j});
          slots[static_cast<std::size_t>(j)] -= 1;
          break;
        }
      }
    }
    return out;
  }
};

}  // namespace

TEST(SimulationTest, CustomBatchHeuristicRunsThroughTheScheduler) {
  const FakeModel model = FakeModel::deterministic({{2.0, 2.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 50.0}, TaskSpec{0, 0.0, 50.0}}, 1);
  SimulationConfig config;
  config.customBatchHeuristic = [] { return std::make_unique<FirstFit>(); };
  config.warmupMargin = 0;
  const TrialResult result = Simulation(model, wl, config).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 2u);
}

TEST(SimulationTest, BothCustomFactoriesIsAnError) {
  SimulationConfig config;
  config.customBatchHeuristic = [] { return std::make_unique<FirstFit>(); };
  config.customImmediateHeuristic = [] {
    return hcs::heuristics::makeImmediate("RR");
  };
  EXPECT_THROW(hcs::core::allocationModeFor(config), std::invalid_argument);
}

TEST(SimulationTest, ExecutionSplitSeparatesUsefulFromWasted) {
  // Two 4-unit tasks on one machine; the second misses its deadline of 6.
  const FakeModel model = FakeModel::deterministic({{4.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0}, TaskSpec{0, 0.0, 6.0}}, 1);
  const TrialResult result = Simulation(model, wl, baseline("MCT")).run();
  EXPECT_DOUBLE_EQ(result.metrics.usefulBusyTime(), 4.0);
  EXPECT_DOUBLE_EQ(result.metrics.wastedBusyTime(), 4.0);
  ASSERT_EQ(result.metrics.perMachineExecution().size(), 1u);
  EXPECT_DOUBLE_EQ(result.metrics.perMachineExecution()[0].useful, 4.0);
}

// --- Event tracing -------------------------------------------------------------------

TEST(TraceTest, RecordsFullLifecycleOfACompletedTask) {
  const FakeModel model = FakeModel::deterministic({{3.0}});
  const Workload wl = workloadOf({TaskSpec{0, 1.0, 10.0}}, 1);
  hcs::sim::TraceLog log;
  SimulationConfig config = baseline("MM");
  config.traceSink = log.sink();
  Simulation(model, wl, config).run();

  const auto events = log.forTask(0);
  ASSERT_EQ(events.size(), 4u);
  using K = hcs::sim::TraceEventKind;
  EXPECT_EQ(events[0].kind, K::Arrival);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_EQ(events[1].kind, K::Dispatched);
  EXPECT_EQ(events[2].kind, K::Started);
  EXPECT_EQ(events[2].machine, 0);
  EXPECT_EQ(events[3].kind, K::Completed);
  EXPECT_DOUBLE_EQ(events[3].time, 4.0);
}

TEST(TraceTest, RecordsDeferralsAndDrops) {
  // One machine runs a 30-unit task; a doomed task (deadline 12) is
  // deferred by the pruner and later dies reactively in the batch queue.
  const FakeModel model = FakeModel::deterministic({{30.0}, {5.0}});
  hcs::sim::TraceLog log;
  SimulationConfig config = pruned("MM");
  config.pruning.toggle = ToggleMode::NoDropping;
  config.traceSink = log.sink();
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 100.0}, TaskSpec{1, 1.0, 12.0}}, 2);
  Simulation(model, wl, config).run();

  using K = hcs::sim::TraceEventKind;
  EXPECT_FALSE(log.ofKind(K::Deferred).empty());
  ASSERT_EQ(log.ofKind(K::DroppedReactive).size(), 1u);
  EXPECT_EQ(log.ofKind(K::DroppedReactive)[0].task, 1);
  // The doomed task never reached a machine.
  for (const auto& e : log.forTask(1)) {
    EXPECT_NE(e.kind, K::Started);
  }
}

TEST(TraceTest, CsvExportHasHeaderAndOneRowPerEvent) {
  // Two clusters (round-robin routing sends the second task to cluster 1),
  // and an arrival at a time the stream's default 6 significant digits
  // would round (12345.678 -> 12345.7).
  const FakeModel model = FakeModel::deterministic({{2.0}});
  const Workload wl = workloadOf(
      {TaskSpec{0, 0.0, 10.0}, TaskSpec{0, 12345.678, 12400.0}}, 1);
  hcs::sim::TraceLog log;
  SimulationConfig config = baseline("MCT");
  config.traceSink = log.sink();
  hcs::fed::FederationSpec spec;
  spec.clusters = 2;
  hcs::fed::FederatedSimulation({&model, &model}, wl, config, spec).run();

  std::ostringstream out;
  log.writeCsv(out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "time,kind,task,machine,cluster");
  std::size_t rows = 0;
  std::set<std::size_t> clusters;
  bool sawLateArrival = false;
  for (; std::getline(lines, line); ++rows) {
    ASSERT_LT(rows, log.size()) << line;
    const hcs::sim::TraceEvent& e = log.events()[rows];
    std::vector<std::string> cells;
    std::istringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');) {
      cells.push_back(cell);
    }
    ASSERT_EQ(cells.size(), 5u) << line;
    EXPECT_EQ(std::strtod(cells[0].c_str(), nullptr), e.time) << line;
    EXPECT_EQ(cells[1], hcs::sim::toString(e.kind));
    EXPECT_EQ(cells[2], std::to_string(e.task));
    EXPECT_EQ(cells[3], std::to_string(e.machine));
    EXPECT_EQ(cells[4], std::to_string(e.cluster));
    clusters.insert(e.cluster);
    sawLateArrival |= e.time == 12345.678;
  }
  EXPECT_EQ(rows, log.size());
  EXPECT_EQ(clusters, (std::set<std::size_t>{0, 1}));
  EXPECT_TRUE(sawLateArrival);
}

TEST(TraceTest, NoSinkMeansNoTracing) {
  const FakeModel model = FakeModel::deterministic({{2.0}});
  const Workload wl = workloadOf({TaskSpec{0, 0.0, 10.0}}, 1);
  // Simply runs without a sink — exercising the null-sink fast path.
  const TrialResult result =
      Simulation(model, wl, baseline("MCT")).run();
  EXPECT_EQ(result.metrics.completedOnTime(), 1u);
}

// --- Full-matrix integration sweep ----------------------------------------------------

class IntegrationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, hcs::workload::ArrivalPattern, bool>> {};

TEST_P(IntegrationSweep, InvariantsHoldAcrossTheConfigurationMatrix) {
  const auto& [heuristic, pattern, prune] = GetParam();
  const auto pet = hcs::workload::PetMatrix::specLike(99);
  const auto petPtr = std::make_shared<const hcs::workload::PetMatrix>(pet);
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(petPtr);
  hcs::workload::ArrivalSpec arrival;
  arrival.pattern = pattern;
  arrival.span = 150.0;
  arrival.totalTasks = 300;
  const Workload wl = Workload::generate(pet, arrival, {}, 99);

  SimulationConfig config = prune ? pruned(heuristic) : baseline(heuristic);
  hcs::sim::TraceLog log;
  config.traceSink = log.sink();
  const TrialResult result = Simulation(model, wl, config).run();

  // Conservation.
  const auto& m = result.metrics;
  EXPECT_EQ(m.completedOnTime() + m.completedLate() + m.droppedReactive() +
                m.droppedProactive(),
            wl.size());
  // Baselines never drop or defer.
  if (!prune) {
    EXPECT_EQ(m.droppedReactive() + m.droppedProactive(), 0u);
    EXPECT_EQ(m.deferrals(), 0u);
  }
  // Trace sanity: every task arrives exactly once; a task starts at most
  // once and only after being dispatched.
  using K = hcs::sim::TraceEventKind;
  EXPECT_EQ(log.ofKind(K::Arrival).size(), wl.size());
  for (std::size_t id = 0; id < wl.size(); ++id) {
    const auto events = log.forTask(static_cast<hcs::sim::TaskId>(id));
    int started = 0;
    bool dispatched = false;
    for (const auto& e : events) {
      if (e.kind == K::Dispatched) dispatched = true;
      if (e.kind == K::Started) {
        ++started;
        EXPECT_TRUE(dispatched);
      }
    }
    EXPECT_LE(started, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IntegrationSweep,
    ::testing::Combine(
        ::testing::Values("MCT", "KPB", "MM", "MSD", "MMU", "MaxMin",
                          "Sufferage"),
        ::testing::Values(hcs::workload::ArrivalPattern::Constant,
                          hcs::workload::ArrivalPattern::Spiky),
        ::testing::Bool()));

// --- Pruning improves robustness under oversubscription (the paper's thesis) ---

TEST(SimulationTest, PruningImprovesRobustnessWhenOversubscribed) {
  const auto pet = hcs::workload::PetMatrix::specLike(2019);
  const auto petPtr = std::make_shared<const hcs::workload::PetMatrix>(pet);
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(petPtr);
  hcs::workload::ArrivalSpec arrival;
  // Heavily oversubscribed: ~2x what 8 machines can serve.
  arrival.span = 400.0;
  arrival.totalTasks = 800;
  const Workload wl = Workload::generate(pet, arrival, {}, 7);

  const TrialResult without = Simulation(model, wl, baseline("MM")).run();
  const TrialResult with = Simulation(model, wl, pruned("MM")).run();
  EXPECT_GT(with.robustnessPercent, without.robustnessPercent);
}

TEST(SimulationTest, PruningReducesWastedShareAndCostPerOnTimeTask) {
  // The §VII conjecture on energy and cost: pruning lowers the share of
  // busy machine time spent on tasks that fail, and the cluster time
  // (machines x makespan) paid per on-time completion.
  const auto pet = std::make_shared<const hcs::workload::PetMatrix>(
      hcs::workload::PetMatrix::specLike(77));
  const auto model = hcs::workload::BoundExecutionModel::heterogeneous(pet);
  hcs::workload::ArrivalSpec arrival;
  arrival.span = 300.0;
  arrival.totalTasks = 700;
  arrival.numTaskTypes = pet->numTaskTypes();
  const Workload wl = Workload::generate(*pet, arrival, {}, 8);

  auto wastedShare = [](const TrialResult& r) {
    return r.metrics.wastedBusyTime() /
           (r.metrics.usefulBusyTime() + r.metrics.wastedBusyTime());
  };
  auto machineTimePerOnTime = [&](const TrialResult& r) {
    return model.numMachines() * r.makespan /
           static_cast<double>(r.metrics.completedOnTime());
  };
  const TrialResult bare = Simulation(model, wl, baseline("MM")).run();
  const TrialResult with = Simulation(model, wl, pruned("MM")).run();
  EXPECT_LT(wastedShare(with), wastedShare(bare));
  EXPECT_LT(machineTimePerOnTime(with), machineTimePerOnTime(bare));
}

}  // namespace
