// The free-machine set behind the incremental batch engine:
//  - every sim::Machine mutation keeps the machine's membership current
//    (a member accepts work and holds fewer tasks than the set's capacity),
//    and iteration is ascending;
//  - the engine that maps only the set's machines reproduces the reference
//    engine (throwaway contexts walking every machine) trial for trial,
//    field for field — on fed_churn's shape, where failures, drains and
//    retirements change the set without a scheduler call, and on
//    deep_queue's, where one machine at a time frees a slot.  Debug builds
//    additionally compare the set with a full walk after every update.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenario_spec.h"
#include "sim/free_set.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "test_util.h"
#include "trial_compare.h"
#include "util/json.h"

namespace {

using namespace hcs;

std::vector<sim::MachineId> members(const sim::FreeMachineSet& set) {
  std::vector<sim::MachineId> out;
  set.forEach([&](sim::MachineId j) { out.push_back(j); });
  return out;
}

TEST(FreeMachineSetTest, EveryMachineMutationKeepsMembershipCurrent) {
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{1.0, 1.0, 1.0}});
  sim::TaskPool pool;
  std::vector<sim::Machine> machines;
  for (sim::MachineId j = 0; j < 3; ++j) machines.emplace_back(j, 1.0);
  sim::FreeMachineSet set;
  set.reset(machines.size(), 2);
  for (sim::Machine& m : machines) m.linkFreeSet(&set);
  EXPECT_EQ(members(set), (std::vector<sim::MachineId>{0, 1, 2}));

  sim::Machine& m = machines[1];
  const sim::TaskId a = pool.create(0, 0.0, 100.0);
  const sim::TaskId b = pool.create(0, 0.0, 100.0);
  m.dispatch(a, 0.0, pool, model);  // runs: 1 of 2
  EXPECT_TRUE(set.contains(1));
  m.dispatch(b, 0.0, pool, model);  // queued: full
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 2u);
  m.finishRunning(1.0, pool, model);
  EXPECT_TRUE(set.contains(1));
  m.startNextIfIdle(1.0, pool, model);  // same count in the system
  EXPECT_TRUE(set.contains(1));
  const sim::TaskId c = pool.create(0, 1.0, 100.0);
  m.dispatch(c, 1.0, pool, model);
  EXPECT_FALSE(set.contains(1));
  m.removeQueued(c, 1.0, pool, model);
  EXPECT_TRUE(set.contains(1));
  m.dispatch(c, 1.0, pool, model);
  m.abortRunning(1.5, pool, model);
  EXPECT_TRUE(set.contains(1));

  machines[0].beginDrain(2.0);
  EXPECT_FALSE(set.contains(0));
  machines[0].cancelDrain(2.0);
  EXPECT_TRUE(set.contains(0));
  std::vector<sim::TaskId> orphans;
  machines[2].goOffline(3.0, pool, model, orphans);
  EXPECT_EQ(members(set), (std::vector<sim::MachineId>{0, 1}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FreeMachineSetTest, OfflineDrainAndRecoveryTrackTheGate) {
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{1.0, 1.0}});
  sim::TaskPool pool;
  std::vector<sim::Machine> machines;
  for (sim::MachineId j = 0; j < 2; ++j) machines.emplace_back(j, 1.0);
  sim::FreeMachineSet set;
  set.reset(machines.size(), 1);
  for (sim::Machine& m : machines) m.linkFreeSet(&set);
  std::vector<sim::TaskId> orphans;
  machines[0].beginDrain(0.0);
  machines[0].goOffline(1.0, pool, model, orphans);  // a retirement
  EXPECT_FALSE(set.contains(0));
  machines[0].cancelDrain(1.0);
  EXPECT_FALSE(set.contains(0));  // still offline
  machines[0].comeOnline(2.0, pool, model);
  EXPECT_TRUE(set.contains(0));
  machines[1].dispatch(pool.create(0, 0.0, 9.0), 0.0, pool, model);
  EXPECT_EQ(members(set), (std::vector<sim::MachineId>{0}));
  machines[1].linkFreeSet(nullptr);
  machines[1].finishRunning(1.0, pool, model);  // unlinked: no update
  EXPECT_EQ(members(set), (std::vector<sim::MachineId>{0}));
}

TEST(FreeMachineSetTest, IterationIsAscendingAcrossWords) {
  sim::FreeMachineSet set;
  set.reset(130, 1);
  for (const sim::MachineId j : {129, 3, 64, 63, 0}) set.set(j, true);
  set.set(3, true);  // idempotent
  EXPECT_EQ(set.size(), 5u);
  EXPECT_EQ(members(set), (std::vector<sim::MachineId>{0, 3, 63, 64, 129}));
  set.set(64, false);
  set.set(64, false);
  EXPECT_EQ(set.size(), 4u);
  EXPECT_FALSE(set.contains(64));
  EXPECT_TRUE(set.contains(129));
}

// fed_churn's shape: machines fail, drain and retire under the capacity
// controller and the fault injector, which mutate machines without going
// through the scheduler (a drain runs no mapping event) — the set must
// follow them by construction.  The controller's thresholds are lowered
// from the defaults, under which this short a trial never scales.
TEST(FreeMachineSetTest, IncrementalMatchesReferenceOnFedChurnShape) {
  const testutil::Transitions seen = testutil::expectEnginesAgree(
      exp::bindScenario(exp::parseScenarioSpec(util::parseJson(R"({
    "workload": {"rate": 25000, "pattern": "spiky"},
    "stream": {"enabled": true},
    "faults": {"enabled": true, "mtbf": 50.0, "mttr": 8.0,
               "max_attempts": 3,
               "backoff": {"base": 0.5, "factor": 2.0, "jitter": 0.1}},
    "federation": {"enabled": true, "clusters": 4, "routing": "least_ect",
                   "dispatch_latency": 0.5},
    "elasticity": {"enabled": true, "policy": "queue_bound",
                   "scale_up_queue": 1.0, "scale_down_queue": 0.5, "pool": [
      {"machine_type": 0, "min": 1, "max": 2},
      {"machine_type": 1, "min": 1, "max": 2},
      {"machine_type": 2, "min": 1, "max": 2},
      {"machine_type": 3, "min": 1, "max": 2},
      {"machine_type": 4, "min": 1, "max": 2},
      {"machine_type": 5, "min": 1, "max": 2},
      {"machine_type": 6, "min": 1, "max": 2},
      {"machine_type": 7, "min": 1, "max": 2}
    ]},
    "run": {"trials": 2, "scale": 0.02}
  })"))),
      &core::SimulationConfig::incrementalMappingEnabled, "fed_churn shape");
  EXPECT_GT(seen.failures, 0u);
  EXPECT_GT(seen.drains, 0u);
  EXPECT_GT(seen.retirements, 0u);
}

// deep_queue's shape: MM without pruning on constant arrivals keeps the
// cluster saturated, so nearly every map() call sees one free machine.
TEST(FreeMachineSetTest, IncrementalMatchesReferenceOnDeepQueueShape) {
  testutil::expectEnginesAgree(
      exp::bindScenario(exp::parseScenarioSpec(util::parseJson(R"({
    "workload": {"rate": 25000, "pattern": "constant"},
    "sim": {
      "heuristic": "MM",
      "pruning": {"enabled": false, "reactive_drop": false, "defer": false,
                  "toggle": "never"}
    },
    "run": {"trials": 2, "scale": 0.02}
  })"))),
      &core::SimulationConfig::incrementalMappingEnabled, "deep_queue shape");
}

}  // namespace
