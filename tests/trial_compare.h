#pragma once
// Field-by-field TrialResult comparison shared by the oracle suites that
// run one trial two ways (cached vs reference PCTs, incremental vs
// reference mapping) and require identical results.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/config.h"
#include "core/simulation.h"
#include "exp/experiment.h"
#include "exp/scenario_spec.h"
#include "sim/trace.h"

namespace hcs::testutil {

/// Every TrialResult field, compared exactly.
inline void expectIdenticalTrials(const hcs::core::TrialResult& a,
                           const hcs::core::TrialResult& b,
                           const std::string& label) {
  EXPECT_EQ(a.robustnessPercent, b.robustnessPercent) << label;
  EXPECT_EQ(a.machineUtilization, b.machineUtilization) << label;
  EXPECT_EQ(a.fairnessScores, b.fairnessScores) << label;
  EXPECT_EQ(a.mappingEvents, b.mappingEvents) << label;
  EXPECT_EQ(a.makespan, b.makespan) << label;
  EXPECT_EQ(a.mappingEngineSeconds, b.mappingEngineSeconds) << label;
  const hcs::sim::Metrics& x = a.metrics;
  const hcs::sim::Metrics& y = b.metrics;
  EXPECT_EQ(x.completedOnTime(), y.completedOnTime()) << label;
  EXPECT_EQ(x.completedLate(), y.completedLate()) << label;
  EXPECT_EQ(x.droppedReactive(), y.droppedReactive()) << label;
  EXPECT_EQ(x.droppedProactive(), y.droppedProactive()) << label;
  EXPECT_EQ(x.abandoned(), y.abandoned()) << label;
  EXPECT_EQ(x.rejected(), y.rejected()) << label;
  EXPECT_EQ(x.deferrals(), y.deferrals()) << label;
  EXPECT_EQ(x.machineFailures(), y.machineFailures()) << label;
  EXPECT_EQ(x.retries(), y.retries()) << label;
  EXPECT_EQ(x.spillovers(), y.spillovers()) << label;
  EXPECT_EQ(x.failedThenMet(), y.failedThenMet()) << label;
  EXPECT_EQ(x.countedTasks(), y.countedTasks()) << label;
  EXPECT_EQ(x.terminalCount(), y.terminalCount()) << label;
  EXPECT_EQ(x.weightedRobustnessPercent(), y.weightedRobustnessPercent())
      << label;
  ASSERT_EQ(x.perType().size(), y.perType().size()) << label;
  for (std::size_t k = 0; k < x.perType().size(); ++k) {
    const hcs::sim::TypeOutcomes& p = x.perType()[k];
    const hcs::sim::TypeOutcomes& q = y.perType()[k];
    EXPECT_EQ(p.completedOnTime, q.completedOnTime) << label << " type " << k;
    EXPECT_EQ(p.completedLate, q.completedLate) << label << " type " << k;
    EXPECT_EQ(p.droppedReactive, q.droppedReactive) << label << " type " << k;
    EXPECT_EQ(p.droppedProactive, q.droppedProactive)
        << label << " type " << k;
    EXPECT_EQ(p.abandoned, q.abandoned) << label << " type " << k;
    EXPECT_EQ(p.rejected, q.rejected) << label << " type " << k;
  }
  ASSERT_EQ(x.perMachineExecution().size(), y.perMachineExecution().size())
      << label;
  for (std::size_t j = 0; j < x.perMachineExecution().size(); ++j) {
    EXPECT_EQ(x.perMachineExecution()[j].useful,
              y.perMachineExecution()[j].useful)
        << label << " machine " << j;
    EXPECT_EQ(x.perMachineExecution()[j].wasted,
              y.perMachineExecution()[j].wasted)
        << label << " machine " << j;
  }
  EXPECT_EQ(x.onlineMachineSeconds(), y.onlineMachineSeconds()) << label;
  EXPECT_EQ(x.drainingMachineSeconds(), y.drainingMachineSeconds()) << label;
  EXPECT_EQ(x.busyMachineSeconds(), y.busyMachineSeconds()) << label;
  EXPECT_EQ(x.scaleUps(), y.scaleUps()) << label;
  EXPECT_EQ(x.scaleDowns(), y.scaleDowns()) << label;
}

/// Machine transitions seen by the switched-on runs of expectEnginesAgree.
struct Transitions {
  std::size_t failures = 0;
  std::size_t drains = 0;
  std::size_t retirements = 0;
};

/// Runs every trial of `bound` twice — with the engine switch `oracle`
/// (&core::SimulationConfig::pctCacheEnabled or ::incrementalMappingEnabled)
/// on, and off, which runs its reference path — and requires identical
/// TrialResults.  Counts the machine transitions the switched-on runs saw.
inline Transitions expectEnginesAgree(const hcs::exp::BoundScenario& bound,
                                      bool hcs::core::SimulationConfig::*oracle,
                                      const std::string& label) {
  Transitions seen;
  hcs::exp::ExperimentSpec fast = bound.experiment;
  hcs::exp::ExperimentSpec reference = bound.experiment;
  fast.sim.*oracle = true;
  reference.sim.*oracle = false;
  fast.sim.traceSink = [&seen](const hcs::sim::TraceEvent& e) {
    seen.failures += e.kind == hcs::sim::TraceEventKind::MachineFailed;
    seen.drains += e.kind == hcs::sim::TraceEventKind::MachineDraining;
    seen.retirements += e.kind == hcs::sim::TraceEventKind::MachineRetired;
  };
  const auto run = [&](const hcs::exp::ExperimentSpec& spec,
                       std::size_t trial) {
    if (bound.federated) {
      return hcs::exp::TrialRunner(bound.fedModels, spec, bound.federation)
          .runTrial(trial);
    }
    return hcs::exp::TrialRunner(*bound.model, spec).runTrial(trial);
  };
  for (std::size_t trial = 0; trial < bound.experiment.trials; ++trial) {
    expectIdenticalTrials(run(fast, trial), run(reference, trial),
                          label + " trial " + std::to_string(trial));
  }
  return seen;
}

}  // namespace hcs::testutil
