// Tests for the experiment framework: multi-trial runs, the paper scenario
// setup, and table reporting.

#include <gtest/gtest.h>

#include <sstream>

#include "exp/experiment.h"
#include "exp/report.h"
#include "exp/scenario.h"

namespace {

using namespace hcs;

exp::PaperScenario::Options tinyOptions() {
  exp::PaperScenario::Options options;
  options.scale = 0.02;  // ~300 tasks at 15k-equivalent
  return options;
}

/// The scenario's experiment spec at 3 trials.
exp::ExperimentSpec tinySpec(const exp::PaperScenario& scenario,
                             std::size_t paperRate,
                             workload::ArrivalPattern pattern) {
  exp::ExperimentSpec spec = scenario.experimentSpec(paperRate, pattern);
  spec.trials = 3;
  return spec;
}

// --- PaperScenario -------------------------------------------------------------

TEST(PaperScenarioTest, BuildsPaperShapedClusters) {
  const exp::PaperScenario scenario(tinyOptions());
  EXPECT_EQ(scenario.hetero().numMachines(), 8);
  EXPECT_EQ(scenario.hetero().numTaskTypes(), 12);
  EXPECT_EQ(scenario.homo().numMachines(), 8);
  // Homogeneous cluster: all machines identical.
  for (int j = 1; j < scenario.homo().numMachines(); ++j) {
    for (int t = 0; t < scenario.homo().numTaskTypes(); ++t) {
      EXPECT_DOUBLE_EQ(scenario.homo().expectedExec(t, j),
                       scenario.homo().expectedExec(t, 0));
    }
  }
}

TEST(PaperScenarioTest, ScaleControlsTaskCountsNotIntensity) {
  exp::PaperScenario::Options small = tinyOptions();
  exp::PaperScenario::Options large = tinyOptions();
  large.scale = 0.04;
  const exp::PaperScenario a(small);
  const exp::PaperScenario b(large);
  EXPECT_EQ(a.scaledTasks(15000), 300u);
  EXPECT_EQ(b.scaledTasks(15000), 600u);
  // Span scales linearly with task count, so arrival intensity (tasks per
  // time unit) is scale-invariant.
  const double intensityA = 300.0 / a.span();
  const double intensityB = 600.0 / b.span();
  EXPECT_NEAR(intensityA, intensityB, 1e-9);
}

TEST(PaperScenarioTest, HigherRateMeansProportionallyMoreTasksOverSameSpan) {
  const exp::PaperScenario scenario(tinyOptions());
  const auto spec15 = scenario.arrivalSpec(
      exp::PaperScenario::kRate15k, workload::ArrivalPattern::Spiky);
  const auto spec25 = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);
  EXPECT_DOUBLE_EQ(spec15.span, spec25.span);
  EXPECT_NEAR(static_cast<double>(spec25.totalTasks) /
                  static_cast<double>(spec15.totalTasks),
              25.0 / 15.0, 1e-6);
}

TEST(PaperScenarioTest, WarmupMarginTracksPaperRatio) {
  exp::PaperScenario::Options options;
  options.scale = 1.0;
  const exp::PaperScenario scenario(options);
  EXPECT_EQ(scenario.warmupMargin(15000), 100u);  // paper: 100 of 15000
  EXPECT_GE(scenario.warmupMargin(25000), 100u);
  const exp::PaperScenario small(tinyOptions());
  EXPECT_GE(small.warmupMargin(15000), 10u);  // floor
}

TEST(PaperScenarioTest, RejectsBadOptions) {
  exp::PaperScenario::Options options;
  options.scale = 0.0;
  EXPECT_THROW(exp::PaperScenario{options}, std::invalid_argument);
  options = tinyOptions();
  options.targetRhoAt15k = -1.0;
  EXPECT_THROW(exp::PaperScenario{options}, std::invalid_argument);
}

// --- runExperiment --------------------------------------------------------------

TEST(ExperimentTest, AggregatesRequestedTrials) {
  const exp::PaperScenario scenario(tinyOptions());
  exp::ExperimentSpec spec = tinySpec(scenario, exp::PaperScenario::kRate15k,
                                      workload::ArrivalPattern::Spiky);
  spec.sim.heuristic = "MM";
  const exp::ExperimentResult result =
      exp::runExperiment(scenario.hetero(), spec);
  EXPECT_EQ(result.metric("robustness_pct").count(), 3u);
  EXPECT_EQ(result.perTrialRobustness.size(), 3u);
  EXPECT_GE(result.robustnessCi.mean, 0.0);
  EXPECT_LE(result.robustnessCi.mean, 100.0);
  EXPECT_GE(result.robustnessCi.halfWidth, 0.0);
}

TEST(ExperimentTest, IsDeterministicPerBaseSeed) {
  const exp::PaperScenario scenario(tinyOptions());
  exp::ExperimentSpec spec = tinySpec(scenario, exp::PaperScenario::kRate15k,
                                      workload::ArrivalPattern::Constant);
  spec.sim.heuristic = "MSD";
  const auto a = exp::runExperiment(scenario.hetero(), spec);
  const auto b = exp::runExperiment(scenario.hetero(), spec);
  EXPECT_EQ(a.perTrialRobustness, b.perTrialRobustness);
  spec.baseSeed = 777;
  const auto c = exp::runExperiment(scenario.hetero(), spec);
  EXPECT_NE(a.perTrialRobustness, c.perTrialRobustness);
}

TEST(ExperimentTest, TrialsVaryWithinAnExperiment) {
  const exp::PaperScenario scenario(tinyOptions());
  exp::ExperimentSpec spec = tinySpec(scenario, exp::PaperScenario::kRate20k,
                                      workload::ArrivalPattern::Spiky);
  spec.sim.heuristic = "MM";
  const auto result = exp::runExperiment(scenario.hetero(), spec);
  // Different workload seeds per trial: robustness should not be constant.
  EXPECT_GT(result.metric("robustness_pct").stddev(), 0.0);
}

TEST(ExperimentTest, SharesWorkloadsAcrossSpecsForPairedComparison) {
  // Two specs differing only in pruning see identical workload trials, so
  // their comparison is paired (same arrival times, same deadlines).
  const exp::PaperScenario scenario(tinyOptions());
  exp::ExperimentSpec spec = tinySpec(scenario, exp::PaperScenario::kRate25k,
                                      workload::ArrivalPattern::Spiky);
  spec.sim.heuristic = "MM";
  spec.sim.pruning = pruning::PruningConfig::disabled();
  const auto base = exp::runExperiment(scenario.hetero(), spec);
  spec.sim.pruning = pruning::PruningConfig{};
  const auto pruned = exp::runExperiment(scenario.hetero(), spec);
  // Oversubscribed at 25k-equivalent: pruning must win on paired trials.
  EXPECT_GT(pruned.robustnessCi.mean, base.robustnessCi.mean);
}

TEST(ExperimentTest, RejectsZeroTrials) {
  const exp::PaperScenario scenario(tinyOptions());
  exp::ExperimentSpec spec = tinySpec(scenario, exp::PaperScenario::kRate15k,
                                      workload::ArrivalPattern::Spiky);
  spec.trials = 0;
  EXPECT_THROW(exp::runExperiment(scenario.hetero(), spec),
               std::invalid_argument);
}

// --- Table / formatting -----------------------------------------------------------

TEST(TableTest, PrintsAlignedColumns) {
  exp::Table table({"name", "value"});
  table.addRow({"alpha", "1"});
  table.addRow({"b", "12345"});
  std::ostringstream out;
  table.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(text.find("| b     | 12345 |"), std::string::npos);
}

TEST(TableTest, AlignsMultibyteCells) {
  exp::Table table({"v"});
  table.addRow({"62.3 ±1.8"});  // '±' is two bytes, one display cell
  table.addRow({"100.0 ±0.0"});
  std::ostringstream out;
  table.print(out);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::size_t> widths;
  while (std::getline(lines, line)) {
    std::size_t cells = 0;
    for (unsigned char c : line) {
      if ((c & 0xC0) != 0x80) ++cells;
    }
    widths.push_back(cells);
  }
  ASSERT_EQ(widths.size(), 4u);
  EXPECT_EQ(widths[0], widths[1]);
  EXPECT_EQ(widths[1], widths[2]);
  EXPECT_EQ(widths[2], widths[3]);
}

TEST(TableTest, CsvEscapesNothingButRoundTrips) {
  exp::Table table({"a", "b"});
  table.addRow({"1", "2"});
  std::ostringstream out;
  table.printCsv(out);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
}

TEST(TableTest, RejectsMalformedRows) {
  EXPECT_THROW(exp::Table({}), std::invalid_argument);
  exp::Table table({"a", "b"});
  EXPECT_THROW(table.addRow({"only-one"}), std::invalid_argument);
}

TEST(FormatTest, FormatsValuesAndIntervals) {
  EXPECT_EQ(exp::formatValue(3.14159, 2), "3.14");
  EXPECT_EQ(exp::formatValue(10.0, 0), "10");
  stats::ConfidenceInterval ci;
  ci.mean = 62.345;
  ci.halfWidth = 1.84;
  EXPECT_EQ(exp::formatCi(ci), "62.3 ±1.8");
}

}  // namespace
