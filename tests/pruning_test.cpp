// Tests for the pruning mechanism's policy modules (Section IV, Fig. 4/5):
// Accounting, Toggle, Fairness, and the Pruner that composes them.

#include <gtest/gtest.h>

#include "pruning/accounting.h"
#include "pruning/config.h"
#include "pruning/fairness.h"
#include "pruning/pruner.h"
#include "pruning/toggle.h"

namespace {

using hcs::pruning::Accounting;
using hcs::pruning::Fairness;
using hcs::pruning::Pruner;
using hcs::pruning::PruningConfig;
using hcs::pruning::Toggle;
using hcs::pruning::ToggleMode;

// --- Accounting -----------------------------------------------------------------

TEST(AccountingTest, HarvestReturnsIntervalAndResets) {
  Accounting acc(3);
  acc.recordOnTimeCompletion(0);
  acc.recordOnTimeCompletion(2);
  acc.recordDeadlineMiss(1);
  acc.recordDeadlineMiss(1);

  const auto snapshot = acc.harvest();
  EXPECT_EQ(snapshot.onTimeTypes, (std::vector<int>{0, 2}));
  EXPECT_EQ(snapshot.deadlineMisses, 2u);

  const auto empty = acc.harvest();
  EXPECT_TRUE(empty.onTimeTypes.empty());
  EXPECT_EQ(empty.deadlineMisses, 0u);
}

TEST(AccountingTest, LifetimeTotalsSurviveHarvest) {
  Accounting acc(2);
  acc.recordOnTimeCompletion(0);
  acc.recordDeadlineMiss(1);
  acc.recordProactiveDrop(1);
  acc.harvest();
  acc.recordOnTimeCompletion(0);
  EXPECT_EQ(acc.totalOnTime()[0], 2u);
  EXPECT_EQ(acc.totalMisses()[1], 1u);
  EXPECT_EQ(acc.totalProactiveDrops()[1], 1u);
}

TEST(AccountingTest, RejectsZeroTypes) {
  EXPECT_THROW(Accounting(0), std::invalid_argument);
}

// --- Toggle ----------------------------------------------------------------------

TEST(ToggleTest, NoDroppingNeverEngages) {
  const Toggle t(ToggleMode::NoDropping, 1);
  EXPECT_FALSE(t.engageDropping(0));
  EXPECT_FALSE(t.engageDropping(1000));
}

TEST(ToggleTest, AlwaysDroppingAlwaysEngages) {
  const Toggle t(ToggleMode::AlwaysDropping, 1);
  EXPECT_TRUE(t.engageDropping(0));
  EXPECT_TRUE(t.engageDropping(5));
}

TEST(ToggleTest, ReactiveEngagesAtThreshold) {
  const Toggle t(ToggleMode::Reactive, 3);
  EXPECT_FALSE(t.engageDropping(0));
  EXPECT_FALSE(t.engageDropping(2));
  EXPECT_TRUE(t.engageDropping(3));
  EXPECT_TRUE(t.engageDropping(10));
}

TEST(ToggleTest, PaperDefaultEngagesOnOneMiss) {
  // §V-C: "engages task dropping only in observation of at least one task
  // missing its deadline, since the previous mapping event."
  const Toggle t(ToggleMode::Reactive, 1);
  EXPECT_FALSE(t.engageDropping(0));
  EXPECT_TRUE(t.engageDropping(1));
}

TEST(ToggleTest, ReactiveRejectsZeroAlpha) {
  EXPECT_THROW(Toggle(ToggleMode::Reactive, 0), std::invalid_argument);
}

// --- Fairness ----------------------------------------------------------------------

TEST(FairnessTest, ScoresStartAtZero) {
  const Fairness f(4, 0.05, 0.45);
  for (int k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(f.score(k), 0.0);
    EXPECT_DOUBLE_EQ(f.effectiveThreshold(k, 0.5), 0.5);
  }
}

TEST(FairnessTest, DropsRaiseScoreAndLowerTheBar) {
  Fairness f(2, 0.05, 0.45);
  f.recordDrop(0);
  f.recordDrop(0);
  EXPECT_NEAR(f.score(0), 0.10, 1e-12);
  // Suffering type 0 now has a *laxer* pruning bar (0.40 instead of 0.50).
  EXPECT_NEAR(f.effectiveThreshold(0, 0.5), 0.40, 1e-12);
  EXPECT_DOUBLE_EQ(f.effectiveThreshold(1, 0.5), 0.50);
}

TEST(FairnessTest, CompletionsRecoverSufferageButFloorAtZero) {
  Fairness f(2, 0.05, 0.45);
  // Without prior suffering there is nothing to recover: the bar stays at
  // beta (a negative score would push the bar above 1 and starve thriving
  // types outright).
  f.recordOnTimeCompletion(1);
  EXPECT_DOUBLE_EQ(f.score(1), 0.0);
  EXPECT_DOUBLE_EQ(f.effectiveThreshold(1, 0.5), 0.5);
  // After drops, completions walk the score back down.
  f.recordDrop(1);
  f.recordDrop(1);
  f.recordOnTimeCompletion(1);
  EXPECT_NEAR(f.score(1), 0.05, 1e-12);
  EXPECT_NEAR(f.effectiveThreshold(1, 0.5), 0.45, 1e-12);
}

TEST(FairnessTest, ScoresAreClampedToZeroAndCap) {
  Fairness f(1, 0.2, 0.45);
  for (int i = 0; i < 10; ++i) f.recordDrop(0);
  EXPECT_DOUBLE_EQ(f.score(0), 0.45);
  for (int i = 0; i < 20; ++i) f.recordOnTimeCompletion(0);
  EXPECT_DOUBLE_EQ(f.score(0), 0.0);
}

TEST(FairnessTest, DropAndCompletionCancelOut) {
  Fairness f(1, 0.05, 0.45);
  f.recordDrop(0);
  f.recordOnTimeCompletion(0);
  EXPECT_NEAR(f.score(0), 0.0, 1e-12);
}

TEST(FairnessTest, RejectsBadParameters) {
  EXPECT_THROW(Fairness(0, 0.05, 0.45), std::invalid_argument);
  EXPECT_THROW(Fairness(1, -0.1, 0.45), std::invalid_argument);
  EXPECT_THROW(Fairness(1, 0.05, -0.1), std::invalid_argument);
}

// --- Pruner -------------------------------------------------------------------------

Accounting::Snapshot snapshotWithMisses(std::size_t misses) {
  Accounting::Snapshot s;
  s.deadlineMisses = misses;
  return s;
}

TEST(PrunerTest, DisabledPrunerNeverActs) {
  Pruner pruner(PruningConfig::disabled(), 2);
  pruner.beginMappingEvent(snapshotWithMisses(100));
  EXPECT_FALSE(pruner.droppingEngaged());
  EXPECT_FALSE(pruner.shouldDrop(0, 0.0));
  EXPECT_FALSE(pruner.shouldDefer(0, 0.0));
}

TEST(PrunerTest, DefersBelowThresholdRegardlessOfToggle) {
  PruningConfig config;  // threshold 0.5, reactive toggle
  Pruner pruner(config, 2);
  pruner.beginMappingEvent(snapshotWithMisses(0));
  EXPECT_TRUE(pruner.shouldDefer(0, 0.3));
  EXPECT_TRUE(pruner.shouldDefer(0, 0.5));  // "chance <= beta" is pruned
  EXPECT_FALSE(pruner.shouldDefer(0, 0.51));
}

TEST(PrunerTest, DropsOnlyWhenToggleEngaged) {
  PruningConfig config;
  Pruner pruner(config, 2);
  pruner.beginMappingEvent(snapshotWithMisses(0));
  EXPECT_FALSE(pruner.droppingEngaged());
  EXPECT_FALSE(pruner.shouldDrop(0, 0.1));
  pruner.beginMappingEvent(snapshotWithMisses(1));
  EXPECT_TRUE(pruner.droppingEngaged());
  EXPECT_TRUE(pruner.shouldDrop(0, 0.1));
  EXPECT_FALSE(pruner.shouldDrop(0, 0.9));
}

TEST(PrunerTest, AlwaysToggleDropsWithoutMisses) {
  PruningConfig config;
  config.toggle = ToggleMode::AlwaysDropping;
  Pruner pruner(config, 1);
  pruner.beginMappingEvent(snapshotWithMisses(0));
  EXPECT_TRUE(pruner.droppingEngaged());
}

TEST(PrunerTest, NoDropToggleNeverDrops) {
  PruningConfig config;
  config.toggle = ToggleMode::NoDropping;
  Pruner pruner(config, 1);
  pruner.beginMappingEvent(snapshotWithMisses(50));
  EXPECT_FALSE(pruner.droppingEngaged());
  // Deferring still applies — the two operations are independent.
  EXPECT_TRUE(pruner.shouldDefer(0, 0.2));
}

TEST(PrunerTest, DeferCanBeDisabledIndependently) {
  PruningConfig config;
  config.deferEnabled = false;
  Pruner pruner(config, 1);
  pruner.beginMappingEvent(snapshotWithMisses(1));
  EXPECT_FALSE(pruner.shouldDefer(0, 0.1));
  EXPECT_TRUE(pruner.shouldDrop(0, 0.1));
}

TEST(PrunerTest, FairnessOffsetsTheBarPerType) {
  // Fig. 5 step 6: drop when chance <= beta - gamma_k.
  PruningConfig config;
  config.fairnessFactor = 0.2;
  Pruner pruner(config, 2);
  pruner.recordDrop(0);  // gamma_0 = 0.2 -> bar 0.3
  pruner.beginMappingEvent(snapshotWithMisses(1));
  EXPECT_FALSE(pruner.shouldDrop(0, 0.35));  // above the lax bar
  EXPECT_TRUE(pruner.shouldDrop(1, 0.35));   // below the default bar
  EXPECT_TRUE(pruner.shouldDrop(0, 0.25));
}

TEST(PrunerTest, OnTimeCompletionsRecoverSufferage) {
  // Step 2: completions since the last event walk gamma_k back toward
  // zero, withdrawing the lax bar once a suffering type recovers.
  PruningConfig config;
  config.fairnessFactor = 0.2;
  Pruner pruner(config, 2);
  pruner.recordDrop(0);
  pruner.recordDrop(0);  // gamma_0 = 0.4 -> bar 0.1
  pruner.beginMappingEvent(snapshotWithMisses(1));
  EXPECT_FALSE(pruner.shouldDrop(0, 0.3));
  Accounting::Snapshot snapshot;
  snapshot.onTimeTypes = {0, 0};  // gamma_0 back to 0 -> bar 0.5
  snapshot.deadlineMisses = 1;
  pruner.beginMappingEvent(snapshot);
  EXPECT_TRUE(pruner.shouldDrop(0, 0.3));
}

TEST(PrunerTest, DisabledPrunerIgnoresCompletionSnapshots) {
  Pruner pruner(PruningConfig::disabled(), 1);
  Accounting::Snapshot snapshot;
  snapshot.onTimeTypes = {0};
  pruner.beginMappingEvent(snapshot);
  EXPECT_DOUBLE_EQ(pruner.fairness().score(0), 0.0);
}

TEST(PrunerTest, RejectsThresholdOutsideUnitInterval) {
  PruningConfig config;
  config.threshold = 1.5;
  EXPECT_THROW(Pruner(config, 1), std::invalid_argument);
  config.threshold = -0.1;
  EXPECT_THROW(Pruner(config, 1), std::invalid_argument);
}

TEST(PrunerTest, ZeroThresholdPrunesOnlyHopelessTasks) {
  // Fig. 8's 0% point: only tasks with literally zero chance are pruned.
  PruningConfig config;
  config.threshold = 0.0;
  Pruner pruner(config, 1);
  pruner.beginMappingEvent(snapshotWithMisses(1));
  EXPECT_TRUE(pruner.shouldDefer(0, 0.0));
  EXPECT_FALSE(pruner.shouldDefer(0, 0.01));
}

// --- Priority-aware pruning bar (§VII) ----------------------------------------------

TEST(PriorityPruningTest, BarScalesWithValue) {
  PruningConfig config;
  config.priorityAware = true;
  config.priorityWeight = 1.0;
  config.priorityReference = 1.0;
  Pruner pruner(config, 1);
  EXPECT_DOUBLE_EQ(pruner.pruningBar(0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(pruner.pruningBar(0, 4.0), 0.125);
  EXPECT_DOUBLE_EQ(pruner.pruningBar(0, 0.5), 0.99);  // clamped
}

TEST(PriorityPruningTest, ReferenceRecentersTheBar) {
  PruningConfig config;
  config.priorityAware = true;
  config.priorityReference = 1.6;
  Pruner pruner(config, 1);
  EXPECT_DOUBLE_EQ(pruner.pruningBar(0, 1.6), 0.5);
  EXPECT_NEAR(pruner.pruningBar(0, 1.0), 0.8, 1e-12);
  EXPECT_NEAR(pruner.pruningBar(0, 4.0), 0.2, 1e-12);
}

TEST(PriorityPruningTest, DisabledIgnoresValue) {
  PruningConfig config;  // priorityAware = false
  Pruner pruner(config, 1);
  EXPECT_DOUBLE_EQ(pruner.pruningBar(0, 4.0), 0.5);
  EXPECT_DOUBLE_EQ(pruner.pruningBar(0, 0.1), 0.5);
}

TEST(PriorityPruningTest, DeferAndDropRespectValues) {
  PruningConfig config;
  config.priorityAware = true;
  config.toggle = ToggleMode::AlwaysDropping;
  Pruner pruner(config, 1);
  pruner.beginMappingEvent({});
  // chance 0.3: pruned at value 1 (bar 0.5), kept at value 4 (bar 0.125).
  EXPECT_TRUE(pruner.shouldDefer(0, 0.3, 1.0));
  EXPECT_FALSE(pruner.shouldDefer(0, 0.3, 4.0));
  EXPECT_TRUE(pruner.shouldDrop(0, 0.3, 1.0));
  EXPECT_FALSE(pruner.shouldDrop(0, 0.3, 4.0));
}

}  // namespace
