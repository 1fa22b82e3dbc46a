// Tests for workload synthesis: the PET matrix (paper recipe), arrival
// patterns (constant / spiky, Fig. 6), deadline assignment (Eq. 4), and
// trace persistence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats/running_stats.h"
#include "workload/arrival.h"
#include "workload/deadline.h"
#include "workload/pet_matrix.h"
#include "workload/trace_io.h"
#include "workload/workload.h"

namespace {

using hcs::prob::Rng;
using hcs::workload::Arrival;
using hcs::workload::ArrivalPattern;
using hcs::workload::ArrivalSpec;
using hcs::workload::BoundExecutionModel;
using hcs::workload::DeadlineSpec;
using hcs::workload::PetMatrix;
using hcs::workload::PetSynthesisConfig;
using hcs::workload::RateProfile;
using hcs::workload::Workload;

// --- PET matrix ---------------------------------------------------------------

TEST(PetMatrixTest, SpecLikeHasPaperDimensions) {
  const PetMatrix pet = PetMatrix::specLike(1);
  EXPECT_EQ(pet.numTaskTypes(), 12);
  EXPECT_EQ(pet.numMachineTypes(), 8);
}

TEST(PetMatrixTest, SpecLikeIsDeterministicPerSeed) {
  const PetMatrix a = PetMatrix::specLike(7);
  const PetMatrix b = PetMatrix::specLike(7);
  for (int t = 0; t < a.numTaskTypes(); ++t) {
    for (int j = 0; j < a.numMachineTypes(); ++j) {
      EXPECT_EQ(a.pet(t, j), b.pet(t, j));
    }
  }
  const PetMatrix c = PetMatrix::specLike(8);
  EXPECT_NE(a.pet(0, 0), c.pet(0, 0));
}

TEST(PetMatrixTest, SpecLikeIsInconsistentlyHeterogeneous) {
  // Qualitative heterogeneity: machine orderings differ between task types
  // (task-machine affinity) — the defining property of an inconsistent HC
  // system (§I).  With affinity jitter in [0.5, 2.0], at least one pair of
  // types must disagree on which of two machines is faster.
  const PetMatrix pet = PetMatrix::specLike(2019);
  bool inversionFound = false;
  for (int t1 = 0; t1 < pet.numTaskTypes() && !inversionFound; ++t1) {
    for (int t2 = t1 + 1; t2 < pet.numTaskTypes() && !inversionFound; ++t2) {
      for (int j1 = 0; j1 < pet.numMachineTypes(); ++j1) {
        for (int j2 = j1 + 1; j2 < pet.numMachineTypes(); ++j2) {
          const bool t1Prefers1 =
              pet.expectedExec(t1, j1) < pet.expectedExec(t1, j2);
          const bool t2Prefers1 =
              pet.expectedExec(t2, j1) < pet.expectedExec(t2, j2);
          if (t1Prefers1 != t2Prefers1) {
            inversionFound = true;
            break;
          }
        }
        if (inversionFound) break;
      }
    }
  }
  EXPECT_TRUE(inversionFound);
}

TEST(PetMatrixTest, MeansAndAveragesAreConsistent) {
  const PetMatrix pet = PetMatrix::specLike(3);
  for (int t = 0; t < pet.numTaskTypes(); ++t) {
    double rowAvg = 0.0;
    for (int j = 0; j < pet.numMachineTypes(); ++j) {
      EXPECT_NEAR(pet.expectedExec(t, j), pet.pet(t, j).mean(), 1e-12);
      rowAvg += pet.expectedExec(t, j);
    }
    rowAvg /= pet.numMachineTypes();
    EXPECT_NEAR(pet.typeMeanAcrossMachines(t), rowAvg, 1e-9);
  }
  double overall = 0.0;
  for (int t = 0; t < pet.numTaskTypes(); ++t) {
    overall += pet.typeMeanAcrossMachines(t);
  }
  EXPECT_NEAR(pet.overallMean(), overall / pet.numTaskTypes(), 1e-9);
}

TEST(PetMatrixTest, FromMeansTracksRequestedMeans) {
  const std::vector<std::vector<double>> means = {{4.0, 8.0}, {10.0, 5.0}};
  const PetMatrix pet = PetMatrix::fromMeans(means, 10.0, 1, 1.0, 4000);
  EXPECT_EQ(pet.numTaskTypes(), 2);
  EXPECT_EQ(pet.numMachineTypes(), 2);
  EXPECT_NEAR(pet.expectedExec(0, 0), 4.0, 0.5);
  EXPECT_NEAR(pet.expectedExec(1, 0), 10.0, 0.5);
}

TEST(PetMatrixTest, HomogenizedMakesAllColumnsEqual) {
  const PetMatrix pet = PetMatrix::specLike(5);
  const PetMatrix homo = pet.homogenized(3);
  for (int t = 0; t < homo.numTaskTypes(); ++t) {
    for (int j = 0; j < homo.numMachineTypes(); ++j) {
      EXPECT_EQ(homo.pet(t, j), pet.pet(t, 3));
    }
  }
  EXPECT_THROW(pet.homogenized(99), std::out_of_range);
}

TEST(PetMatrixTest, RejectsMalformedInput) {
  EXPECT_THROW(PetMatrix({}), std::invalid_argument);
  using hcs::prob::DiscretePmf;
  std::vector<std::vector<DiscretePmf>> ragged;
  ragged.push_back({DiscretePmf::pointMass(1.0), DiscretePmf::pointMass(2.0)});
  ragged.push_back({DiscretePmf::pointMass(1.0)});
  EXPECT_THROW(PetMatrix(std::move(ragged)), std::invalid_argument);
}

// --- BoundExecutionModel -------------------------------------------------------

TEST(BoundModelTest, HeterogeneousBindsMachineIToTypeI) {
  auto pet = std::make_shared<const PetMatrix>(PetMatrix::specLike(6));
  const auto model = BoundExecutionModel::heterogeneous(pet);
  EXPECT_EQ(model.numMachines(), 8);
  for (int j = 0; j < model.numMachines(); ++j) {
    EXPECT_EQ(model.machineType(j), j);
    EXPECT_EQ(model.pet(2, j), pet->pet(2, j));
  }
}

TEST(BoundModelTest, HomogeneousBindsAllMachinesToOneType) {
  auto pet = std::make_shared<const PetMatrix>(PetMatrix::specLike(6));
  const auto model = BoundExecutionModel::homogeneous(pet, 5, 2);
  EXPECT_EQ(model.numMachines(), 5);
  for (int j = 0; j < model.numMachines(); ++j) {
    EXPECT_EQ(model.pet(1, j), pet->pet(1, 2));
    EXPECT_DOUBLE_EQ(model.expectedExec(1, j), pet->expectedExec(1, 2));
  }
}

TEST(BoundModelTest, RejectsBadBindings) {
  auto pet = std::make_shared<const PetMatrix>(PetMatrix::specLike(6));
  EXPECT_THROW(BoundExecutionModel(nullptr, {0}), std::invalid_argument);
  EXPECT_THROW(BoundExecutionModel(pet, {}), std::invalid_argument);
  EXPECT_THROW(BoundExecutionModel(pet, {99}), std::out_of_range);
  EXPECT_THROW(BoundExecutionModel::homogeneous(pet, 0, 0),
               std::invalid_argument);
}

// --- RateProfile ----------------------------------------------------------------

TEST(RateProfileTest, ConstantProfileIntegratesToTotal) {
  const RateProfile p = RateProfile::constant(100.0, 500.0);
  EXPECT_DOUBLE_EQ(p.rateAt(50.0), 5.0);
  EXPECT_DOUBLE_EQ(p.totalExpected(), 500.0);
  EXPECT_DOUBLE_EQ(p.cumulative(40.0), 200.0);
}

TEST(RateProfileTest, SpikyProfileHasPaperStructure) {
  const RateProfile p = RateProfile::spiky(1200.0, 600.0, 4, 3.0);
  // Period 300: lull 225 at rate r, spike 75 at 3r.
  const double lullRate = p.rateAt(10.0);
  const double spikeRate = p.rateAt(250.0);
  EXPECT_NEAR(spikeRate, 3.0 * lullRate, 1e-9);
  EXPECT_NEAR(p.totalExpected(), 600.0, 1e-6);
  // Spike duration is 1/3 of the lull: 75 = 225 / 3.
  EXPECT_DOUBLE_EQ(p.rateAt(224.0), lullRate);
  EXPECT_DOUBLE_EQ(p.rateAt(226.0), spikeRate);
  EXPECT_DOUBLE_EQ(p.rateAt(299.0), spikeRate);
  EXPECT_DOUBLE_EQ(p.rateAt(301.0), lullRate);
}

TEST(RateProfileTest, InvertCumulativeRoundTrips) {
  const RateProfile p = RateProfile::spiky(900.0, 450.0, 3);
  for (double t = 0.5; t < 900.0; t += 37.0) {
    const double c = p.cumulative(t);
    EXPECT_NEAR(p.invertCumulative(c), t, 1e-6);
  }
  EXPECT_DOUBLE_EQ(p.invertCumulative(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.invertCumulative(1e9), 900.0);
}

TEST(RateProfileTest, RejectsMalformedSegments) {
  using Segment = RateProfile::Segment;
  EXPECT_THROW(RateProfile({}), std::invalid_argument);
  EXPECT_THROW(RateProfile({Segment{0.0, 0.0, 1.0}}), std::invalid_argument);
  EXPECT_THROW(RateProfile({Segment{0.0, 1.0, -1.0}}), std::invalid_argument);
  // Gap between segments.
  EXPECT_THROW(RateProfile({Segment{0.0, 1.0, 1.0}, Segment{2.0, 3.0, 1.0}}),
               std::invalid_argument);
}

// --- Arrival generation ----------------------------------------------------------

TEST(ArrivalTest, GeneratesRoughlyRequestedCount) {
  ArrivalSpec spec;
  spec.pattern = ArrivalPattern::Constant;
  spec.span = 1000.0;
  spec.totalTasks = 2400;
  spec.numTaskTypes = 12;
  Rng rng(1);
  const auto arrivals = hcs::workload::generateArrivals(spec, rng);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 2400.0, 120.0);
}

TEST(ArrivalTest, ArrivalsAreSortedAndInSpan) {
  ArrivalSpec spec;
  spec.span = 500.0;
  spec.totalTasks = 1000;
  Rng rng(2);
  const auto arrivals = hcs::workload::generateArrivals(spec, rng);
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_LE(arrivals[i - 1].time, arrivals[i].time);
  }
  for (const Arrival& a : arrivals) {
    EXPECT_GE(a.time, 0.0);
    EXPECT_LE(a.time, 500.0);
    EXPECT_GE(a.type, 0);
    EXPECT_LT(a.type, 12);
  }
}

TEST(ArrivalTest, EveryTypeGetsAFairShare) {
  ArrivalSpec spec;
  spec.span = 1000.0;
  spec.totalTasks = 3600;
  spec.numTaskTypes = 12;
  Rng rng(3);
  const auto arrivals = hcs::workload::generateArrivals(spec, rng);
  std::vector<int> counts(12, 0);
  for (const Arrival& a : arrivals) ++counts[static_cast<std::size_t>(a.type)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), 300.0, 60.0);
  }
}

TEST(ArrivalTest, SpikyPatternConcentratesArrivalsInSpikes) {
  ArrivalSpec spec;
  spec.pattern = ArrivalPattern::Spiky;
  spec.span = 1200.0;
  spec.totalTasks = 6000;
  spec.numSpikes = 4;
  Rng rng(4);
  const auto arrivals = hcs::workload::generateArrivals(spec, rng);
  // Period 300, lull [0,225) at rate r, spike [225,300) at 3r.  Count
  // arrivals in spike windows: expected fraction = 3r*75 / (r*225 + 3r*75)
  // = 0.5.  Without spikes the windows hold only 25% of arrivals.
  std::size_t inSpike = 0;
  for (const Arrival& a : arrivals) {
    const double phase = std::fmod(a.time, 300.0);
    if (phase >= 225.0) ++inSpike;
  }
  const double fraction =
      static_cast<double>(inSpike) / static_cast<double>(arrivals.size());
  EXPECT_NEAR(fraction, 0.5, 0.05);
}

TEST(ArrivalTest, ConstantGapsHavePaperVarianceDiscipline) {
  // §V-B: gap variance is 10% of the mean.  With unit-mean gaps in
  // expected-arrival space, the per-type gap CV^2 should be ~0.1.
  ArrivalSpec spec;
  spec.pattern = ArrivalPattern::Constant;
  spec.span = 10000.0;
  spec.totalTasks = 5000;
  spec.numTaskTypes = 1;
  Rng rng(5);
  const auto arrivals = hcs::workload::generateArrivals(spec, rng);
  ASSERT_GT(arrivals.size(), 1000u);
  hcs::stats::RunningStats gaps;
  for (std::size_t i = 1; i < arrivals.size(); ++i) {
    gaps.add(arrivals[i].time - arrivals[i - 1].time);
  }
  const double cv2 = gaps.variance() / (gaps.mean() * gaps.mean());
  EXPECT_NEAR(cv2, 0.1, 0.03);
}

TEST(ArrivalTest, BurstyGapsRescaleToUnitExponential) {
  // Time-rescaling theorem: mapped through the compensator
  //   Lambda(t) = base * t + peak * width * sqrt(2 pi)
  //               * sum_k [Phi((t - c_k) / width) - Phi(-c_k / width)],
  // the points of an IPPP with intensity lambda are a unit-rate Poisson
  // process, so the rescaled gaps must pass a KS test against Exp(1).
  ArrivalSpec spec;
  spec.pattern = ArrivalPattern::Bursty;
  spec.span = 2000.0;
  spec.numTaskTypes = 4;
  spec.burstBaseRate = 2.0;
  spec.burstPeakRate = 10.0;
  spec.burstWidth = 4.0;
  spec.burstPeriod = 40.0;
  const auto phi = [](double x) {
    return 0.5 * (1.0 + std::erf(x / std::sqrt(2.0)));
  };
  const auto compensator = [&](double t) {
    double bursts = 0.0;
    for (double c = spec.burstPeriod / 2; c < spec.span;
         c += spec.burstPeriod) {
      bursts += phi((t - c) / spec.burstWidth) - phi(-c / spec.burstWidth);
    }
    return spec.burstBaseRate * t + spec.burstPeakRate * spec.burstWidth *
                                        std::sqrt(2.0 * std::numbers::pi) * bursts;
  };
  for (const std::uint64_t seed : {1ULL, 2ULL}) {
    Rng rng(seed);
    const auto arrivals = hcs::workload::generateArrivals(spec, rng);
    ASSERT_GT(arrivals.size(), 5000u);
    std::vector<double> gaps;
    double previous = 0.0;
    for (const Arrival& a : arrivals) {
      const double rescaled = compensator(a.time);
      gaps.push_back(rescaled - previous);
      previous = rescaled;
    }
    std::sort(gaps.begin(), gaps.end());
    const double n = static_cast<double>(gaps.size());
    double d = 0.0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      const double cdf = 1.0 - std::exp(-gaps[i]);
      d = std::max({d, static_cast<double>(i + 1) / n - cdf,
                    cdf - static_cast<double>(i) / n});
    }
    // Asymptotic KS critical value at the 1% level.
    EXPECT_LT(d, 1.628 / std::sqrt(n)) << "seed " << seed;
  }
}

// --- Deadlines (Eq. 4) ------------------------------------------------------------

TEST(DeadlineTest, RespectsEq4Bounds) {
  const PetMatrix pet = PetMatrix::specLike(9);
  DeadlineSpec spec;  // beta in [0.8, 2.5]
  Rng rng(6);
  for (int t = 0; t < pet.numTaskTypes(); ++t) {
    for (int rep = 0; rep < 50; ++rep) {
      const double arrival = 100.0;
      const double deadline =
          hcs::workload::assignDeadline(pet, t, arrival, spec, rng);
      const double slackLo =
          pet.typeMeanAcrossMachines(t) + 0.8 * pet.overallMean();
      const double slackHi =
          pet.typeMeanAcrossMachines(t) + 2.5 * pet.overallMean();
      EXPECT_GE(deadline, arrival + slackLo - 1e-9);
      EXPECT_LE(deadline, arrival + slackHi + 1e-9);
    }
  }
}

TEST(DeadlineTest, RejectsMalformedBetaRange) {
  const PetMatrix pet = PetMatrix::specLike(9);
  Rng rng(1);
  DeadlineSpec bad;
  bad.betaLo = 2.0;
  bad.betaHi = 1.0;
  EXPECT_THROW(hcs::workload::assignDeadline(pet, 0, 0.0, bad, rng),
               std::invalid_argument);
}

// --- Workload ---------------------------------------------------------------------

TEST(WorkloadTest, GenerateIsDeterministicPerSeed) {
  const PetMatrix pet = PetMatrix::specLike(10);
  ArrivalSpec arrival;
  arrival.span = 300.0;
  arrival.totalTasks = 600;
  const Workload a = Workload::generate(pet, arrival, {}, 77);
  const Workload b = Workload::generate(pet, arrival, {}, 77);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.tasks()[i].type, b.tasks()[i].type);
    EXPECT_DOUBLE_EQ(a.tasks()[i].arrival, b.tasks()[i].arrival);
    EXPECT_DOUBLE_EQ(a.tasks()[i].deadline, b.tasks()[i].deadline);
  }
  const Workload c = Workload::generate(pet, arrival, {}, 78);
  EXPECT_NE(a.tasks()[0].arrival, c.tasks()[0].arrival);
}

TEST(WorkloadTest, RejectsMalformedTaskLists) {
  using hcs::workload::TaskSpec;
  EXPECT_THROW(Workload({TaskSpec{0, 5.0, 4.0}}, 1), std::invalid_argument);
  EXPECT_THROW(Workload({TaskSpec{3, 0.0, 1.0}}, 1), std::invalid_argument);
  EXPECT_THROW(
      Workload({TaskSpec{0, 5.0, 9.0}, TaskSpec{0, 1.0, 2.0}}, 1),
      std::invalid_argument);
}

// --- Trace IO ----------------------------------------------------------------------

TEST(TraceIoTest, SaveLoadRoundTripsExactly) {
  const PetMatrix pet = PetMatrix::specLike(11);
  ArrivalSpec arrival;
  arrival.span = 200.0;
  arrival.totalTasks = 300;
  const Workload original = Workload::generate(pet, arrival, {}, 5);
  std::stringstream buffer;
  hcs::workload::saveWorkload(original, buffer);
  const Workload loaded = hcs::workload::loadWorkload(buffer);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.numTaskTypes(), original.numTaskTypes());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.tasks()[i].type, original.tasks()[i].type);
    EXPECT_DOUBLE_EQ(loaded.tasks()[i].arrival, original.tasks()[i].arrival);
    EXPECT_DOUBLE_EQ(loaded.tasks()[i].deadline, original.tasks()[i].deadline);
  }
}

TEST(TraceIoTest, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(hcs::workload::loadWorkload(empty), std::runtime_error);
  std::stringstream badHeader("not-a-workload v9 3\n");
  EXPECT_THROW(hcs::workload::loadWorkload(badHeader), std::runtime_error);
  std::stringstream badRow("hcs-workload v1 2\n0 1.0 oops\n");
  EXPECT_THROW(hcs::workload::loadWorkload(badRow), std::runtime_error);
}

TEST(TraceIoTest, ValuesRoundTripInV2) {
  std::vector<hcs::workload::TaskSpec> tasks = {
      {0, 1.0, 10.0, 1.0}, {1, 2.0, 20.0, 4.0}};
  const Workload original(std::move(tasks), 2);
  std::stringstream buffer;
  hcs::workload::saveWorkload(original, buffer);
  EXPECT_NE(buffer.str().find("hcs-workload v2"), std::string::npos);
  const Workload loaded = hcs::workload::loadWorkload(buffer);
  EXPECT_DOUBLE_EQ(loaded.tasks()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(loaded.tasks()[1].value, 4.0);
}

TEST(TraceIoTest, ReadsLegacyV1TracesWithUnitValues) {
  std::stringstream in(
      "hcs-workload v1 2\n"
      "0 1.5 20.5\n"
      "1 2.5 30.0\n");
  const Workload wl = hcs::workload::loadWorkload(in);
  ASSERT_EQ(wl.size(), 2u);
  EXPECT_DOUBLE_EQ(wl.tasks()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(wl.tasks()[1].value, 1.0);
}

TEST(TraceIoTest, V2RowMissingValueIsRejected) {
  std::stringstream in(
      "hcs-workload v2 1\n"
      "0 1.5 20.5\n");
  EXPECT_THROW(hcs::workload::loadWorkload(in), std::runtime_error);
}

TEST(TraceIoTest, V1RoundTripsThroughSaveAsV2) {
  // A legacy v1 trace loads (values default to 1.0) and re-saves as v2,
  // which then round-trips exactly.
  std::stringstream in(
      "hcs-workload v1 3\n"
      "0 1.5 20.5\n"
      "2 2.5 30\n"
      "1 4 8.25\n");
  const Workload v1 = hcs::workload::loadWorkload(in);
  std::stringstream buffer;
  hcs::workload::saveWorkload(v1, buffer);
  EXPECT_NE(buffer.str().find("hcs-workload v2 3"), std::string::npos);
  const Workload again = hcs::workload::loadWorkload(buffer);
  ASSERT_EQ(again.size(), v1.size());
  for (std::size_t i = 0; i < v1.size(); ++i) {
    EXPECT_EQ(again.tasks()[i].type, v1.tasks()[i].type);
    EXPECT_DOUBLE_EQ(again.tasks()[i].arrival, v1.tasks()[i].arrival);
    EXPECT_DOUBLE_EQ(again.tasks()[i].deadline, v1.tasks()[i].deadline);
    EXPECT_DOUBLE_EQ(again.tasks()[i].value, 1.0);
  }
}

TEST(TraceIoTest, CommentsAndBlankLinesAreSkippedInBothVersions) {
  for (const char* header : {"hcs-workload v1 2", "hcs-workload v2 2"}) {
    const bool v2 = std::string(header).find("v2") != std::string::npos;
    std::stringstream in(std::string(header) +
                         "\n"
                         "# a comment\n"
                         "\n" +
                         (v2 ? "0 1.0 10.0 1.0\n" : "0 1.0 10.0\n") +
                         "# trailing comment\n");
    const Workload wl = hcs::workload::loadWorkload(in);
    EXPECT_EQ(wl.size(), 1u) << header;
  }
}

/// Expects loadWorkload to throw mentioning the (1-based) offending line.
void expectRejectedAtLine(const std::string& text, const char* lineRef) {
  std::stringstream in(text);
  try {
    (void)hcs::workload::loadWorkload(in);
    FAIL() << "accepted malformed trace:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(lineRef), std::string::npos)
        << e.what();
  }
}

TEST(TraceIoTest, MalformedLinesAreRejectedWithLineNumbers) {
  // v1: non-numeric fields, wherever they appear.
  expectRejectedAtLine("hcs-workload v1 2\n0 1.0 10.0\nx 2.0 20.0\n",
                       "line 3");
  expectRejectedAtLine("hcs-workload v1 2\n0 oops 10.0\n", "line 2");
  // v1: too few columns.
  expectRejectedAtLine("hcs-workload v1 2\n0 1.0\n", "line 2");
  // v2: value column malformed.
  expectRejectedAtLine("hcs-workload v2 2\n0 1.0 10.0 cheap\n", "line 2");
  // v2: truncated mid-row after a valid row.
  expectRejectedAtLine("hcs-workload v2 1\n0 1.0 10.0 1.0\n0 2.0\n",
                       "line 3");
}

TEST(TraceIoTest, HeaderVariantsAreRejected) {
  for (const char* header : {
           "hcs-workload v3 2",   // unknown version
           "hcs-workload v1 0",   // no task types
           "hcs-workload v1 -2",  // negative task types
           "hcs-workload v1",     // missing count
           "hcs-workload",        // missing version
           "v1 2",                // missing magic
       }) {
    std::stringstream in(std::string(header) + "\n0 1.0 10.0\n");
    EXPECT_THROW(hcs::workload::loadWorkload(in), std::runtime_error)
        << header;
  }
}

TEST(TraceIoTest, LoadedRowsStillPassWorkloadValidation) {
  // loadWorkload reads through TraceTaskStream, so out-of-range task types
  // and unsorted arrivals are rejected with the offending line.
  expectRejectedAtLine("hcs-workload v1 2\n0 1.0 10.0\n5 1.0 10.0\n",
                       "loadWorkload: task type out of range on line 3");
  expectRejectedAtLine("hcs-workload v1 1\n0 5.0 10.0\n0 1.0 10.0\n",
                       "loadWorkload: out-of-order arrival on line 3");
}

TEST(TraceIoTest, FileOpenErrorsAreReported) {
  EXPECT_THROW(
      hcs::workload::loadWorkloadFile("/nonexistent/dir/trace.txt"),
      std::runtime_error);
  const Workload wl({hcs::workload::TaskSpec{0, 1.0, 2.0}}, 1);
  EXPECT_THROW(
      hcs::workload::saveWorkloadFile(wl, "/nonexistent/dir/trace.txt"),
      std::runtime_error);
}

TEST(WorkloadTest, RejectsNonPositiveValues) {
  using hcs::workload::TaskSpec;
  EXPECT_THROW(Workload({TaskSpec{0, 0.0, 5.0, 0.0}}, 1),
               std::invalid_argument);
  EXPECT_THROW(Workload({TaskSpec{0, 0.0, 5.0, -2.0}}, 1),
               std::invalid_argument);
}

TEST(WorkloadTest, RejectsNonFiniteFieldsByName) {
  // NaN passes the ordered checks above; a NaN deadline would never be
  // reactive-dropped.  Each non-finite field is refused by name.
  using hcs::workload::TaskSpec;
  const auto rejection = [](const TaskSpec& t) -> std::string {
    try {
      const Workload wl({t}, 1);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(rejection(TaskSpec{0, bad, 5.0, 1.0}),
              "Workload: task arrival must be finite");
    EXPECT_EQ(rejection(TaskSpec{0, 0.0, bad, 1.0}),
              "Workload: task deadline must be finite");
    EXPECT_EQ(rejection(TaskSpec{0, 0.0, 5.0, bad}),
              "Workload: task value must be finite");
  }
}

TEST(TraceIoTest, CommentsAndBlankLinesAreSkipped) {
  std::stringstream in(
      "hcs-workload v1 2\n"
      "# a comment\n"
      "\n"
      "0 1.5 20.5\n"
      "1 2.5 30.0\n");
  const Workload wl = hcs::workload::loadWorkload(in);
  EXPECT_EQ(wl.size(), 2u);
  EXPECT_EQ(wl.tasks()[1].type, 1);
}

TEST(TraceIoTest, FileRoundTrip) {
  const PetMatrix pet = PetMatrix::specLike(12);
  ArrivalSpec arrival;
  arrival.span = 100.0;
  arrival.totalTasks = 120;
  const Workload original = Workload::generate(pet, arrival, {}, 6);
  const std::string path = ::testing::TempDir() + "/hcs_trace_test.txt";
  hcs::workload::saveWorkloadFile(original, path);
  const Workload loaded = hcs::workload::loadWorkloadFile(path);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_THROW(hcs::workload::loadWorkloadFile("/nonexistent/p.txt"),
               std::runtime_error);
}

}  // namespace
