// Tests for the discrete-PMF machinery (src/prob) and the statistics
// utilities (src/stats) that everything else builds on.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "prob/histogram.h"
#include "prob/pmf.h"
#include "prob/rng.h"
#include "stats/confidence.h"
#include "stats/running_stats.h"

namespace {

using hcs::prob::DiscretePmf;
using hcs::prob::Rng;

double totalMass(const DiscretePmf& pmf) {
  const auto probs = pmf.probs();
  return std::accumulate(probs.begin(), probs.end(), 0.0);
}

// --- Construction -----------------------------------------------------------

TEST(DiscretePmfTest, NormalizesOnConstruction) {
  const DiscretePmf pmf(1, {2.0, 1.0, 1.0});
  EXPECT_NEAR(totalMass(pmf), 1.0, 1e-12);
  EXPECT_NEAR(pmf.probs()[0], 0.5, 1e-12);
}

TEST(DiscretePmfTest, TrimsZeroBinsAtBothEnds) {
  const DiscretePmf pmf(0, {0.0, 0.0, 1.0, 1.0, 0.0});
  EXPECT_EQ(pmf.firstBin(), 2);
  EXPECT_EQ(pmf.size(), 2u);
  EXPECT_EQ(pmf.lastBin(), 3);
}

TEST(DiscretePmfTest, RejectsEmptyAndNegativeAndZeroMass) {
  EXPECT_THROW(DiscretePmf(0, {}), std::invalid_argument);
  EXPECT_THROW(DiscretePmf(0, {0.5, -0.1}), std::invalid_argument);
  EXPECT_THROW(DiscretePmf(0, {0.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(DiscretePmf(0, {1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW(DiscretePmf(0, {1.0}, -1.0), std::invalid_argument);
}

TEST(DiscretePmfTest, PointMassPutsAllMassOnOneBin) {
  const DiscretePmf pmf = DiscretePmf::pointMass(7.0);
  EXPECT_EQ(pmf.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf.minTime(), 7.0);
  EXPECT_DOUBLE_EQ(pmf.mean(), 7.0);
  EXPECT_DOUBLE_EQ(pmf.variance(), 0.0);
}

TEST(DiscretePmfTest, PointMassRoundsToGrid) {
  const DiscretePmf pmf = DiscretePmf::pointMass(7.3, 0.5);
  EXPECT_DOUBLE_EQ(pmf.minTime(), 7.5);
}

TEST(DiscretePmfTest, FromSamplesBuildsNormalizedHistogram) {
  const std::vector<double> samples = {1.0, 1.0, 2.0, 3.0};
  const DiscretePmf pmf = DiscretePmf::fromSamples(samples);
  EXPECT_EQ(pmf.firstBin(), 1);
  EXPECT_EQ(pmf.size(), 3u);
  EXPECT_NEAR(pmf.probs()[0], 0.5, 1e-12);
  EXPECT_NEAR(pmf.probs()[1], 0.25, 1e-12);
  EXPECT_NEAR(pmf.probs()[2], 0.25, 1e-12);
}

TEST(DiscretePmfTest, FromSamplesRejectsBadInput) {
  EXPECT_THROW(DiscretePmf::fromSamples({}), std::invalid_argument);
  const std::vector<double> negative = {-1.0};
  EXPECT_THROW(DiscretePmf::fromSamples(negative), std::invalid_argument);
}

// --- Moments ----------------------------------------------------------------

TEST(DiscretePmfTest, MeanAndVarianceMatchHandComputation) {
  // P(1)=0.5, P(3)=0.5: mean 2, variance 1.
  const DiscretePmf pmf(1, {0.5, 0.0, 0.5});
  EXPECT_DOUBLE_EQ(pmf.mean(), 2.0);
  EXPECT_DOUBLE_EQ(pmf.variance(), 1.0);
  EXPECT_DOUBLE_EQ(pmf.stddev(), 1.0);
}

TEST(DiscretePmfTest, MomentsRespectBinWidth) {
  const DiscretePmf pmf(2, {0.5, 0.5}, 0.5);  // mass at 1.0 and 1.5
  EXPECT_DOUBLE_EQ(pmf.mean(), 1.25);
  EXPECT_NEAR(pmf.variance(), 0.0625, 1e-12);
}

// --- CDF / chance of success (Eq. 2) ---------------------------------------

TEST(DiscretePmfTest, CdfStepsThroughSupport) {
  const DiscretePmf pmf(1, {0.25, 0.25, 0.5});
  EXPECT_DOUBLE_EQ(pmf.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(pmf.cdf(2.0), 0.5);
  EXPECT_DOUBLE_EQ(pmf.cdf(2.7), 0.5);
  EXPECT_DOUBLE_EQ(pmf.cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(pmf.cdf(100.0), 1.0);
}

TEST(DiscretePmfTest, SuccessProbabilityIsCdfAtDeadline) {
  const DiscretePmf pmf(4, {0.2, 0.3, 0.5});
  EXPECT_DOUBLE_EQ(pmf.successProbability(5.0), 0.5);
}

TEST(DiscretePmfTest, QuantileInvertsTheCdf) {
  const DiscretePmf pmf(1, {0.25, 0.25, 0.5});
  EXPECT_DOUBLE_EQ(pmf.quantile(0.2), 1.0);
  EXPECT_DOUBLE_EQ(pmf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(pmf.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(pmf.quantile(1.0), 3.0);
  EXPECT_THROW(pmf.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(pmf.quantile(1.1), std::invalid_argument);
}

// --- Convolution (Eq. 1, Fig. 2) --------------------------------------------

TEST(DiscretePmfTest, ConvolutionOfPointMassesAddsTimes) {
  const DiscretePmf a = DiscretePmf::pointMass(3.0);
  const DiscretePmf b = DiscretePmf::pointMass(4.0);
  const DiscretePmf c = a.convolve(b);
  EXPECT_EQ(c.size(), 1u);
  EXPECT_DOUBLE_EQ(c.minTime(), 7.0);
}

TEST(DiscretePmfTest, ConvolutionMatchesFig2HandExample) {
  // PET of the arriving task: P(1)=.75, P(2)=.125, P(3)=.125 (Fig. 2 left).
  const DiscretePmf pet(1, {0.75, 0.125, 0.125});
  // PCT of the last task on the machine: P(4)=.17, P(5)=.33, P(6)=.50.
  const DiscretePmf lastPct(4, {0.17, 0.33, 0.50});
  const DiscretePmf pct = pet.convolve(lastPct);
  // Support is 5..9.
  EXPECT_EQ(pct.firstBin(), 5);
  EXPECT_EQ(pct.lastBin(), 9);
  EXPECT_NEAR(pct.probs()[0], 0.75 * 0.17, 1e-12);
  EXPECT_NEAR(pct.probs()[1], 0.75 * 0.33 + 0.125 * 0.17, 1e-12);
  EXPECT_NEAR(pct.probs()[2], 0.75 * 0.50 + 0.125 * 0.33 + 0.125 * 0.17,
              1e-12);
  EXPECT_NEAR(pct.probs()[3], 0.125 * 0.50 + 0.125 * 0.33, 1e-12);
  EXPECT_NEAR(pct.probs()[4], 0.125 * 0.50, 1e-12);
  EXPECT_NEAR(totalMass(pct), 1.0, 1e-12);
  // Eq. 2: the chance of success P[PCT <= deadline] at deadlines 4..10.
  const double chances[] = {0.0, 0.1275, 0.39625, 0.83375, 0.9375, 1.0, 1.0};
  for (int d = 4; d <= 10; ++d) {
    EXPECT_NEAR(pct.successProbability(d), chances[d - 4], 1e-12)
        << "deadline " << d;
  }
  // Compound uncertainty (§II): queueing k copies of the task adds k PET
  // variances, so the completion time's spread grows with queue depth.
  DiscretePmf chain = pet.convolve(DiscretePmf::pointMass(0.0));
  double previousStddev = 0.0;
  for (int depth = 1; depth <= 5; ++depth) {
    EXPECT_NEAR(chain.variance(), depth * pet.variance(), 1e-12)
        << "depth " << depth;
    EXPECT_GT(chain.stddev(), previousStddev) << "depth " << depth;
    previousStddev = chain.stddev();
    chain = chain.convolve(pet);
  }
}

TEST(DiscretePmfTest, ConvolutionIsCommutative) {
  const DiscretePmf a(1, {0.3, 0.7});
  const DiscretePmf b(2, {0.5, 0.25, 0.25});
  EXPECT_EQ(a.convolve(b), b.convolve(a));
}

TEST(DiscretePmfTest, ConvolutionMeanIsSumOfMeans) {
  const DiscretePmf a(1, {0.3, 0.2, 0.5});
  const DiscretePmf b(4, {0.1, 0.9});
  EXPECT_NEAR(a.convolve(b).mean(), a.mean() + b.mean(), 1e-12);
}

TEST(DiscretePmfTest, ConvolutionVarianceIsSumOfVariances) {
  const DiscretePmf a(1, {0.3, 0.2, 0.5});
  const DiscretePmf b(4, {0.1, 0.9});
  EXPECT_NEAR(a.convolve(b).variance(), a.variance() + b.variance(), 1e-12);
}

TEST(DiscretePmfTest, ConvolutionRejectsMixedBinWidths) {
  const DiscretePmf a(1, {1.0}, 1.0);
  const DiscretePmf b(1, {1.0}, 0.5);
  EXPECT_THROW(a.convolve(b), std::invalid_argument);
}

TEST(DiscretePmfTest, ConvolutionCapFoldsTailMass) {
  const DiscretePmf a(0, std::vector<double>(100, 1.0));
  const DiscretePmf b(0, std::vector<double>(100, 1.0));
  const DiscretePmf c = a.convolve(b, 50);
  EXPECT_EQ(c.size(), 50u);
  EXPECT_NEAR(totalMass(c), 1.0, 1e-9);
  // Folded tail mass moves earlier in time: the capped PMF is
  // stochastically *smaller* than the exact convolution.
  const DiscretePmf full = a.convolve(b);
  EXPECT_GE(c.cdf(60.0), full.cdf(60.0) - 1e-12);
  EXPECT_LE(c.mean(), full.mean() + 1e-9);
  // Mass below the cap is exact.
  EXPECT_NEAR(c.cdf(30.0), full.cdf(30.0), 1e-12);
}

// --- Conditioning / shifting -----------------------------------------------

TEST(DiscretePmfTest, ShiftedMovesSupport) {
  const DiscretePmf pmf(1, {0.5, 0.5});
  const DiscretePmf moved = pmf.shifted(10);
  EXPECT_EQ(moved.firstBin(), 11);
  EXPECT_DOUBLE_EQ(moved.mean(), pmf.mean() + 10.0);
}

TEST(DiscretePmfTest, ConditionalRemainingRemovesElapsedMass) {
  // P(1)=.5, P(2)=.25, P(3)=.25; after 1 elapsed time unit the remaining
  // time is P(1)=.5, P(2)=.5 (renormalized over X > 1, shifted left by 1).
  const DiscretePmf pmf(1, {0.5, 0.25, 0.25});
  const DiscretePmf remaining = pmf.conditionalRemaining(1.0);
  EXPECT_EQ(remaining.firstBin(), 1);
  EXPECT_EQ(remaining.size(), 2u);
  EXPECT_NEAR(remaining.probs()[0], 0.5, 1e-12);
  EXPECT_NEAR(remaining.probs()[1], 0.5, 1e-12);
}

TEST(DiscretePmfTest, ConditionalRemainingWithZeroElapsedKeepsDistribution) {
  const DiscretePmf pmf(1, {0.5, 0.25, 0.25});
  EXPECT_EQ(pmf.conditionalRemaining(0.0), pmf);
}

TEST(DiscretePmfTest, ConditionalRemainingPastSupportIsOneBin) {
  const DiscretePmf pmf(1, {0.5, 0.5});
  const DiscretePmf remaining = pmf.conditionalRemaining(10.0);
  EXPECT_EQ(remaining.size(), 1u);
  EXPECT_DOUBLE_EQ(remaining.minTime(), 1.0);
}

TEST(DiscretePmfTest, ConditionalRemainingReducesUncertainty) {
  // Conditioning on progress can only narrow the support.
  const DiscretePmf pmf(1, std::vector<double>{0.2, 0.2, 0.2, 0.2, 0.2});
  const DiscretePmf remaining = pmf.conditionalRemaining(2.0);
  EXPECT_LT(remaining.size(), pmf.size());
  EXPECT_NEAR(totalMass(remaining), 1.0, 1e-12);
}

TEST(DiscretePmfTest, CappedIsIdentityWhenUnderLimit) {
  const DiscretePmf pmf(1, {0.5, 0.5});
  EXPECT_EQ(pmf.capped(10), pmf);
  EXPECT_THROW(pmf.capped(0), std::invalid_argument);
}

// --- Sampling ---------------------------------------------------------------

TEST(DiscretePmfTest, SampleStaysInSupportAndMatchesMean) {
  const DiscretePmf pmf(2, {0.25, 0.5, 0.25});
  Rng rng(7);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = pmf.sample(rng);
    ASSERT_GE(x, pmf.minTime());
    ASSERT_LE(x, pmf.maxTime());
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, pmf.mean(), 0.02);
}

// --- Parameterized properties over random PMFs ------------------------------

class PmfPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  DiscretePmf randomPmf(Rng& rng) {
    const int size = static_cast<int>(rng.uniformInt(1, 40));
    std::vector<double> probs;
    probs.reserve(static_cast<std::size_t>(size));
    for (int i = 0; i < size; ++i) probs.push_back(rng.uniform(0.01, 1.0));
    return DiscretePmf(rng.uniformInt(0, 30), std::move(probs));
  }
};

TEST_P(PmfPropertyTest, ConvolutionPreservesMassAndMoments) {
  Rng rng(GetParam());
  const DiscretePmf a = randomPmf(rng);
  const DiscretePmf b = randomPmf(rng);
  const DiscretePmf c = a.convolve(b);
  EXPECT_NEAR(totalMass(c), 1.0, 1e-9);
  EXPECT_NEAR(c.mean(), a.mean() + b.mean(), 1e-7);
  EXPECT_NEAR(c.variance(), a.variance() + b.variance(), 1e-6);
  EXPECT_EQ(c.firstBin(), a.firstBin() + b.firstBin());
  EXPECT_EQ(c.lastBin(), a.lastBin() + b.lastBin());
}

TEST_P(PmfPropertyTest, CdfIsMonotoneFromZeroToOne) {
  Rng rng(GetParam());
  const DiscretePmf pmf = randomPmf(rng);
  double previous = 0.0;
  for (double t = pmf.minTime() - 2.0; t <= pmf.maxTime() + 2.0; t += 0.5) {
    const double c = pmf.cdf(t);
    EXPECT_GE(c, previous - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    previous = c;
  }
  EXPECT_DOUBLE_EQ(pmf.cdf(pmf.maxTime()), 1.0);
}

TEST_P(PmfPropertyTest, ConditionalRemainingIsProperDistribution) {
  Rng rng(GetParam());
  const DiscretePmf pmf = randomPmf(rng);
  for (double elapsed = 0.0; elapsed < pmf.maxTime() + 2.0; elapsed += 1.0) {
    const DiscretePmf remaining = pmf.conditionalRemaining(elapsed);
    EXPECT_NEAR(totalMass(remaining), 1.0, 1e-9);
    EXPECT_GE(remaining.minTime(), 1.0 - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmfPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

// --- Gamma histogram (the paper's PET recipe) -------------------------------

TEST(GammaHistogramTest, MeanTracksRequestedMean) {
  Rng rng(11);
  const DiscretePmf pmf = hcs::prob::gammaHistogramPmf(rng, 12.0, 8.0, 5000);
  EXPECT_NEAR(pmf.mean(), 12.0, 0.5);
}

TEST(GammaHistogramTest, LowShapeGivesMoreSpread) {
  Rng rng1(13);
  Rng rng2(13);
  const DiscretePmf spiky = hcs::prob::gammaHistogramPmf(rng1, 20.0, 1.5, 4000);
  const DiscretePmf tight = hcs::prob::gammaHistogramPmf(rng2, 20.0, 19.0, 4000);
  EXPECT_GT(spiky.stddev(), tight.stddev());
}

TEST(GammaHistogramTest, SamplesAreFlooredAtOneBin) {
  Rng rng(17);
  const DiscretePmf pmf = hcs::prob::gammaHistogramPmf(rng, 1.0, 1.0, 2000);
  EXPECT_GE(pmf.minTime(), 1.0 - 1e-12);
}

TEST(GammaHistogramTest, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(hcs::prob::gammaHistogramPmf(rng, -1.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(hcs::prob::gammaHistogramPmf(rng, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(hcs::prob::gammaHistogramPmf(rng, 1.0, 2.0, 0),
               std::invalid_argument);
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, IsDeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RngTest, GammaMeanMatchesShapeTimesScale) {
  Rng rng(3);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += rng.gamma(4.0, 2.5);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.25);
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(3.0, 7.0);
    ASSERT_GE(x, 3.0);
    ASSERT_LT(x, 7.0);
  }
  EXPECT_THROW(rng.uniform(7.0, 3.0), std::invalid_argument);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  // The child stream should differ from the parent's continuation.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform01() == child.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- RunningStats ------------------------------------------------------------

TEST(RunningStatsTest, MatchesHandComputedMoments) {
  hcs::stats::RunningStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStatsTest, EmptyAndSingleSampleAreSafe) {
  hcs::stats::RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.stderrMean(), 0.0);
}

TEST(RunningStatsTest, MergeEqualsSequentialAccumulation) {
  hcs::stats::RunningStats all, left, right;
  hcs::prob::Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-5.0, 5.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

// --- Confidence intervals ----------------------------------------------------

TEST(ConfidenceTest, TCriticalMatchesTables) {
  EXPECT_NEAR(hcs::stats::tCritical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(hcs::stats::tCritical(0.95, 29), 2.045, 1e-3);
  EXPECT_NEAR(hcs::stats::tCritical(0.99, 10), 3.169, 1e-3);
  EXPECT_NEAR(hcs::stats::tCritical(0.90, 5), 2.015, 1e-3);
  // Large df approaches the normal quantile 1.96.
  EXPECT_NEAR(hcs::stats::tCritical(0.95, 1000), 1.962, 5e-3);
}

TEST(ConfidenceTest, TCriticalRejectsBadInput) {
  EXPECT_THROW(hcs::stats::tCritical(0.95, 0), std::invalid_argument);
  EXPECT_THROW(hcs::stats::tCritical(0.0, 5), std::invalid_argument);
  EXPECT_THROW(hcs::stats::tCritical(1.0, 5), std::invalid_argument);
}

TEST(ConfidenceTest, IntervalCoversTrueMeanMostOfTheTime) {
  // 95% CI over repeated samples of a uniform should cover the true mean
  // about 95% of the time; check a loose lower bound.
  hcs::prob::Rng rng(33);
  int covered = 0;
  constexpr int kReps = 400;
  for (int rep = 0; rep < kReps; ++rep) {
    hcs::stats::RunningStats stats;
    for (int i = 0; i < 20; ++i) stats.add(rng.uniform(0.0, 1.0));
    const auto ci = hcs::stats::meanConfidenceInterval(stats);
    if (ci.contains(0.5)) ++covered;
  }
  EXPECT_GT(covered, kReps * 85 / 100);
}

TEST(ConfidenceTest, IntervalShrinksWithMoreSamples) {
  hcs::prob::Rng rng(35);
  hcs::stats::RunningStats small, large;
  for (int i = 0; i < 10; ++i) small.add(rng.uniform(0.0, 1.0));
  for (int i = 0; i < 1000; ++i) large.add(rng.uniform(0.0, 1.0));
  EXPECT_LT(hcs::stats::meanConfidenceInterval(large).halfWidth,
            hcs::stats::meanConfidenceInterval(small).halfWidth);
}

}  // namespace
