// Tests for prob::Rng (src/prob/rng.*).  Three kinds of check:
//   - the engine's standard-mandated value, on every toolchain;
//   - the owned engine and samplers against libstdc++'s, bit for bit over
//     millions of draws (the oracle they were written from);
//   - one-sample KS tests of each sampler against its CDF, which hold for
//     any correct sampler, not only for these exact bits.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "prob/rng.h"

#if defined(__GLIBCXX__) && defined(_GLIBCXX_RELEASE) && _GLIBCXX_RELEASE >= 11
#define HCS_RNG_ORACLE 1
#include <random>
#else
#define HCS_RNG_ORACLE 0
#endif

namespace {

using hcs::prob::MersenneTwister64;
using hcs::prob::Rng;

// --- The standard's check value -----------------------------------------------

TEST(RngEngineTest, TenThousandthDrawIsTheStandardsValue) {
  // [rand.predef]: the 10000th consecutive invocation of a default-
  // constructed mt19937_64 (seed 5489) produces 9981545732273789042.
  MersenneTwister64 engine(5489);
  std::uint64_t word = 0;
  for (int i = 0; i < 10000; ++i) word = engine();
  EXPECT_EQ(word, 9981545732273789042ULL);
}

TEST(RngEngineTest, CopiesReplayTheSameStream) {
  Rng rng(42);
  for (int i = 0; i < 500; ++i) rng.uniform01();  // straddle a refill
  Rng copy = rng;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gamma(2.5, 1.0)),
              std::bit_cast<std::uint64_t>(copy.gamma(2.5, 1.0)));
  }
}

TEST(RngEngineTest, RejectsBadParameters) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.uniformInt(2, 1), std::invalid_argument);
  EXPECT_THROW(rng.gamma(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(rng.gamma(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

// --- libstdc++ oracle -------------------------------------------------------------

#if HCS_RNG_ORACLE

/// Rng as it was written over the standard library: std::mt19937_64 and a
/// fresh std:: distribution per call.
class StdRng {
 public:
  explicit StdRng(std::uint64_t seed) : engine_(seed) {}

  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }
  double gamma(double shape, double scale) {
    return std::gamma_distribution<double>(shape, scale)(engine_);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }
  StdRng fork() {
    const std::uint64_t hi = engine_();
    const std::uint64_t lo = engine_();
    return StdRng((hi << 32) ^ lo ^ 0x9e3779b97f4a7c15ULL);
  }

 private:
  std::mt19937_64 engine_;
};

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }
std::uint64_t bitsOf(std::int64_t x) { return static_cast<std::uint64_t>(x); }
std::uint64_t bitsOf(std::uint64_t x) { return x; }

/// Draws `n` pairs and fails at the first pair that differs in any bit.
template <typename Owned, typename Oracle>
void expectSameDraws(std::size_t n, Owned owned, Oracle oracle) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto got = owned();
    const auto want = oracle();
    if (bitsOf(got) != bitsOf(want)) {
      FAIL() << "draw " << i << ": owned " << got << ", libstdc++ " << want;
    }
  }
}

constexpr std::size_t kDraws = 1'000'000;

TEST(RngOracleTest, EngineMatchesStdMt19937_64) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{5489},
        std::uint64_t{2019}, ~std::uint64_t{0}}) {
    SCOPED_TRACE(seed);
    MersenneTwister64 owned(seed);
    std::mt19937_64 oracle(seed);
    expectSameDraws(kDraws, [&] { return owned(); },
                    [&] { return std::uint64_t{oracle()}; });
  }
}

class RngGammaOracleTest : public ::testing::TestWithParam<double> {};

TEST_P(RngGammaOracleTest, MatchesStdGammaDistribution) {
  const double shape = GetParam();
  const double scale = 1.7;
  Rng owned(1000 + static_cast<std::uint64_t>(shape * 1000));
  StdRng oracle(1000 + static_cast<std::uint64_t>(shape * 1000));
  expectSameDraws(kDraws, [&] { return owned.gamma(shape, scale); },
                  [&] { return oracle.gamma(shape, scale); });
}

// Shapes below 1 take the pow(u, 1/shape) branch; 0.999 sits just under the
// switch and 1 exactly on it.
INSTANTIATE_TEST_SUITE_P(Shapes, RngGammaOracleTest,
                         ::testing::Values(0.3, 0.5, 0.999, 1.0, 2.5, 4.0,
                                           10.0, 100.0));

TEST(RngOracleTest, ExponentialMatchesStdExponentialDistribution) {
  for (const double mean : {0.01, 1.0, 50.0}) {
    SCOPED_TRACE(mean);
    Rng owned(77);
    StdRng oracle(77);
    expectSameDraws(kDraws, [&] { return owned.exponential(mean); },
                    [&] { return oracle.exponential(mean); });
  }
}

TEST(RngOracleTest, UniformsMatchStdUniformRealDistribution) {
  Rng owned(3);
  StdRng oracle(3);
  expectSameDraws(10 * kDraws, [&] { return owned.uniform01(); },
                  [&] { return oracle.uniform01(); });
  expectSameDraws(kDraws, [&] { return owned.uniform(-3.5, 17.25); },
                  [&] { return oracle.uniform(-3.5, 17.25); });
}

TEST(RngOracleTest, UniformIntMatchesStdUniformIntDistribution) {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  // The last range spans all 2^64 values, which takes the word unscaled.
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {0, 0}, {0, 11}, {-5, 5}, {0, (std::int64_t{1} << 62) + 12345},
      {kMin, 0}, {kMin, kMax}};
  for (const auto& [lo, hi] : ranges) {
    SCOPED_TRACE(::testing::Message() << "[" << lo << ", " << hi << "]");
    Rng owned(91);
    StdRng oracle(91);
    expectSameDraws(kDraws, [&] { return owned.uniformInt(lo, hi); },
                    [&] { return oracle.uniformInt(lo, hi); });
  }
}

/// Draw `k` of a sequence that cycles through every sampler.
template <typename R>
double mixedDraw(R& rng, std::size_t k) {
  switch (k % 5) {
    case 0: return rng.gamma(0.5 + static_cast<double>(k % 7), 2.0);
    case 1: return rng.exponential(3.0);
    case 2: return static_cast<double>(rng.uniformInt(-9, 9));
    case 3: return rng.uniform(1.0, 2.0);
    default: return rng.uniform01();
  }
}

TEST(RngOracleTest, ForksAndMixedCallsStayInStep) {
  // Every sampler in turn, on parents and forks: any state a sampler kept
  // between calls (a spare normal, a half-used word) would desynchronize.
  Rng owned(2019);
  StdRng oracle(2019);
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE(round);
    Rng ownedChild = owned.fork();
    StdRng oracleChild = oracle.fork();
    Rng& o = round % 2 == 0 ? owned : ownedChild;
    StdRng& s = round % 2 == 0 ? oracle : oracleChild;
    std::size_t k = 0;
    expectSameDraws(500, [&] { return mixedDraw(o, k); },
                    [&] { return mixedDraw(s, k++); });
    if (HasFatalFailure()) return;
  }
}

#else

TEST(RngOracleTest, SamplersMatchLibstdcxx) {
  GTEST_SKIP() << "the oracle needs libstdc++ 11 or later, whose "
                  "uniform_int_distribution uses Lemire's method; the owned "
                  "samplers reproduce that library's algorithms, so another "
                  "standard library draws different values by design";
}

#endif  // HCS_RNG_ORACLE

// --- KS tests of the distributions ----------------------------------------------

/// Regularized lower incomplete gamma P(a, x): the power series below
/// x = a + 1, else 1 − Q(a, x) by Lentz's continued fraction.
double regularizedGammaP(double a, double x) {
  if (x <= 0.0) return 0.0;
  const double prefix = std::exp(a * std::log(x) - x - std::lgamma(a));
  if (x < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (int k = 1; k < 10000 && term > sum * 1e-17; ++k) {
      term *= x / (a + k);
      sum += term;
    }
    return prefix * sum;
  }
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int k = 1; k < 10000; ++k) {
    const double an = -k * (k - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) break;
  }
  return 1.0 - prefix * h;
}

constexpr std::size_t kKsDraws = 20'000;

/// sqrt(n) · D_n for the sample against `cdf`.
template <typename Cdf>
double scaledKs(std::vector<double> sample, Cdf cdf) {
  std::sort(sample.begin(), sample.end());
  const double n = static_cast<double>(sample.size());
  double d = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const double f = cdf(sample[i]);
    d = std::max({d, static_cast<double>(i + 1) / n - f,
                  f - static_cast<double>(i) / n});
  }
  return d * std::sqrt(n);
}

template <typename Draw>
std::vector<double> drawSample(Draw draw) {
  std::vector<double> sample(kKsDraws);
  for (double& x : sample) x = draw();
  return sample;
}

// Asymptotic KS critical value at the 0.1% level.
constexpr double kKsCritical = 1.95;

TEST(RngKsTest, IncompleteGammaMatchesClosedForms) {
  for (const double x : {0.01, 0.3, 1.0, 1.5, 2.0, 4.0, 9.0, 30.0}) {
    SCOPED_TRACE(x);
    EXPECT_NEAR(regularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-13);
    EXPECT_NEAR(regularizedGammaP(0.5, x), std::erf(std::sqrt(x)), 1e-13);
    EXPECT_NEAR(regularizedGammaP(2.0, x), 1.0 - (1.0 + x) * std::exp(-x),
                1e-13);
  }
}

class RngGammaKsTest : public ::testing::TestWithParam<double> {};

TEST_P(RngGammaKsTest, MatchesRegularizedIncompleteGamma) {
  const double shape = GetParam();
  const double scale = 2.0;
  Rng rng(31);
  const auto sample = drawSample([&] { return rng.gamma(shape, scale); });
  EXPECT_LT(scaledKs(sample,
                     [&](double x) {
                       return regularizedGammaP(shape, x / scale);
                     }),
            kKsCritical);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RngGammaKsTest,
                         ::testing::Values(0.5, 1.0, 4.0, 10.0));

TEST(RngKsTest, GammaAgainstAWrongShapeFails) {
  // The test has the power to see a 10% shape error at this n.
  Rng rng(31);
  const auto sample = drawSample([&] { return rng.gamma(4.0, 1.0); });
  EXPECT_GT(scaledKs(sample,
                     [](double x) { return regularizedGammaP(4.4, x); }),
            kKsCritical);
}

TEST(RngKsTest, ExponentialMatchesItsCdf) {
  const double mean = 3.0;
  Rng rng(37);
  const auto sample = drawSample([&] { return rng.exponential(mean); });
  EXPECT_LT(
      scaledKs(sample, [&](double x) { return 1.0 - std::exp(-x / mean); }),
      kKsCritical);
}

TEST(RngKsTest, Uniform01MatchesItsCdf) {
  Rng rng(41);
  const auto sample = drawSample([&] { return rng.uniform01(); });
  EXPECT_LT(scaledKs(sample, [](double x) { return x; }), kKsCritical);
  EXPECT_GE(*std::min_element(sample.begin(), sample.end()), 0.0);
  EXPECT_LT(*std::max_element(sample.begin(), sample.end()), 1.0);
}

}  // namespace
