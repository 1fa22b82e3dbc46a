// Bit-exactness tests for the arena-backed PMF kernels (src/prob/kernels)
// and the prefix-sum CDF cache.
//
// The destination-passing kernels and the binary-search CDF paths promise
// BYTE-identical results to the original scalar algorithms.  This file
// retains straight-line naive reference implementations of those algorithms
// (the fully clamped O(n·m) convolution loop, erase-based trim+normalize,
// linear CDF scans) and drives thousands of randomized cases through both
// sides, comparing every bin with exact floating-point equality.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "prob/arena.h"
#include "prob/kernels.h"
#include "prob/pmf.h"
#include "prob/rng.h"

namespace {

using hcs::prob::DiscretePmf;
using hcs::prob::PmfArena;
using hcs::prob::Rng;

// --- Naive reference implementations (the seed's algorithms) -----------------

struct RawPmf {
  std::int64_t first = 0;
  std::vector<double> probs;
  double width = 1.0;
};

/// The seed's trimAndNormalize: find bounds, two erase() shifts, a separate
/// accumulate over the trimmed range, then an in-place divide.
RawPmf naiveTrimNormalize(std::int64_t first, std::vector<double> probs,
                          double width) {
  auto isPositive = [](double p) { return p > 0.0; };
  auto head = std::find_if(probs.begin(), probs.end(), isPositive);
  EXPECT_NE(head, probs.end());
  auto tail = std::find_if(probs.rbegin(), probs.rend(), isPositive).base();
  first += std::distance(probs.begin(), head);
  probs.erase(tail, probs.end());
  probs.erase(probs.begin(), head);
  const double total = std::accumulate(probs.begin(), probs.end(), 0.0);
  for (double& p : probs) p /= total;
  return RawPmf{first, std::move(probs), width};
}

/// The fully clamped convolution loop — every (i, j) pair visited in
/// lexicographic order, no zero-row skip, no branch-free fast path.
RawPmf naiveConvolveRaw(const RawPmf& a, const DiscretePmf& b,
                        std::size_t maxBins) {
  const std::size_t fullSize = a.probs.size() + b.size() - 1;
  const std::size_t outSize =
      std::min(fullSize, std::max<std::size_t>(maxBins, 1));
  std::vector<double> out(outSize, 0.0);
  for (std::size_t i = 0; i < a.probs.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t k = std::min(i + j, outSize - 1);
      out[k] += a.probs[i] * b.probs()[j];
    }
  }
  return naiveTrimNormalize(a.first + b.firstBin(), std::move(out), a.width);
}

RawPmf asRaw(const DiscretePmf& a) {
  return RawPmf{a.firstBin(),
                std::vector<double>(a.probs().begin(), a.probs().end()),
                a.binWidth()};
}

RawPmf naiveConvolve(const DiscretePmf& a, const DiscretePmf& b,
                     std::size_t maxBins) {
  return naiveConvolveRaw(asRaw(a), b, maxBins);
}

RawPmf naiveCapped(const DiscretePmf& a, std::size_t maxBins) {
  if (a.size() <= maxBins) {
    return RawPmf{a.firstBin(),
                  std::vector<double>(a.probs().begin(), a.probs().end()),
                  a.binWidth()};
  }
  std::vector<double> out(a.probs().begin(),
                          a.probs().begin() +
                              static_cast<std::ptrdiff_t>(maxBins));
  out.back() += std::accumulate(
      a.probs().begin() + static_cast<std::ptrdiff_t>(maxBins),
      a.probs().end(), 0.0);
  return naiveTrimNormalize(a.firstBin(), std::move(out), a.binWidth());
}

RawPmf naiveConditionalRemaining(const DiscretePmf& a, double elapsed) {
  const double width = a.binWidth();
  const auto elapsedBins =
      static_cast<std::int64_t>(std::floor(elapsed / width + 1e-9));
  const std::int64_t keepFrom = elapsedBins + 1;
  if (keepFrom > a.lastBin()) {
    return RawPmf{1, {1.0}, width};
  }
  const std::int64_t skip = std::max<std::int64_t>(keepFrom - a.firstBin(), 0);
  std::vector<double> kept(a.probs().begin() + skip, a.probs().end());
  return naiveTrimNormalize(a.firstBin() + skip - elapsedBins,
                            std::move(kept), width);
}

/// The seed's linear cdf scan.
double naiveCdfShiftedBy(const DiscretePmf& pmf, std::int64_t bins, double t) {
  const double cutoff = t + pmf.binWidth() * 1e-6;
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    const double timeAtBin =
        static_cast<double>(pmf.firstBin() + bins +
                            static_cast<std::int64_t>(i)) *
        pmf.binWidth();
    if (timeAtBin >= cutoff) break;
    acc += pmf.probs()[i];
  }
  return std::min(acc, 1.0);
}

double naiveQuantile(const DiscretePmf& pmf, double p) {
  double acc = 0.0;
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    acc += pmf.probs()[i];
    if (acc + DiscretePmf::kMassTolerance >= p) return pmf.timeAt(i);
  }
  return pmf.maxTime();
}

/// Bit-exact comparison: every bin must match to the last ulp.
void expectBitIdentical(const DiscretePmf& got, const RawPmf& want,
                        const char* what) {
  ASSERT_EQ(got.firstBin(), want.first) << what;
  ASSERT_EQ(got.size(), want.probs.size()) << what;
  ASSERT_EQ(got.binWidth(), want.width) << what;
  for (std::size_t i = 0; i < want.probs.size(); ++i) {
    ASSERT_EQ(std::memcmp(&got.probs()[i], &want.probs[i], sizeof(double)), 0)
        << what << ": bin " << i << " got " << got.probs()[i] << " want "
        << want.probs[i];
  }
}

DiscretePmf randomPmf(Rng& rng, int maxBinsInSupport = 120,
                      double width = 1.0) {
  const int size = static_cast<int>(rng.uniformInt(1, maxBinsInSupport));
  std::vector<double> probs;
  probs.reserve(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) {
    // ~25% interior zero bins exercise the zero-row skip and trimming.
    const double p =
        rng.uniform01() < 0.25 ? 0.0 : rng.uniform(1e-6, 1.0);
    probs.push_back(p);
  }
  // Positive ends so the support is exactly [0, size).
  probs.front() = rng.uniform(0.1, 1.0);
  probs.back() = rng.uniform(0.1, 1.0);
  const auto first = rng.uniformInt(0, 120) - 60;  // negative offsets too
  return DiscretePmf(first, std::move(probs), width);
}

// --- Convolution -------------------------------------------------------------

TEST(KernelBitExactness, ConvolveMatchesNaiveReference) {
  Rng rng(1001);
  PmfArena arena;
  int tiledCases = 0;
  for (int c = 0; c < 600; ++c) {
    const DiscretePmf a = randomPmf(rng);
    const DiscretePmf b = randomPmf(rng);
    if (a.size() * b.size() >= 512) ++tiledCases;
    const RawPmf want = naiveConvolve(a, b, DiscretePmf::kDefaultMaxBins);
    expectBitIdentical(a.convolve(b), want, "member convolve");
    expectBitIdentical(hcs::prob::convolveInto(arena, a, b), want,
                       "convolveInto");
  }
  // The random mix must actually exercise the tiled (register-blocked) path.
  EXPECT_GT(tiledCases, 100);
}

TEST(KernelBitExactness, CappedConvolveFoldsIdentically) {
  Rng rng(1002);
  PmfArena arena;
  for (int c = 0; c < 400; ++c) {
    const DiscretePmf a = randomPmf(rng);
    const DiscretePmf b = randomPmf(rng);
    // Caps from "absurdly tight" to "just above full size".
    const std::size_t full = a.size() + b.size() - 1;
    const std::size_t cap = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<int>(full) + 4));
    const RawPmf want = naiveConvolve(a, b, cap);
    expectBitIdentical(a.convolve(b, cap), want, "member capped convolve");
    expectBitIdentical(hcs::prob::convolveInto(arena, a, b, cap), want,
                       "capped convolveInto");
  }
}

TEST(KernelBitExactness, ConvolveInPlaceChainsMatchFoldedNaive) {
  Rng rng(1003);
  PmfArena arena;
  for (int c = 0; c < 50; ++c) {
    DiscretePmf acc = randomPmf(rng, 40);
    RawPmf want = asRaw(acc);
    for (int step = 0; step < 6; ++step) {
      const DiscretePmf pet = randomPmf(rng, 40);
      want = naiveConvolveRaw(want, pet, DiscretePmf::kDefaultMaxBins);
      hcs::prob::convolveInPlace(arena, acc, pet);
      expectBitIdentical(acc, want, "convolveInPlace chain");
    }
  }
}

TEST(KernelBitExactness, TileBoundarySizesAreExact) {
  // Sizes straddling the 16-bin tile width and the tiled-kernel threshold.
  Rng rng(1004);
  PmfArena arena;
  for (std::size_t na : {1u, 2u, 15u, 16u, 17u, 31u, 33u, 48u, 64u}) {
    for (std::size_t nb : {1u, 7u, 8u, 16u, 17u, 32u, 65u}) {
      std::vector<double> pa(na), pb(nb);
      for (double& p : pa) p = rng.uniform(0.01, 1.0);
      for (double& p : pb) p = rng.uniform(0.01, 1.0);
      const DiscretePmf a(-3, std::move(pa));
      const DiscretePmf b(5, std::move(pb));
      const RawPmf want = naiveConvolve(a, b, DiscretePmf::kDefaultMaxBins);
      expectBitIdentical(hcs::prob::convolveInto(arena, a, b), want,
                         "tile boundary");
    }
  }
}

// --- capped / conditionalRemaining / pointMass -------------------------------

TEST(KernelBitExactness, CappedIntoMatchesNaive) {
  Rng rng(1005);
  PmfArena arena;
  for (int c = 0; c < 400; ++c) {
    const DiscretePmf a = randomPmf(rng);
    const std::size_t cap = static_cast<std::size_t>(
        rng.uniformInt(1, static_cast<int>(a.size()) + 4));
    const RawPmf want = naiveCapped(a, cap);
    expectBitIdentical(a.capped(cap), want, "member capped");
    expectBitIdentical(hcs::prob::cappedInto(arena, a, cap), want,
                       "cappedInto");
  }
}

TEST(KernelBitExactness, ConditionalRemainingIntoMatchesNaive) {
  Rng rng(1006);
  PmfArena arena;
  for (int c = 0; c < 500; ++c) {
    const DiscretePmf a = randomPmf(rng);
    // Elapsed from before the support to past its end (the overdue branch);
    // supports may sit entirely below zero (negative offsets).
    const double elapsed = rng.uniform(0.0, std::max(0.0, a.maxTime()) + 5.0);
    const RawPmf want = naiveConditionalRemaining(a, elapsed);
    expectBitIdentical(a.conditionalRemaining(elapsed), want,
                       "member conditionalRemaining");
    expectBitIdentical(
        hcs::prob::conditionalRemainingInto(arena, a, elapsed), want,
        "conditionalRemainingInto");
    // The fused re-anchoring shift must equal shifted() exactly.
    const std::int64_t shift = rng.uniformInt(0, 40) - 20;
    const DiscretePmf anchored =
        hcs::prob::conditionalRemainingInto(arena, a, elapsed, shift);
    EXPECT_EQ(anchored, a.conditionalRemaining(elapsed).shifted(shift));
  }
}

TEST(KernelBitExactness, PointMassIntoMatchesConstructor) {
  PmfArena arena;
  for (std::int64_t bin : {-7, 0, 3, 1000}) {
    EXPECT_EQ(hcs::prob::pointMassInto(arena, bin, 0.5),
              DiscretePmf(bin, {1.0}, 0.5));
  }
  EXPECT_THROW(hcs::prob::pointMassInto(arena, 0, 0.0),
               std::invalid_argument);
}

// --- Prefix-sum CDF cache ----------------------------------------------------

TEST(PrefixCdf, CdfQuantileSampleAreBitIdenticalWithAndWithoutCache) {
  Rng rng(1007);
  for (int c = 0; c < 500; ++c) {
    const DiscretePmf plain = randomPmf(rng);
    DiscretePmf cached = plain;
    ASSERT_FALSE(cached.hasCdfCache());
    cached.ensureCdfCache();
    ASSERT_TRUE(cached.hasCdfCache());
    // Probe around the support, at bin edges, and far outside.
    for (int probe = 0; probe < 12; ++probe) {
      const double t =
          rng.uniform(plain.minTime() - 3.0, plain.maxTime() + 3.0);
      const std::int64_t shift = rng.uniformInt(0, 60) - 30;
      ASSERT_EQ(cached.cdf(t), naiveCdfShiftedBy(plain, 0, t));
      ASSERT_EQ(cached.cdf(t), plain.cdf(t));
      ASSERT_EQ(cached.cdfShiftedBy(shift, t),
                naiveCdfShiftedBy(plain, shift, t));
      ASSERT_EQ(cached.cdfShiftedBy(shift, t), plain.cdfShiftedBy(shift, t));
    }
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const double edge = plain.timeAt(i);
      ASSERT_EQ(cached.cdf(edge), plain.cdf(edge));
    }
    for (int probe = 0; probe < 12; ++probe) {
      const double p = rng.uniform01();
      ASSERT_EQ(cached.quantile(p), naiveQuantile(plain, p));
      ASSERT_EQ(cached.quantile(p), plain.quantile(p));
    }
    ASSERT_EQ(cached.quantile(0.0), plain.quantile(0.0));
    ASSERT_EQ(cached.quantile(1.0), plain.quantile(1.0));
    // Identical inverse-CDF sampling: same rng stream, same draws.
    Rng sampleA(42 + static_cast<std::uint64_t>(c));
    Rng sampleB(42 + static_cast<std::uint64_t>(c));
    for (int draw = 0; draw < 8; ++draw) {
      ASSERT_EQ(cached.sample(sampleA), plain.sample(sampleB));
    }
  }
}

TEST(PrefixCdf, CopiesDropTheCacheAndEqualityIgnoresIt) {
  const DiscretePmf a(2, {0.25, 0.5, 0.25});
  a.ensureCdfCache();
  const DiscretePmf copy = a;
  EXPECT_FALSE(copy.hasCdfCache());
  EXPECT_EQ(copy, a);  // derived cache state does not affect equality
  DiscretePmf assigned(0, {1.0});
  assigned.ensureCdfCache();
  assigned = a;  // stale table must not survive the assignment
  EXPECT_FALSE(assigned.hasCdfCache());
  EXPECT_EQ(assigned, a);
  // Moves carry the table along (the distribution moves with it).
  DiscretePmf b(2, {0.25, 0.5, 0.25});
  b.ensureCdfCache();
  const DiscretePmf moved = std::move(b);
  EXPECT_TRUE(moved.hasCdfCache());
  EXPECT_EQ(moved.cdf(3.0), 0.75);
}

TEST(PrefixCdf, ConcurrentEnsureIsSafe) {
  Rng rng(1008);
  const DiscretePmf pmf = randomPmf(rng, 500);
  const double probe = pmf.minTime() + 0.6 * (pmf.maxTime() - pmf.minTime());
  const double want = pmf.cdf(probe);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      pmf.ensureCdfCache();
      for (int i = 0; i < 100; ++i) {
        if (pmf.cdf(probe) != want) std::abort();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(pmf.hasCdfCache());
  EXPECT_EQ(pmf.cdf(probe), want);
}

// --- Batched Eq. 2 -----------------------------------------------------------

TEST(SuccessProbabilityBatch, MatchesPerPmfEvaluation) {
  Rng rng(1009);
  std::vector<DiscretePmf> pcts;
  for (int i = 0; i < 16; ++i) pcts.push_back(randomPmf(rng));
  std::vector<const DiscretePmf*> ptrs;
  for (const DiscretePmf& p : pcts) ptrs.push_back(&p);
  for (int probe = 0; probe < 50; ++probe) {
    const double deadline = rng.uniform(-40.0, 120.0);
    const std::vector<double> got =
        hcs::prob::successProbabilityBatch(ptrs, deadline);
    ASSERT_EQ(got.size(), pcts.size());
    for (std::size_t i = 0; i < pcts.size(); ++i) {
      ASSERT_EQ(got[i], pcts[i].successProbability(deadline));
    }
  }
}

// --- Point-CDF estimate of a convolution (certified Eq. 2 decisions) ---------

TEST(ConvolvedCdfEstimate, MatchesExactChanceAndCertifiesExactDecisions) {
  Rng rng(1010);
  PmfArena arena;
  for (int c = 0; c < 300; ++c) {
    const double w = c % 3 == 0 ? 0.5 : 1.0;
    const DiscretePmf a = randomPmf(rng, 300, w);
    const DiscretePmf b = randomPmf(rng, 300, w);
    const std::int64_t shift = rng.uniformInt(0, 400) - 200;
    const DiscretePmf exact = hcs::prob::convolveInto(arena, a, b);
    const std::int64_t lo = a.firstBin() + b.firstBin() + shift;
    const std::int64_t hi =
        lo + static_cast<std::int64_t>(a.size() + b.size()) - 2;
    std::vector<double> deadlines = {(lo - 50) * w, (hi + 50) * w, lo * w,
                                     hi * w, (lo - 1) * w, (hi + 1) * w};
    for (int k = 0; k < 8; ++k) {
      const double bin = static_cast<double>(rng.uniformInt(lo - 3, hi + 3));
      deadlines.push_back(bin * w);          // on a grid point
      deadlines.push_back((bin + 0.5) * w);  // half a bin either side
      deadlines.push_back((bin - 0.5) * w);
    }
    for (const double t : deadlines) {
      const double want = exact.cdfShiftedBy(shift, t);
      const double got = hcs::prob::convolvedCdfEstimate(a, b, shift, t);
      ASSERT_LE(std::abs(got - want), 1e-12)
          << "case " << c << " t=" << t << " want " << want;
      // Bars within the slack of the chance must fall back to the exact
      // path; bars well clear of it certify the exact path's decision.
      for (const double bar : {want, want - 1e-10, want + 1e-10}) {
        ASSERT_FALSE(
            hcs::prob::certifiedCdfAtMost(a, b, shift, t, bar).has_value())
            << "case " << c << " t=" << t;
      }
      for (const double bar : {want - 1e-6, want + 1e-6, rng.uniform01()}) {
        const std::optional<bool> below =
            hcs::prob::certifiedCdfAtMost(a, b, shift, t, bar);
        if (std::abs(bar - want) >= 1e-6) {
          ASSERT_TRUE(below.has_value()) << "case " << c << " t=" << t;
        }
        if (below.has_value()) {
          ASSERT_EQ(*below, want <= bar) << "case " << c << " t=" << t;
        }
      }
    }
  }
}

TEST(ConvolvedCdfEstimate, CappedConvolutionsAreNeverCertified) {
  const std::size_t cap = DiscretePmf::kDefaultMaxBins;
  const DiscretePmf a(0, std::vector<double>(cap / 2 + 1, 1.0));
  const DiscretePmf b(0, std::vector<double>(cap / 2 + 1, 1.0));
  ASSERT_GT(a.size() + b.size() - 1, cap);
  for (const double t : {-10.0, 0.0, 100.0, 2048.0, 5000.0}) {
    for (const double bar : {-1.0, 0.0, 0.5, 1.0, 2.0}) {
      EXPECT_FALSE(hcs::prob::certifiedCdfAtMost(a, b, 0, t, bar).has_value())
          << "t=" << t << " bar=" << bar;
    }
  }
  // One bin smaller and the same comparisons certify again.
  const DiscretePmf c(0, std::vector<double>(cap / 2, 1.0));
  ASSERT_LE(a.size() + c.size() - 1, cap);
  EXPECT_EQ(hcs::prob::certifiedCdfAtMost(a, c, 0, -10.0, 0.5), true);
  EXPECT_EQ(hcs::prob::certifiedCdfAtMost(a, c, 0, 5000.0, 0.5), false);
}

// --- Support-CDF bounds (Eq. 2 decided from a support interval) --------------

TEST(SupportCdfBounds, BracketTheExactChanceAndDecideExactly) {
  Rng rng(2024);
  PmfArena arena;
  const std::size_t cap = DiscretePmf::kDefaultMaxBins;
  int capped = 0;
  for (int c = 0; c < 300; ++c) {
    // Every tenth case is wide enough that the convolution hits the cap.
    const bool wide = c % 10 == 0;
    const DiscretePmf a = randomPmf(rng, wide ? 2600 : 200);
    const DiscretePmf b = randomPmf(rng, wide ? 2600 : 200);
    if (a.size() + b.size() - 1 > cap) ++capped;
    const DiscretePmf exact = hcs::prob::convolveInto(arena, a, b);
    // The support interval may be wider than a's support (tailBounds'
    // `hi` stays conservative under capping).
    const std::int64_t lo = a.firstBin();
    const std::int64_t hi = a.lastBin() + rng.uniformInt(0, 3);
    const std::int64_t outLo = lo + b.firstBin();
    const std::int64_t outHi = hi + b.lastBin();
    for (int k = 0; k < 12; ++k) {
      const double t =
          static_cast<double>(rng.uniformInt(outLo - 2, outHi + 2)) +
          (k % 3 == 0 ? 0.5 : 0.0);
      const double chance = exact.cdfShiftedBy(0, t);
      const double lower = b.cdfShiftedBy(hi, t);
      const double upper = b.cdfShiftedBy(lo, t);
      // Capping folds mass onto bin a.first + b.first + cap − 1, which the
      // PET shifted to `lo` reaches too while b fits in the cap.
      ASSERT_LE(lower, chance + 1e-12) << "case " << c << " t=" << t;
      ASSERT_GE(upper, chance - 1e-12) << "case " << c << " t=" << t;
      for (const double bar : {chance, chance - 1e-10, chance + 1e-10,
                               chance - 1e-6, chance + 1e-6, lower - 1e-6,
                               upper + 1e-6, rng.uniform01()}) {
        const std::optional<bool> below =
            hcs::prob::supportCdfAtMost(b, lo, hi, t, bar);
        if (below.has_value()) {
          ASSERT_EQ(*below, chance <= bar)
              << "case " << c << " t=" << t << " bar=" << bar;
        }
      }
    }
  }
  EXPECT_GT(capped, 0);
}

TEST(SupportCdfBounds, CappedConvolutionNeverDecidesBelowFromTheUpperBound) {
  // A narrow base against a PET wider than the cap: the cap folds the tail
  // into the last kept bin, so a deadline past that bin sees every bit of
  // mass although the PET shifted to the base's left end has not finished.
  const std::size_t cap = DiscretePmf::kDefaultMaxBins;
  const DiscretePmf a(0, std::vector<double>(8, 1.0));
  const DiscretePmf b(0, std::vector<double>(cap + 1000, 1.0));
  PmfArena arena;
  const DiscretePmf exact = hcs::prob::convolveInto(arena, a, b);
  const double t = static_cast<double>(cap - 1);
  ASSERT_EQ(exact.cdfShiftedBy(0, t), 1.0);
  const double upper = b.cdfShiftedBy(a.firstBin(), t);
  ASSERT_LT(upper, 0.999);
  EXPECT_NE(hcs::prob::supportCdfAtMost(b, a.firstBin(), a.lastBin(), t, 0.999),
            std::optional<bool>(true));
}

// --- Elapsed-bin keep bound ---------------------------------------------------

TEST(ElapsedKeepBound, NeverExceedsTheExactChanceAfterTheHeadAges) {
  // The proactive pass's chain for a queued task: the head's remaining time
  // conditioned at elapsed bin e, then the tasks queued ahead, then the
  // task's own PET, read at anchor = δ + e (δ the head's offset).
  Rng rng(77);
  PmfArena arena;
  auto chanceAt = [&](const DiscretePmf& head,
                      const std::vector<DiscretePmf>& chain, std::int64_t e,
                      std::int64_t delta, double deadline) {
    DiscretePmf acc = hcs::prob::conditionalRemainingInto(
        arena, head, static_cast<double>(e));
    for (const DiscretePmf& pet : chain) {
      hcs::prob::convolveInPlace(arena, acc, pet);
    }
    const double chance = acc.cdfShiftedBy(delta + e, deadline);
    arena.recycle(std::move(acc));
    return chance;
  };
  int certifiedChecks = 0;
  int pointMassChecks = 0;
  for (int c = 0; c < 150; ++c) {
    DiscretePmf head = randomPmf(rng, 40);
    head = head.shifted(rng.uniformInt(0, 8) - head.firstBin());
    std::vector<DiscretePmf> chain;
    const int queued = static_cast<int>(rng.uniformInt(1, 4));
    for (int q = 0; q < queued; ++q) {
      DiscretePmf pet = randomPmf(rng, 30);
      chain.push_back(pet.shifted(rng.uniformInt(0, 6) - pet.firstBin()));
    }
    const std::int64_t e0 = rng.uniformInt(0, head.lastBin());
    const std::int64_t delta0 = rng.uniformInt(0, 50);
    const double deadline =
        static_cast<double>(delta0 + rng.uniformInt(0, 150)) + 0.5 * (c % 2);
    const double mass0 = hcs::prob::massAbove(head, e0);
    if (!(mass0 > 0.0)) continue;
    const double chance0 = chanceAt(head, chain, e0, delta0, deadline);
    const double chanceNext = chanceAt(head, chain, e0, delta0 + 1, deadline);
    for (std::int64_t e = e0; e <= head.lastBin() + 2; ++e) {
      const double mass = hcs::prob::massAbove(head, e);
      for (const std::int64_t delta : {delta0 - 1, delta0, delta0 + 1}) {
        const double recorded = delta <= delta0 ? chance0 : chanceNext;
        const double exact = chanceAt(head, chain, e, delta, deadline);
        const double bound =
            hcs::prob::elapsedKeepBound(recorded, mass0, mass);
        ASSERT_LE(bound, exact + 1e-12)
            << "case " << c << " e0=" << e0 << " e=" << e
            << " delta=" << delta;
        if (mass == 0.0) {
          // The point-mass regime: nothing certifies, whatever the bar.
          ++pointMassChecks;
          ASSERT_FALSE(
              hcs::prob::elapsedKeepCertified(recorded, mass0, mass, -1.0));
        } else if (hcs::prob::elapsedKeepCertified(recorded, mass0, mass,
                                                   exact - 1e-6)) {
          ++certifiedChecks;
        }
      }
    }
  }
  EXPECT_GT(certifiedChecks, 0);
  EXPECT_GT(pointMassChecks, 0);
}

TEST(ElapsedKeepBound, SlackScalesWithTheRemovedMass) {
  // The bound is tight when all the mass conditioning removed (bins e0+1 …
  // e) would have met the deadline: then chance0 = (S0 − S) + q·S for the
  // later chance q.  A recorded chance0 that is an estimate one part in
  // 1e12 high is magnified by S0/S = 1e4 to 1e-8 — past an unscaled 1e-9
  // slack, inside the scaled one.
  const double mass0 = 1.0;
  const double mass = 1e-4;
  const double q = 0.3;
  const double estimate = (mass0 - mass) + q * mass + 1e-12;
  EXPECT_GT(hcs::prob::elapsedKeepBound(estimate, mass0, mass), q + 5e-9);
  EXPECT_FALSE(
      hcs::prob::elapsedKeepCertified(estimate, mass0, mass, q + 5e-9));
  EXPECT_FALSE(hcs::prob::elapsedKeepCertified(estimate, mass0, mass, q));
  EXPECT_TRUE(
      hcs::prob::elapsedKeepCertified(estimate, mass0, mass, q - 2e-5));
  EXPECT_EQ(hcs::prob::massAbove(DiscretePmf(1, {0.25, 0.5, 0.25}), 1), 0.75);
  EXPECT_EQ(hcs::prob::massAbove(DiscretePmf(1, {0.25, 0.5, 0.25}), 3), 0.0);
  EXPECT_EQ(hcs::prob::massAbove(DiscretePmf(1, {0.25, 0.5, 0.25}), -4), 1.0);
}

// --- Arena -------------------------------------------------------------------

TEST(PmfArenaTest, RecycledCapacityIsReusedWithoutAllocation) {
  PmfArena arena;
  std::vector<double> buf = arena.acquire(100);
  const double* data = buf.data();
  arena.recycle(std::move(buf));
  std::vector<double> again = arena.acquire(80);  // fits in the 100-capacity
  EXPECT_EQ(again.data(), data);
  EXPECT_EQ(arena.stats().acquires, 2u);
  EXPECT_EQ(arena.stats().allocations, 1u);
  EXPECT_TRUE(std::all_of(again.begin(), again.end(),
                          [](double v) { return v == 0.0; }));
}

TEST(PmfArenaTest, SteadyStateConvolutionChainsAreAllocationFree) {
  PmfArena arena;
  Rng rng(1010);
  const DiscretePmf pet = randomPmf(rng, 40);
  // Mimic a mapping event's chain: availability ⊛ PET ⊛ PET ⊛ PET, with
  // every dead intermediate recycled.  After a warm-up pass the pool serves
  // every buffer.
  auto runChain = [&] {
    DiscretePmf acc = hcs::prob::pointMassInto(arena, 10, 1.0);
    for (int step = 0; step < 4; ++step) {
      hcs::prob::convolveInPlace(arena, acc, pet);
    }
    arena.recycle(std::move(acc));
  };
  runChain();
  runChain();
  arena.resetStats();
  for (int event = 0; event < 50; ++event) runChain();
  EXPECT_GT(arena.stats().acquires, 0u);
  EXPECT_EQ(arena.stats().allocations, 0u);
}

TEST(PmfArenaTest, ThreadLocalArenasAreDistinct) {
  PmfArena* main = &PmfArena::local();
  PmfArena* other = nullptr;
  std::thread([&] { other = &PmfArena::local(); }).join();
  EXPECT_NE(main, other);
}

}  // namespace
