#pragma once
// Discrete probability mass functions over a uniform time grid.
//
// The paper models every task's execution time on every machine type as a
// Probability Mass Function (PMF) obtained by histogramming samples of a
// Gamma distribution (Section V-B).  Completion-time distributions (PCT,
// Eq. 1) are formed by convolving PMFs along a machine queue, and the
// "chance of success" (Eq. 2) is the CDF of a PCT evaluated at the task's
// deadline.  This header provides that machinery.
//
// Representation: point masses on a uniform grid.  Bin `i` of a PMF with
// offset `first()` and width `w` carries probability `prob(i)` at time
// `(first() + i) * w`.  Point-mass semantics make convolution exact:
// mass at time a convolved with mass at time b lands at time a + b.
// The bin probabilities live in one contiguous double array; an optional
// prefix-sum table (see ensureCdfCache) rides alongside for O(log n) CDF
// queries.  The hot-path kernels over this layout are in prob/kernels.h.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hcs::prob {

class Rng;
class PmfArena;

namespace detail {

struct PmfKernelAccess;

/// Lazily built prefix-sum table for O(log n) CDF queries, attached to an
/// immutable PMF.  table()[i] is the mass of the first i bins accumulated
/// left to right — the exact value a linear scan's accumulator holds after
/// i additions — so binary searches over it reproduce the linear scans bit
/// for bit.
///
/// Built at most once per PMF (PMFs are immutable after construction);
/// publication is an atomic pointer CAS so concurrent readers of a shared
/// PMF (e.g. parallel trials querying one PET matrix) may race to build
/// without ever observing a torn table.  Copies do not inherit the table —
/// they rebuild on demand — which keeps PMF copies as cheap as before the
/// cache existed.
class CdfCache {
 public:
  CdfCache() = default;
  ~CdfCache();
  CdfCache(const CdfCache&) noexcept {}
  CdfCache(CdfCache&& other) noexcept;
  CdfCache& operator=(const CdfCache& other) noexcept;
  CdfCache& operator=(CdfCache&& other) noexcept;

  /// The table, or nullptr when not built yet.
  const std::vector<double>* get() const {
    return table_.load(std::memory_order_acquire);
  }

  /// Builds (at most once) and returns the table for `probs`.
  const std::vector<double>& ensure(std::span<const double> probs) const;

  void invalidate();

 private:
  mutable std::atomic<const std::vector<double>*> table_{nullptr};
};

}  // namespace detail

/// A probability mass function over a uniform time grid.
///
/// Invariants: `probs()` is non-empty, every entry is >= 0, first and last
/// entries are > 0 (no dangling zero bins at either end), and the total mass
/// is 1 within `kMassTolerance` (enforced by normalize(); constructors
/// normalize by default).
class DiscretePmf {
 public:
  /// Total-mass tolerance accepted by validity checks.
  static constexpr double kMassTolerance = 1e-9;

  /// Default cap on support size; convolution results larger than the cap
  /// get their tail mass folded into the final retained bin.  Folded mass
  /// moves *earlier* in time, so a capped PCT is optimistic about extreme
  /// tails — the cap is set high enough that realistic machine queues never
  /// reach it (a queue must accumulate ~4096 bins of support first).
  static constexpr std::size_t kDefaultMaxBins = 4096;

  /// Constructs a PMF from bin probabilities starting at bin index
  /// `firstBin` on a grid of width `binWidth`.  The mass is normalized to 1.
  /// Throws std::invalid_argument if `probs` is empty, contains a negative
  /// entry, sums to ~0, or if `binWidth <= 0`.
  DiscretePmf(std::int64_t firstBin, std::vector<double> probs,
              double binWidth = 1.0);

  /// A degenerate PMF: all mass at `time` (rounded to the nearest bin).
  static DiscretePmf pointMass(double time, double binWidth = 1.0);

  /// Builds a histogram PMF from raw samples (all must be >= 0).
  /// Equivalent to the paper's 500-sample Gamma histograms.
  static DiscretePmf fromSamples(std::span<const double> samples,
                                 double binWidth = 1.0);

  // --- Accessors -----------------------------------------------------------

  std::int64_t firstBin() const { return first_; }
  std::int64_t lastBin() const {
    return first_ + static_cast<std::int64_t>(probs_.size()) - 1;
  }
  double binWidth() const { return width_; }
  std::size_t size() const { return probs_.size(); }
  std::span<const double> probs() const { return probs_; }

  /// Time value of the i-th bin (0-based within the support).
  double timeAt(std::size_t i) const {
    return static_cast<double>(first_ + static_cast<std::int64_t>(i)) * width_;
  }
  double minTime() const { return timeAt(0); }
  double maxTime() const { return timeAt(probs_.size() - 1); }

  // --- Moments -------------------------------------------------------------

  double mean() const;
  double variance() const;
  double stddev() const;

  // --- Probabilities -------------------------------------------------------

  /// P[X <= t]  (with a half-bin-width tolerance so that grid-aligned
  /// deadlines include their own bin).
  double cdf(double t) const;

  /// Exactly shifted(bins).cdf(t), without materializing the shifted PMF:
  /// lets callers keep one relative-grid PMF and evaluate it at any
  /// absolute anchor.
  double cdfShiftedBy(std::int64_t bins, double t) const;

  /// Chance of success per Eq. 2: P[completion <= deadline].
  double successProbability(double deadline) const { return cdf(deadline); }

  /// Smallest grid time t with P[X <= t] >= p.
  double quantile(double p) const;

  /// Builds the prefix-sum CDF table (idempotent, thread-safe).  With the
  /// table in place, cdf/cdfShiftedBy/quantile/sample answer in O(log n)
  /// binary searches instead of O(n) scans — bit-identically, because the
  /// table entries are the linear scans' exact intermediate accumulators.
  /// PMFs queried once are better off without it (the build is itself one
  /// O(n) pass plus an allocation), so the table is built only on request,
  /// for long-lived, repeatedly queried PMFs: PET matrix entries build it
  /// at construction (their CDFs and inverse-CDF samples run for the whole
  /// experiment), while the PCT cache's short-lived memo entries measure
  /// faster without it.  Returns the table: entry i is the mass of the
  /// first i bins (size() + 1 entries).
  std::span<const double> ensureCdfCache() const {
    return cdf_.ensure(probs_);
  }

  /// Whether the prefix-sum table has been built (for tests/benchmarks).
  bool hasCdfCache() const { return cdf_.get() != nullptr; }

  // --- Transformations (all return new PMFs) --------------------------------

  /// Convolution (Eq. 1): distribution of the sum of two independent
  /// variables.  Both operands must share the same bin width.
  /// Support is capped at `maxBins`; excess tail mass folds into the last
  /// retained bin.
  DiscretePmf convolve(const DiscretePmf& other,
                       std::size_t maxBins = kDefaultMaxBins) const;

  /// Shift in time by a whole number of bins (may be negative; the
  /// support may move below zero — completion *times* in the simulator are
  /// absolute, so negative supports are legal for intermediate math).
  DiscretePmf shifted(std::int64_t bins) const;

  /// Remaining-time distribution after `elapsed` time units of execution:
  /// P[X - e | X > e] with e rounded down to the grid.  Used to rebuild a
  /// machine queue's PCT when its head task has been running for a while
  /// (Section II: dropping shortens queues and reduces compound
  /// uncertainty).  If the condition removes all mass (task overdue), the
  /// result is a point mass one bin wide — "should finish any moment now".
  DiscretePmf conditionalRemaining(double elapsed) const;

  /// Exactly conditionalRemaining(elapsed).mean(), without materializing
  /// the intermediate PMF — the scalar the expected-ready estimate needs
  /// for a busy machine's running task.
  double conditionalRemainingMean(double elapsed) const;

  /// Exactly {conditionalRemaining(elapsed).firstBin(), …lastBin()} without
  /// materializing the PMF: the support bounds that let completion-chance
  /// comparisons be decided by interval arithmetic instead of convolution.
  std::pair<std::int64_t, std::int64_t> conditionalRemainingBounds(
      double elapsed) const;

  /// Folds all mass beyond `maxBins` bins into the final retained bin.
  DiscretePmf capped(std::size_t maxBins) const;

  // --- Sampling ------------------------------------------------------------

  /// Draws a concrete time from this PMF (inverse-CDF on the grid).
  double sample(Rng& rng) const;

  /// Distributions are equal when their supports and probabilities match;
  /// the lazily built CDF table is derived state and does not participate.
  bool operator==(const DiscretePmf& other) const {
    return first_ == other.first_ && width_ == other.width_ &&
           probs_ == other.probs_;
  }

 private:
  /// Tag for internally produced probability vectors (convolutions, slices
  /// of already-validated PMFs): skips the per-element validation pass but
  /// still trims and normalizes identically.
  struct Internal {};
  DiscretePmf(Internal, std::int64_t firstBin, std::vector<double> probs,
              double binWidth);
  /// As above with the total mass already known — kernels that compute the
  /// ascending-index sum as a byproduct (convolveAddTiled) hand it over so
  /// normalization skips its own serial scan.  `total` must equal the
  /// ascending-index accumulation over `probs` bit for bit.
  DiscretePmf(Internal, std::int64_t firstBin, std::vector<double> probs,
              double binWidth, double total);

  void trimAndNormalize();
  void trimAndNormalize(double total);

  /// The destination-passing kernels (prob/kernels.cpp) build PMFs straight
  /// from arena buffers; the arena reclaims dead PMFs' buffers.
  friend struct detail::PmfKernelAccess;
  friend class PmfArena;

  std::int64_t first_ = 0;
  std::vector<double> probs_;
  double width_ = 1.0;
  detail::CdfCache cdf_;
};

}  // namespace hcs::prob
