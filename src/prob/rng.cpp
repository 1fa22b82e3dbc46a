#include "prob/rng.h"

#include <cmath>
#include <stdexcept>

namespace hcs::prob {

namespace {

constexpr std::size_t kShift = 156;  // MT19937-64's middle word offset m
constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ULL;
constexpr std::uint64_t kUpperMask = ~std::uint64_t{0} << 31;
constexpr std::uint64_t kLowerMask = ~kUpperMask;

/// One twist of the recurrence: `(y & 1) ? a : 0` as a mask, so the refill
/// loop carries no data-dependent branch.
constexpr std::uint64_t twist(std::uint64_t shifted, std::uint64_t upper,
                              std::uint64_t lower) {
  const std::uint64_t y = (upper & kUpperMask) | (lower & kLowerMask);
  return shifted ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrixA);
}

/// Standard normals by Marsaglia's polar method, as libstdc++'s
/// normal_distribution draws them: each accepted pair returns y·mult and
/// keeps x·mult for the next call on the same sampler.
class PolarNormal {
 public:
  double operator()(Rng& rng) {
    if (hasSpare_) {
      hasSpare_ = false;
      return spare_;
    }
    double x, y, r2;
    do {
      x = 2.0 * rng.uniform01() - 1.0;
      y = 2.0 * rng.uniform01() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    spare_ = x * mult;
    hasSpare_ = true;
    return y * mult;
  }

 private:
  double spare_ = 0.0;
  bool hasSpare_ = false;
};

}  // namespace

MersenneTwister64::MersenneTwister64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateSize; ++i) {
    const std::uint64_t x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
  next_ = kStateSize;
}

void MersenneTwister64::refill() {
  constexpr std::size_t n = kStateSize;
  std::size_t k = 0;
  for (; k < n - kShift; ++k) {
    state_[k] = twist(state_[k + kShift], state_[k], state_[k + 1]);
  }
  for (; k < n - 1; ++k) {
    state_[k] = twist(state_[k + kShift - n], state_[k], state_[k + 1]);
  }
  state_[n - 1] = twist(state_[kShift - 1], state_[n - 1], state_[0]);
  next_ = 0;
}

double Rng::uniform(double lo, double hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniform: hi < lo");
  return lo + (hi - lo) * uniform01();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  if (hi < lo) throw std::invalid_argument("Rng::uniformInt: hi < lo");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  std::uint64_t offset;
  if (span == ~std::uint64_t{0}) {
    offset = engine_();  // the full 64-bit range: every word is a result
  } else {
    // Lemire's nearly divisionless method ("Fast Random Integer Generation
    // in an Interval", ACM TOMACS 2019): the high word of word × range,
    // rejecting the low words below 2^64 mod range.
    using Wide = unsigned __int128;
    const std::uint64_t range = span + 1;
    Wide product = Wide{engine_()} * range;
    if (static_cast<std::uint64_t>(product) < range) {
      const std::uint64_t threshold = (std::uint64_t{0} - range) % range;
      while (static_cast<std::uint64_t>(product) < threshold) {
        product = Wide{engine_()} * range;
      }
    }
    offset = static_cast<std::uint64_t>(product >> 64);
  }
  return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
}

double Rng::gamma(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    throw std::invalid_argument("Rng::gamma: shape and scale must be positive");
  }
  // Marsaglia and Tsang, "A Simple Method for Generating Gamma Variables"
  // (ACM TOMS 2000), over a polar normal whose spare lives for this call
  // only.  A shape below 1 samples shape + 1 and scales by u^(1/shape).
  const double boosted = shape < 1.0 ? shape + 1.0 : shape;
  const double a1 = boosted - 1.0 / 3.0;
  const double a2 = 1.0 / std::sqrt(9.0 * a1);
  PolarNormal normal;
  double u, v, n;
  do {
    do {
      n = normal(*this);
      v = 1.0 + a2 * n;
    } while (v <= 0.0);
    v = v * v * v;
    u = uniform01();
  } while (u > 1.0 - 0.0331 * n * n * n * n &&
           std::log(u) > 0.5 * n * n + a1 * (1.0 - v + std::log(v)));
  if (shape == boosted) return a1 * v * scale;
  do {
    u = uniform01();
  } while (u == 0.0);
  return std::pow(u, 1.0 / shape) * a1 * v * scale;
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) {
    throw std::invalid_argument("Rng::exponential: mean must be positive");
  }
  // Divides by the rate, as libstdc++ does: multiplying by the mean would
  // round differently.
  const double rate = 1.0 / mean;
  return -std::log(1.0 - uniform01()) / rate;
}

Rng Rng::fork() {
  // Two draws give a full 64-bit child seed with negligible correlation.
  const std::uint64_t hi = engine_();
  const std::uint64_t lo = engine_();
  return Rng((hi << 32) ^ lo ^ 0x9e3779b97f4a7c15ULL);
}

}  // namespace hcs::prob
