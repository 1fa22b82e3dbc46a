#pragma once
// Seeded random-number generation for workload synthesis and simulation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that whole experiments are reproducible from a single trial seed —
// the paper publishes its workload trials for exactly this reason (§V-B).
//
// The engine and every sampler are owned code: they reproduce libstdc++'s
// mt19937_64 and its uniform_real, uniform_int, gamma and exponential
// distributions bit for bit (tests/rng_test.cpp keeps those as the oracle),
// so a seed means the same draws whatever standard library built the binary.
// libm's log, sqrt and pow are the only outside dependency; <random> stays
// out of src/ (a CI step checks it).

#include <array>
#include <cstddef>
#include <cstdint>

namespace hcs::prob {

/// MT19937-64 (Matsumoto and Nishimura): the standard's mt19937_64 word for
/// word — the same seeding recurrence and tempering — with a refill whose
/// twist selects the matrix by mask instead of by branch.
class MersenneTwister64 {
 public:
  explicit MersenneTwister64(std::uint64_t seed);

  std::uint64_t operator()() {
    if (next_ == kStateSize) refill();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kStateSize = 312;

  void refill();

  std::array<std::uint64_t, kStateSize> state_;
  std::size_t next_;
};

/// The distributions the library needs, over one MersenneTwister64.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1): generate_canonical<double, 53> over one 64-bit word.
  /// The word's nearest double can round up to 2^64; that 1.0 becomes the
  /// largest double below 1.
  double uniform01() {
    const double u = static_cast<double>(engine_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

  /// Gamma with the given shape and scale (mean = shape * scale).
  double gamma(double shape, double scale);

  /// Gamma parameterized by mean and shape (scale = mean / shape) — the
  /// form used when generating PET histograms (§V-B).
  double gammaByMeanShape(double mean, double shape) {
    return gamma(shape, mean / shape);
  }

  /// Exponential with the given mean.
  double exponential(double mean);

  /// Derives an independent child generator; useful for giving each
  /// subsystem (arrivals, execution sampling, PET synthesis) its own stream.
  Rng fork();

 private:
  MersenneTwister64 engine_;
};

}  // namespace hcs::prob
