#pragma once
// Seeded random-number generation for workload synthesis and simulation.
//
// Every stochastic component in the library draws from an explicitly seeded
// Rng so that whole experiments are reproducible from a single trial seed —
// the paper publishes its workload trials for exactly this reason (§V-B).

#include <cstdint>
#include <random>

namespace hcs::prob {

/// Thin wrapper over mt19937_64 with the distributions the library needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform01() { return uniform_(engine_); }

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
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
};

}  // namespace hcs::prob
