#pragma once
// Arrival-pattern generation (§V-B, Fig. 6).
//
// Two patterns:
//  (A) Constant rate — per task type, inter-arrival gaps drawn from a Gamma
//      distribution whose variance is 10% of its mean.
//  (B) Variable rate ("spiky") — the default: periodic spikes during which
//      the arrival rate rises to three times the base (lull) rate; each
//      spike lasts one third of the lull period.
//
// Both are realized through a piecewise-constant RateProfile and
// time-rescaling: gaps are drawn in *expected-arrival-index* space (mean 1,
// variance 0.1) and mapped back through the inverse cumulative rate, which
// preserves the Gamma inter-arrival discipline within every constant-rate
// segment while following the profile exactly.
//
// ArrivalProcess is the only sampler: generateArrivals runs its cursors
// eagerly on one shared RNG, ArrivalStream lazily on snapshots of it.

#include <cstdint>
#include <optional>
#include <vector>

#include "prob/rng.h"
#include "sim/types.h"

namespace hcs::workload {

enum class ArrivalPattern {
  Constant,
  Spiky,
  /// Inhomogeneous Poisson point process (IPPP) with a Gaussian burst-train
  /// intensity, realized by Lewis-Shedler thinning (scenarios/
  /// burst_stress.json and examples/burst_stress.cpp drive it):
  ///   lambda(t) = base + peak * sum_k exp(-((t - c_k) / width)^2 / 2)
  /// with burst centers c_k at period/2, 3*period/2, ...  Rates are
  /// absolute (tasks per time unit across ALL types); task types are drawn
  /// uniformly per arrival, so `totalTasks` is ignored.
  Bursty,
};

/// A piecewise-constant arrival-rate function on [0, span).
class RateProfile {
 public:
  struct Segment {
    sim::Time start = 0;
    sim::Time end = 0;
    double rate = 0;  ///< tasks per time unit
  };

  explicit RateProfile(std::vector<Segment> segments);

  /// Flat profile delivering `totalTasks` over `span`.
  static RateProfile constant(sim::Time span, double totalTasks);

  /// Spiky profile delivering `totalTasks` over `span` with `numSpikes`
  /// spikes of `spikeFactor` x the lull rate, each spike lasting one third
  /// of the lull period (paper defaults).
  static RateProfile spiky(sim::Time span, double totalTasks, int numSpikes,
                           double spikeFactor = 3.0);

  sim::Time span() const { return segments_.back().end; }

  double rateAt(sim::Time t) const;

  /// Integral of the rate over [0, t] (expected arrivals by t).
  double cumulative(sim::Time t) const;

  /// Total expected arrivals over the whole span.
  double totalExpected() const { return cumulative(span()); }

  /// Inverse of cumulative(): the time by which `expected` arrivals have
  /// accumulated.  Returns span() if `expected` exceeds the total.
  sim::Time invertCumulative(double expected) const;

 private:
  std::vector<Segment> segments_;
  std::vector<double> cumAtSegmentStart_;
};

/// One generated arrival (deadlines are attached later; see deadline.h).
struct Arrival {
  sim::TaskType type = 0;
  sim::Time time = 0;
};

/// One class of a task-value mix: a `share` of the tasks is worth `value`.
struct ValueClass {
  double value = 1.0;
  double share = 1.0;
};

struct ArrivalSpec {
  ArrivalPattern pattern = ArrivalPattern::Spiky;
  sim::Time span = 1200;         ///< workload time span (time units)
  std::size_t totalTasks = 1500; ///< across all task types
  int numTaskTypes = 12;
  int numSpikes = 6;
  double spikeFactor = 3.0;
  /// Gamma gap discipline: variance of the unit-mean gap distribution
  /// (paper: variance is 10% of the mean).
  double gapVarianceFraction = 0.1;

  /// Bursty (IPPP) pattern only — see ArrivalPattern::Bursty.
  double burstBaseRate = 0.0;  ///< lull arrivals per time unit (all types)
  double burstPeakRate = 0.0;  ///< extra rate at a burst center
  double burstWidth = 1.0;     ///< burst standard deviation (time units)
  double burstPeriod = 0.0;    ///< burst spacing (time units)

  /// Task-value mix (priority-aware pruning, §VII); shares sum to 1.  Empty
  /// = every task is worth 1 and no value is drawn.
  std::vector<ValueClass> values;
};

/// One task's value from `classes` (non-empty): one uniform draw, the
/// first class whose cumulative share exceeds it, else the last class.
double drawValue(const std::vector<ValueClass>& classes, prob::Rng& rng);

/// Per-type Gamma-gap cursors (constant/spiky) and the bursty
/// Lewis-Shedler cursor, drawing from a caller's RNG.
class ArrivalProcess {
 public:
  /// Throws std::invalid_argument on a malformed spec.
  explicit ArrivalProcess(const ArrivalSpec& spec);

  struct TypeCursor {
    double position = 0.0;  ///< expected-arrival index of the last draw
    bool started = false;
  };
  /// The type's next arrival time; false, drawing nothing more, once past
  /// the span.
  bool next(TypeCursor& cursor, prob::Rng& rng, sim::Time& time) const;
  /// Draws a whole type sequence without mapping any gap to a time.
  void skipType(prob::Rng& rng) const;

  struct BurstCursor {
    sim::Time time = 0.0;  ///< the last thinning candidate
  };
  /// The next accepted bursty arrival; false once past the span.
  bool next(BurstCursor& cursor, prob::Rng& rng, Arrival& out) const;

 private:
  double firstPosition(prob::Rng& rng) const;
  double burstIntensity(double t) const;

  ArrivalSpec spec_;
  std::optional<RateProfile> profile_;  ///< constant/spiky: shared shape
  double totalExpected_ = 0.0;
  double gapShape_ = 0.0;
  double gapScale_ = 0.0;
  double ceiling_ = 0.0;  ///< bursty: the thinning majorant
  double reach_ = 0.0;    ///< bursty: how far one burst's tail counts
};

/// The merged, time-sorted arrival list for all task types: each type's
/// cursor runs to its end on `rng`, type by type, and its run is merged
/// into the lower types' on (time, type).  Bursty arrivals come out
/// sorted.
std::vector<Arrival> generateArrivals(const ArrivalSpec& spec, prob::Rng& rng);

/// generateArrivals(spec, rng) drawn lazily, bit for bit, in O(types)
/// memory: each type's cursor runs on a snapshot of `rng` taken where the
/// eager loop starts that type (found by skipType), and the cursors are
/// k-way-merged on (time, type).  The bursty loop streams directly.
class ArrivalStream {
 public:
  ArrivalStream(const ArrivalSpec& spec, prob::Rng rng);

  /// The next arrival; false once every type is exhausted.
  bool next(Arrival& out);

 private:
  struct Lane {
    prob::Rng rng;
    ArrivalProcess::TypeCursor cursor;
    sim::Time nextTime = 0;
    bool done = false;
  };

  ArrivalProcess process_;
  prob::Rng rng_;             ///< bursty draws; else the snapshot source
  std::vector<Lane> lanes_;   ///< one per type; empty when bursty
  ArrivalProcess::BurstCursor burst_;
};

}  // namespace hcs::workload
