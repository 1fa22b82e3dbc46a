#include "workload/arrival.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcs::workload {

RateProfile::RateProfile(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  if (segments_.empty()) {
    throw std::invalid_argument("RateProfile: no segments");
  }
  double cum = 0.0;
  sim::Time cursor = 0.0;
  cumAtSegmentStart_.reserve(segments_.size());
  for (const Segment& s : segments_) {
    if (s.end <= s.start || s.rate < 0.0) {
      throw std::invalid_argument("RateProfile: malformed segment");
    }
    if (std::abs(s.start - cursor) > 1e-9) {
      throw std::invalid_argument("RateProfile: segments must be contiguous");
    }
    cumAtSegmentStart_.push_back(cum);
    cum += s.rate * (s.end - s.start);
    cursor = s.end;
  }
}

RateProfile RateProfile::constant(sim::Time span, double totalTasks) {
  if (span <= 0.0 || totalTasks <= 0.0) {
    throw std::invalid_argument("RateProfile::constant: invalid parameters");
  }
  return RateProfile({Segment{0.0, span, totalTasks / span}});
}

RateProfile RateProfile::spiky(sim::Time span, double totalTasks,
                               int numSpikes, double spikeFactor) {
  if (span <= 0.0 || totalTasks <= 0.0 || numSpikes <= 0 ||
      spikeFactor < 1.0) {
    throw std::invalid_argument("RateProfile::spiky: invalid parameters");
  }
  // Each period = lull + spike, spike = lull / 3 (paper: "Each spike lasts
  // for one third of the lull period").
  const sim::Time period = span / numSpikes;
  const sim::Time lull = period * 3.0 / 4.0;
  const sim::Time spike = period / 4.0;
  // Base rate so the expected total matches totalTasks:
  //   numSpikes * (lull * r + spike * spikeFactor * r) = totalTasks.
  const double r =
      totalTasks / (numSpikes * (lull + spike * spikeFactor));
  std::vector<Segment> segs;
  segs.reserve(static_cast<std::size_t>(numSpikes) * 2);
  sim::Time t = 0.0;
  for (int i = 0; i < numSpikes; ++i) {
    segs.push_back(Segment{t, t + lull, r});
    segs.push_back(Segment{t + lull, t + lull + spike, r * spikeFactor});
    t += period;
  }
  segs.back().end = span;  // absorb floating-point remainder
  return RateProfile(std::move(segs));
}

double RateProfile::rateAt(sim::Time t) const {
  for (const Segment& s : segments_) {
    if (t >= s.start && t < s.end) return s.rate;
  }
  return 0.0;
}

double RateProfile::cumulative(sim::Time t) const {
  double cum = 0.0;
  for (const Segment& s : segments_) {
    if (t <= s.start) break;
    cum += s.rate * (std::min(t, s.end) - s.start);
  }
  return cum;
}

sim::Time RateProfile::invertCumulative(double expected) const {
  if (expected <= 0.0) return segments_.front().start;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const Segment& s = segments_[i];
    const double inSegment = expected - cumAtSegmentStart_[i];
    const double segmentMass = s.rate * (s.end - s.start);
    if (inSegment <= segmentMass) {
      if (s.rate == 0.0) return s.end;
      return s.start + inSegment / s.rate;
    }
  }
  return span();
}

namespace {

/// Lewis-Shedler thinning against the Gaussian burst-train intensity:
/// homogeneous exponential candidates at the intensity's ceiling
/// (base + peak), each kept with probability lambda(t) / ceiling.  The
/// task type of each accepted arrival is drawn uniformly, so the merged
/// stream needs no per-type sort pass.
std::vector<Arrival> generateBurstyArrivals(const ArrivalSpec& spec,
                                            prob::Rng& rng) {
  if (spec.span <= 0.0 || spec.burstBaseRate < 0.0 ||
      spec.burstPeakRate < 0.0 ||
      spec.burstBaseRate + spec.burstPeakRate <= 0.0 ||
      spec.burstWidth <= 0.0 || spec.burstPeriod <= 0.0) {
    throw std::invalid_argument("generateArrivals: invalid bursty spec");
  }
  // Majorant for the thinning: at the worst phase the Gaussian train sums
  // to 1 (its own center) plus two tails per neighbouring burst, so bound
  // the train by 1 + 2 * sum_k exp(-(k*period/width)^2 / 2).  For the
  // usual width << period this is 1 to machine precision (ceiling =
  // base + peak); for overlapping bursts it
  // keeps lambda(t) <= ceiling, which thinning correctness requires.
  double trainBound = 1.0;
  for (int k = 1; k <= 64; ++k) {
    const double z = static_cast<double>(k) * spec.burstPeriod /
                     spec.burstWidth;
    const double tail = 2.0 * std::exp(-0.5 * z * z);
    if (tail < 1e-12) break;
    trainBound += tail;
  }
  const double ceiling =
      spec.burstBaseRate + spec.burstPeakRate * trainBound;
  // Centers farther than ~9 widths contribute below one double ulp of the
  // base rate, so the intensity only scans the O(1) nearby centers — the
  // evaluation stays cheap for any span/period ratio.
  const double reach = 9.0 * spec.burstWidth;
  const double firstCenter = spec.burstPeriod / 2;
  auto intensity = [&](double t) {
    double rate = spec.burstBaseRate;
    double k =
        std::ceil((t - reach - firstCenter) / spec.burstPeriod);
    if (k < 0.0) k = 0.0;
    for (double c = firstCenter + k * spec.burstPeriod;
         c < spec.span && c <= t + reach; c += spec.burstPeriod) {
      const double z = (t - c) / spec.burstWidth;
      rate += spec.burstPeakRate * std::exp(-0.5 * z * z);
    }
    return rate;
  };
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(
      std::min(ceiling * spec.span, 1e6)));
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform01()) / ceiling;
    if (t >= spec.span) break;
    if (rng.uniform01() * ceiling > intensity(t)) continue;
    const auto type = static_cast<sim::TaskType>(
        rng.uniformInt(0, spec.numTaskTypes - 1));
    arrivals.push_back(Arrival{type, t});
  }
  return arrivals;
}

}  // namespace

std::vector<Arrival> generateArrivals(const ArrivalSpec& spec,
                                      prob::Rng& rng) {
  if (spec.numTaskTypes <= 0 ||
      (spec.totalTasks == 0 && spec.pattern != ArrivalPattern::Bursty)) {
    throw std::invalid_argument("generateArrivals: invalid spec");
  }
  if (spec.pattern == ArrivalPattern::Bursty) {
    return generateBurstyArrivals(spec, rng);
  }
  const double perType = static_cast<double>(spec.totalTasks) /
                         static_cast<double>(spec.numTaskTypes);
  // Unit-mean Gamma gaps with the paper's variance discipline.
  const double variance = spec.gapVarianceFraction;
  const double shape = 1.0 / variance;  // mean^2 / var with mean = 1
  const double scale = variance;        // mean / shape

  std::vector<Arrival> arrivals;
  arrivals.reserve(spec.totalTasks + spec.totalTasks / 8);
  for (sim::TaskType type = 0; type < spec.numTaskTypes; ++type) {
    const RateProfile profile =
        spec.pattern == ArrivalPattern::Constant
            ? RateProfile::constant(spec.span, perType)
            : RateProfile::spiky(spec.span, perType, spec.numSpikes,
                                 spec.spikeFactor);
    const double total = profile.totalExpected();
    // Offset the first arrival by a random fraction of a gap so types do not
    // all fire at t=0 in lock step.
    double position = rng.uniform01() * rng.gamma(shape, scale);
    while (position < total) {
      arrivals.push_back(Arrival{type, profile.invertCumulative(position)});
      position += rng.gamma(shape, scale);
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.type < b.type;
            });
  return arrivals;
}

}  // namespace hcs::workload
