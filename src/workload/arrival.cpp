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

ArrivalProcess::ArrivalProcess(const ArrivalSpec& spec) : spec_(spec) {
  if (spec.numTaskTypes <= 0) {
    throw std::invalid_argument("ArrivalProcess: invalid spec");
  }
  if (spec.pattern == ArrivalPattern::Bursty) {
    if (spec.span <= 0.0 || spec.burstBaseRate < 0.0 ||
        spec.burstPeakRate < 0.0 ||
        spec.burstBaseRate + spec.burstPeakRate <= 0.0 ||
        spec.burstWidth <= 0.0 || spec.burstPeriod <= 0.0) {
      throw std::invalid_argument("ArrivalProcess: invalid bursty spec");
    }
    // Majorant for the thinning: at the worst phase the Gaussian train sums
    // to 1 (its own center) plus two tails per neighbouring burst, so bound
    // the train by 1 + 2 * sum_k exp(-(k*period/width)^2 / 2).  For the
    // usual width << period this is 1 to machine precision (ceiling =
    // base + peak); for overlapping bursts it keeps lambda(t) <= ceiling,
    // which thinning correctness requires.
    double trainBound = 1.0;
    for (int k = 1; k <= 64; ++k) {
      const double z =
          static_cast<double>(k) * spec.burstPeriod / spec.burstWidth;
      const double tail = 2.0 * std::exp(-0.5 * z * z);
      if (tail < 1e-12) break;
      trainBound += tail;
    }
    ceiling_ = spec.burstBaseRate + spec.burstPeakRate * trainBound;
    // Centers farther than ~9 widths contribute below one double ulp of the
    // base rate, so the intensity only scans the O(1) nearby centers — the
    // evaluation stays cheap for any span/period ratio.
    reach_ = 9.0 * spec.burstWidth;
    return;
  }
  if (spec.totalTasks == 0) {
    throw std::invalid_argument("ArrivalProcess: invalid spec");
  }
  const double perType = static_cast<double>(spec.totalTasks) /
                         static_cast<double>(spec.numTaskTypes);
  profile_.emplace(spec.pattern == ArrivalPattern::Constant
                       ? RateProfile::constant(spec.span, perType)
                       : RateProfile::spiky(spec.span, perType,
                                            spec.numSpikes, spec.spikeFactor));
  totalExpected_ = profile_->totalExpected();
  // Unit-mean Gamma gaps with the paper's variance discipline.
  gapShape_ = 1.0 / spec.gapVarianceFraction;  // mean^2 / var, mean = 1
  gapScale_ = spec.gapVarianceFraction;        // mean / shape
}

double ArrivalProcess::firstPosition(prob::Rng& rng) const {
  // A random fraction of a gap, so types do not all fire at t=0 in lock
  // step.  The fraction is drawn first, in its own statement: the operand
  // order of a product of two calls is unspecified in C++.
  const double fraction = rng.uniform01();
  return fraction * rng.gamma(gapShape_, gapScale_);
}

bool ArrivalProcess::next(TypeCursor& cursor, prob::Rng& rng,
                          sim::Time& time) const {
  if (!cursor.started) {
    cursor.started = true;
    cursor.position = firstPosition(rng);
  } else if (cursor.position < totalExpected_) {
    cursor.position += rng.gamma(gapShape_, gapScale_);
  }
  if (cursor.position >= totalExpected_) return false;
  time = profile_->invertCumulative(cursor.position);
  return true;
}

void ArrivalProcess::skipType(prob::Rng& rng) const {
  for (double position = firstPosition(rng); position < totalExpected_;) {
    position += rng.gamma(gapShape_, gapScale_);
  }
}

double ArrivalProcess::burstIntensity(double t) const {
  //   lambda(t) = base + peak * sum_k exp(-((t - c_k) / width)^2 / 2)
  const double firstCenter = spec_.burstPeriod / 2;
  double rate = spec_.burstBaseRate;
  double k = std::ceil((t - reach_ - firstCenter) / spec_.burstPeriod);
  if (k < 0.0) k = 0.0;
  for (double c = firstCenter + k * spec_.burstPeriod;
       c < spec_.span && c <= t + reach_; c += spec_.burstPeriod) {
    const double z = (t - c) / spec_.burstWidth;
    rate += spec_.burstPeakRate * std::exp(-0.5 * z * z);
  }
  return rate;
}

bool ArrivalProcess::next(BurstCursor& cursor, prob::Rng& rng,
                          Arrival& out) const {
  // Lewis-Shedler thinning: homogeneous exponential candidates at the
  // intensity's ceiling, each kept with probability lambda(t) / ceiling.
  // The type of each accepted arrival is drawn uniformly.
  while (cursor.time < spec_.span) {
    cursor.time += -std::log(1.0 - rng.uniform01()) / ceiling_;
    if (cursor.time >= spec_.span) break;
    if (rng.uniform01() * ceiling_ > burstIntensity(cursor.time)) continue;
    out.type =
        static_cast<sim::TaskType>(rng.uniformInt(0, spec_.numTaskTypes - 1));
    out.time = cursor.time;
    return true;
  }
  return false;
}

double drawValue(const std::vector<ValueClass>& classes, prob::Rng& rng) {
  const double u = rng.uniform01();
  double cumulative = 0.0;
  for (std::size_t i = 0; i + 1 < classes.size(); ++i) {
    cumulative += classes[i].share;
    if (u < cumulative) return classes[i].value;
  }
  return classes.back().value;
}

std::vector<Arrival> generateArrivals(const ArrivalSpec& spec,
                                      prob::Rng& rng) {
  const ArrivalProcess process(spec);
  std::vector<Arrival> arrivals;
  if (spec.pattern == ArrivalPattern::Bursty) {
    ArrivalProcess::BurstCursor cursor;
    Arrival a;
    while (process.next(cursor, rng, a)) arrivals.push_back(a);
    return arrivals;
  }
  arrivals.reserve(spec.totalTasks + spec.totalTasks / 8);
  for (sim::TaskType type = 0; type < spec.numTaskTypes; ++type) {
    ArrivalProcess::TypeCursor cursor;
    sim::Time time = 0;
    while (process.next(cursor, rng, time)) {
      arrivals.push_back(Arrival{type, time});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.type < b.type;
            });
  return arrivals;
}

ArrivalStream::ArrivalStream(const ArrivalSpec& spec, prob::Rng rng)
    : process_(spec), rng_(std::move(rng)) {
  if (spec.pattern == ArrivalPattern::Bursty) return;
  // Nothing reads the rng after the last snapshot, so the last type is not
  // skipped.
  lanes_.reserve(static_cast<std::size_t>(spec.numTaskTypes));
  for (sim::TaskType type = 0; type < spec.numTaskTypes; ++type) {
    lanes_.push_back(Lane{rng_, {}, 0, false});
    if (type + 1 < spec.numTaskTypes) process_.skipType(rng_);
  }
  for (Lane& lane : lanes_) {
    lane.done = !process_.next(lane.cursor, lane.rng, lane.nextTime);
  }
}

bool ArrivalStream::next(Arrival& out) {
  if (lanes_.empty()) return process_.next(burst_, rng_, out);
  // Per-type times are nondecreasing, so the merge is the eager sort's
  // order; ascending types with a strict < keep its tie-break.
  std::size_t best = lanes_.size();
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k].done) continue;
    if (best == lanes_.size() || lanes_[k].nextTime < lanes_[best].nextTime) {
      best = k;
    }
  }
  if (best == lanes_.size()) return false;
  Lane& lane = lanes_[best];
  out.type = static_cast<sim::TaskType>(best);
  out.time = lane.nextTime;
  lane.done = !process_.next(lane.cursor, lane.rng, lane.nextTime);
  return true;
}

}  // namespace hcs::workload
