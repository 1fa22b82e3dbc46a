#include "workload/stream.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "workload/trace_io.h"

namespace hcs::workload {

TaskStream::TaskStream(int numTaskTypes) : numTaskTypes_(numTaskTypes) {
  if (numTaskTypes_ <= 0) {
    throw std::invalid_argument("TaskStream: need at least one task type");
  }
}

void TaskStream::refill() {
  if (haveBuffered_ || exhausted_) return;
  TaskSpec next;
  if (!produce(next)) {
    exhausted_ = true;
    return;
  }
  // The Workload constructor's validation, applied online: the stream must
  // deliver exactly what a materialized trial would have been allowed to
  // hold.
  if (!std::isfinite(next.arrival)) {
    throw std::runtime_error("TaskStream: task arrival must be finite");
  }
  if (!std::isfinite(next.deadline)) {
    throw std::runtime_error("TaskStream: task deadline must be finite");
  }
  if (!std::isfinite(next.value)) {
    throw std::runtime_error("TaskStream: task value must be finite");
  }
  if (next.type < 0 || next.type >= numTaskTypes_) {
    throw std::runtime_error("TaskStream: task type out of range");
  }
  if (next.deadline < next.arrival) {
    throw std::runtime_error("TaskStream: deadline precedes arrival");
  }
  if (next.value <= 0.0) {
    throw std::runtime_error("TaskStream: task value must be positive");
  }
  if (!first_ && next.arrival < lastArrival_) {
    throw std::runtime_error("TaskStream: arrivals must be nondecreasing");
  }
  first_ = false;
  lastArrival_ = next.arrival;
  buffered_ = next;
  haveBuffered_ = true;
}

const TaskSpec* TaskStream::peek() {
  refill();
  return haveBuffered_ ? &buffered_ : nullptr;
}

TaskSpec TaskStream::pop() {
  refill();
  if (!haveBuffered_) {
    throw std::logic_error("TaskStream::pop: stream is exhausted");
  }
  haveBuffered_ = false;
  return buffered_;
}

GeneratedTaskStream::GeneratedTaskStream(const PetMatrix& pet,
                                         const ArrivalSpec& arrival,
                                         const DeadlineSpec& deadline,
                                         std::uint64_t seed)
    : TaskStream(arrival.numTaskTypes),
      pet_(pet),
      arrival_(arrival),
      deadline_(deadline),
      deadlineRng_(0),
      burstyRng_(0) {
  if (arrival.numTaskTypes != pet.numTaskTypes()) {
    throw std::invalid_argument(
        "GeneratedTaskStream: arrival spec / PET matrix type count mismatch");
  }
  if (arrival.totalTasks == 0 && arrival.pattern != ArrivalPattern::Bursty) {
    throw std::invalid_argument("GeneratedTaskStream: invalid spec");
  }
  // The exact fork sequence of Workload::generate, so the streamed trial is
  // draw-for-draw the materialized trial.
  prob::Rng rng(seed);
  prob::Rng arrivalRng = rng.fork();
  deadlineRng_ = rng.fork();

  if (arrival_.pattern == ArrivalPattern::Bursty) {
    if (arrival_.span <= 0.0 || arrival_.burstBaseRate < 0.0 ||
        arrival_.burstPeakRate < 0.0 ||
        arrival_.burstBaseRate + arrival_.burstPeakRate <= 0.0 ||
        arrival_.burstWidth <= 0.0 || arrival_.burstPeriod <= 0.0) {
      throw std::invalid_argument("GeneratedTaskStream: invalid bursty spec");
    }
    // Same majorant as the eager thinning loop (see arrival.cpp): the
    // Gaussian train is bounded by its center plus two tails per neighbour.
    double trainBound = 1.0;
    for (int k = 1; k <= 64; ++k) {
      const double z = static_cast<double>(k) * arrival_.burstPeriod /
                       arrival_.burstWidth;
      const double tail = 2.0 * std::exp(-0.5 * z * z);
      if (tail < 1e-12) break;
      trainBound += tail;
    }
    burstyCeiling_ = arrival_.burstBaseRate + arrival_.burstPeakRate * trainBound;
    burstyReach_ = 9.0 * arrival_.burstWidth;
    burstyFirstCenter_ = arrival_.burstPeriod / 2;
    burstyRng_ = std::move(arrivalRng);
    return;
  }

  const double perType = static_cast<double>(arrival_.totalTasks) /
                         static_cast<double>(arrival_.numTaskTypes);
  const double variance = arrival_.gapVarianceFraction;
  gapShape_ = 1.0 / variance;
  gapScale_ = variance;
  // Every type draws over the same profile shape; one instance serves all.
  profile_ = std::make_unique<RateProfile>(
      arrival_.pattern == ArrivalPattern::Constant
          ? RateProfile::constant(arrival_.span, perType)
          : RateProfile::spiky(arrival_.span, perType, arrival_.numSpikes,
                               arrival_.spikeFactor));
  totalExpected_ = profile_->totalExpected();

  // The eager generator draws every type's gap sequence from ONE shared
  // RNG, type by type.  Snapshot the RNG at each type's start (the
  // generator is copyable), then replay that type's draws value-free so the
  // next snapshot lands where the eager loop would be.  Each TypeCursor
  // later re-draws its own sequence lazily from its snapshot.  Nothing
  // reads the RNG after the last snapshot, so the last type is not
  // replayed.
  cursors_.reserve(static_cast<std::size_t>(arrival_.numTaskTypes));
  for (sim::TaskType type = 0; type < arrival_.numTaskTypes; ++type) {
    cursors_.emplace_back(arrivalRng);
    if (type + 1 == arrival_.numTaskTypes) break;
    double position =
        arrivalRng.uniform01() * arrivalRng.gamma(gapShape_, gapScale_);
    while (position < totalExpected_) {
      position += arrivalRng.gamma(gapShape_, gapScale_);
    }
  }
  for (std::size_t k = 0; k < cursors_.size(); ++k) advanceType(k);
}

void GeneratedTaskStream::advanceType(std::size_t k) {
  TypeCursor& c = cursors_[k];
  if (!c.started) {
    c.started = true;
    c.position = c.rng.uniform01() * c.rng.gamma(gapShape_, gapScale_);
  } else {
    c.position += c.rng.gamma(gapShape_, gapScale_);
  }
  if (c.position < totalExpected_) {
    c.nextTime = profile_->invertCumulative(c.position);
  } else {
    c.done = true;
  }
}

bool GeneratedTaskStream::nextArrival(Arrival& out) {
  // K-way merge on (time, type): per-type times are nondecreasing, so this
  // is exactly the order the eager generator's sort produces.  Scanning
  // types in ascending order with a strict < keeps the lowest type on time
  // ties, matching the sort's tie-break.
  std::size_t best = cursors_.size();
  for (std::size_t k = 0; k < cursors_.size(); ++k) {
    if (cursors_[k].done) continue;
    if (best == cursors_.size() ||
        cursors_[k].nextTime < cursors_[best].nextTime) {
      best = k;
    }
  }
  if (best == cursors_.size()) return false;
  out.type = static_cast<sim::TaskType>(best);
  out.time = cursors_[best].nextTime;
  advanceType(best);
  return true;
}

bool GeneratedTaskStream::nextBurstyArrival(Arrival& out) {
  // The eager Lewis-Shedler thinning loop, paused between acceptances.
  const auto intensity = [&](double t) {
    double rate = arrival_.burstBaseRate;
    double k = std::ceil((t - burstyReach_ - burstyFirstCenter_) /
                         arrival_.burstPeriod);
    if (k < 0.0) k = 0.0;
    for (double c = burstyFirstCenter_ + k * arrival_.burstPeriod;
         c < arrival_.span && c <= t + burstyReach_;
         c += arrival_.burstPeriod) {
      const double z = (t - c) / arrival_.burstWidth;
      rate += arrival_.burstPeakRate * std::exp(-0.5 * z * z);
    }
    return rate;
  };
  while (true) {
    burstyT_ += -std::log(1.0 - burstyRng_.uniform01()) / burstyCeiling_;
    if (burstyT_ >= arrival_.span) return false;
    if (burstyRng_.uniform01() * burstyCeiling_ > intensity(burstyT_)) {
      continue;
    }
    out.type = static_cast<sim::TaskType>(
        burstyRng_.uniformInt(0, arrival_.numTaskTypes - 1));
    out.time = burstyT_;
    return true;
  }
}

bool GeneratedTaskStream::produce(TaskSpec& out) {
  Arrival a;
  const bool have = arrival_.pattern == ArrivalPattern::Bursty
                        ? nextBurstyArrival(a)
                        : nextArrival(a);
  if (!have) return false;
  out.type = a.type;
  out.arrival = a.time;
  // Deadlines pop in merged (sorted) order — the exact order the eager
  // generator assigns them in, so the deadline stream stays draw-for-draw.
  out.deadline = assignDeadline(pet_, a.type, a.time, deadline_, deadlineRng_);
  out.value = 1.0;
  return true;
}

WorkloadStream::WorkloadStream(const Workload& workload)
    : TaskStream(workload.numTaskTypes()), workload_(workload) {}

bool WorkloadStream::produce(TaskSpec& out) {
  if (cursor_ >= workload_.size()) return false;
  out = workload_.tasks()[cursor_++];
  return true;
}

LimitedTaskStream::LimitedTaskStream(std::unique_ptr<TaskStream> inner,
                                     std::uint64_t maxTasks, sim::Time maxTime)
    : TaskStream(inner->numTaskTypes()),
      inner_(std::move(inner)),
      maxTasks_(maxTasks),
      maxTime_(maxTime) {}

bool LimitedTaskStream::produce(TaskSpec& out) {
  if (maxTasks_ > 0 && emitted_ >= maxTasks_) return false;
  const TaskSpec* next = inner_->peek();
  if (next == nullptr) return false;
  if (maxTime_ > 0 && next->arrival > maxTime_) return false;
  out = inner_->pop();
  ++emitted_;
  return true;
}

std::unique_ptr<TaskStream> openTaskStream(const StreamSpec& spec,
                                           const PetMatrix& pet,
                                           const ArrivalSpec& arrival,
                                           const DeadlineSpec& deadline,
                                           std::uint64_t seed) {
  std::unique_ptr<TaskStream> stream;
  if (spec.trace.empty()) {
    stream =
        std::make_unique<GeneratedTaskStream>(pet, arrival, deadline, seed);
  } else if (spec.format == "hcs") {
    stream = std::make_unique<TraceTaskStream>(spec.trace);
  } else if (spec.format == "azure" || spec.format == "borg") {
    CsvTraceOptions options;
    options.numTaskTypes = arrival.numTaskTypes;
    options.deadlineSlack = spec.deadlineSlack;
    options.timeScale = spec.timeScale;
    stream = std::make_unique<CsvTaskStream>(
        spec.trace,
        spec.format == "azure" ? CsvTraceFormat::Azure : CsvTraceFormat::Borg,
        options);
  } else {
    throw std::invalid_argument("openTaskStream: unknown trace format \"" +
                                spec.format + "\"");
  }
  if (spec.maxTasks > 0 || spec.maxTime > 0) {
    stream = std::make_unique<LimitedTaskStream>(std::move(stream),
                                                 spec.maxTasks, spec.maxTime);
  }
  return stream;
}

}  // namespace hcs::workload
