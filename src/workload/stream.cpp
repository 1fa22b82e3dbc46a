#include "workload/stream.h"

#include <stdexcept>
#include <string>
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
  // The Workload constructor's check, applied online: the stream must
  // deliver exactly what a materialized trial would have been allowed to
  // hold.
  const TaskSpecFault fault = checkTaskSpec(next, numTaskTypes_, lastArrival_);
  if (fault == TaskSpecFault::ArrivalOutOfOrder) {
    throw std::runtime_error("TaskStream: arrivals must be nondecreasing");
  }
  if (fault != TaskSpecFault::None) {
    throw std::runtime_error(std::string("TaskStream: ") + toString(fault));
  }
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
    : GeneratedTaskStream(pet, arrival, deadline, prob::Rng(seed)) {}

// The exact fork sequence of Workload::generate (arrivals_ is initialized
// before deadlineRng_), so the streamed trial is draw-for-draw the
// materialized trial.
GeneratedTaskStream::GeneratedTaskStream(const PetMatrix& pet,
                                         const ArrivalSpec& arrival,
                                         const DeadlineSpec& deadline,
                                         prob::Rng seedRng)
    : TaskStream(arrival.numTaskTypes),
      pet_(pet),
      deadline_(deadline),
      arrivals_(arrival, seedRng.fork()),
      deadlineRng_(seedRng.fork()) {
  if (arrival.numTaskTypes != pet.numTaskTypes()) {
    throw std::invalid_argument(
        "GeneratedTaskStream: arrival spec / PET matrix type count mismatch");
  }
}

bool GeneratedTaskStream::produce(TaskSpec& out) {
  Arrival a;
  if (!arrivals_.next(a)) return false;
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
