#include "workload/workload.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace hcs::workload {

TaskSpecFault checkTaskSpec(const TaskSpec& task, int numTaskTypes,
                            sim::Time previousArrival) {
  if (!std::isfinite(task.arrival)) return TaskSpecFault::ArrivalNotFinite;
  if (!std::isfinite(task.deadline)) return TaskSpecFault::DeadlineNotFinite;
  if (!std::isfinite(task.value)) return TaskSpecFault::ValueNotFinite;
  if (task.type < 0 || task.type >= numTaskTypes) {
    return TaskSpecFault::TypeOutOfRange;
  }
  if (task.deadline < task.arrival) {
    return TaskSpecFault::DeadlineBeforeArrival;
  }
  if (task.value <= 0.0) return TaskSpecFault::ValueNotPositive;
  if (task.arrival < previousArrival) return TaskSpecFault::ArrivalOutOfOrder;
  return TaskSpecFault::None;
}

const char* toString(TaskSpecFault fault) {
  static constexpr const char* kText[] = {
      "valid",
      "task arrival must be finite",
      "task deadline must be finite",
      "task value must be finite",
      "task type out of range",
      "deadline precedes arrival",
      "task value must be positive",
      "out-of-order arrival",
  };
  return kText[static_cast<int>(fault)];
}

Workload::Workload(std::vector<TaskSpec> tasks, int numTaskTypes)
    : tasks_(std::move(tasks)), numTaskTypes_(numTaskTypes) {
  if (numTaskTypes_ <= 0) {
    throw std::invalid_argument("Workload: need at least one task type");
  }
  sim::Time previous = -std::numeric_limits<sim::Time>::infinity();
  for (const TaskSpec& t : tasks_) {
    const TaskSpecFault fault = checkTaskSpec(t, numTaskTypes_, previous);
    if (fault == TaskSpecFault::ArrivalOutOfOrder) {
      throw std::invalid_argument("Workload: tasks must be sorted by arrival");
    }
    if (fault != TaskSpecFault::None) {
      throw std::invalid_argument(std::string("Workload: ") + toString(fault));
    }
    previous = t.arrival;
  }
}

Workload Workload::generate(const PetMatrix& pet, const ArrivalSpec& arrival,
                            const DeadlineSpec& deadline, std::uint64_t seed) {
  if (arrival.numTaskTypes != pet.numTaskTypes()) {
    throw std::invalid_argument(
        "Workload::generate: arrival spec / PET matrix type count mismatch");
  }
  prob::Rng rng(seed);
  prob::Rng arrivalRng = rng.fork();
  prob::Rng deadlineRng = rng.fork();
  prob::Rng valueRng = rng.fork();
  const std::vector<Arrival> arrivals = generateArrivals(arrival, arrivalRng);
  std::vector<TaskSpec> tasks;
  tasks.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    TaskSpec spec;
    spec.type = a.type;
    spec.arrival = a.time;
    spec.deadline = assignDeadline(pet, a.type, a.time, deadline, deadlineRng);
    if (!arrival.values.empty()) {
      spec.value = drawValue(arrival.values, valueRng);
    }
    tasks.push_back(spec);
  }
  return Workload(std::move(tasks), arrival.numTaskTypes);
}

}  // namespace hcs::workload
