#include "workload/workload.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hcs::workload {

Workload::Workload(std::vector<TaskSpec> tasks, int numTaskTypes)
    : tasks_(std::move(tasks)), numTaskTypes_(numTaskTypes) {
  if (numTaskTypes_ <= 0) {
    throw std::invalid_argument("Workload: need at least one task type");
  }
  for (const TaskSpec& t : tasks_) {
    // NaN slips through every ordered comparison below (and would never be
    // reactive-dropped), so non-finite fields are rejected first.
    if (!std::isfinite(t.arrival)) {
      throw std::invalid_argument("Workload: task arrival must be finite");
    }
    if (!std::isfinite(t.deadline)) {
      throw std::invalid_argument("Workload: task deadline must be finite");
    }
    if (!std::isfinite(t.value)) {
      throw std::invalid_argument("Workload: task value must be finite");
    }
  }
  if (!std::is_sorted(tasks_.begin(), tasks_.end(),
                      [](const TaskSpec& a, const TaskSpec& b) {
                        return a.arrival < b.arrival;
                      })) {
    throw std::invalid_argument("Workload: tasks must be sorted by arrival");
  }
  for (const TaskSpec& t : tasks_) {
    if (t.type < 0 || t.type >= numTaskTypes_) {
      throw std::invalid_argument("Workload: task type out of range");
    }
    if (t.deadline < t.arrival) {
      throw std::invalid_argument("Workload: deadline precedes arrival");
    }
    if (t.value <= 0.0) {
      throw std::invalid_argument("Workload: task value must be positive");
    }
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
  const std::vector<Arrival> arrivals = generateArrivals(arrival, arrivalRng);
  std::vector<TaskSpec> tasks;
  tasks.reserve(arrivals.size());
  for (const Arrival& a : arrivals) {
    TaskSpec spec;
    spec.type = a.type;
    spec.arrival = a.time;
    spec.deadline = assignDeadline(pet, a.type, a.time, deadline, deadlineRng);
    tasks.push_back(spec);
  }
  return Workload(std::move(tasks), arrival.numTaskTypes);
}

}  // namespace hcs::workload
