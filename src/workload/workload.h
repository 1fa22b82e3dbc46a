#pragma once
// A workload trial: the full, time-sorted list of task specs fed to one
// simulation run.

#include <cstdint>
#include <vector>

#include "sim/types.h"
#include "workload/arrival.h"
#include "workload/deadline.h"
#include "workload/pet_matrix.h"

namespace hcs::workload {

struct TaskSpec {
  sim::TaskType type = 0;
  sim::Time arrival = 0;
  sim::Time deadline = 0;
  double value = 1.0;  ///< relative worth (priority-aware pruning, §VII)
};

/// The first entry rule a task spec breaks, in checking order.
enum class TaskSpecFault {
  None,
  ArrivalNotFinite,
  DeadlineNotFinite,
  ValueNotFinite,
  TypeOutOfRange,
  DeadlineBeforeArrival,
  ValueNotPositive,
  ArrivalOutOfOrder,
};

/// The one entry check every task source applies (the Workload
/// constructor, TaskStream and the trace readers): finite fields, a type
/// in [0, numTaskTypes), deadline >= arrival, value > 0, and an arrival no
/// earlier than `previousArrival` (-infinity for the first task).
/// Non-finite fields are checked first: NaN slips through every ordered
/// comparison (and would never be reactive-dropped).
TaskSpecFault checkTaskSpec(const TaskSpec& task, int numTaskTypes,
                            sim::Time previousArrival);

/// The fault in words ("task type out of range"); callers add their
/// prefix or line number.
const char* toString(TaskSpecFault fault);

/// One trial's task list.  Immutable after construction.
class Workload {
 public:
  Workload(std::vector<TaskSpec> tasks, int numTaskTypes);

  /// Generates a trial: arrivals per `arrivalSpec`, deadlines per
  /// `deadlineSpec` against the PET matrix.  Deterministic per seed —
  /// reruns with the same seed reproduce the trial exactly, which stands in
  /// for the paper's published trace files (dead link; DESIGN.md §7).
  static Workload generate(const PetMatrix& pet, const ArrivalSpec& arrival,
                           const DeadlineSpec& deadline, std::uint64_t seed);

  const std::vector<TaskSpec>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  int numTaskTypes() const { return numTaskTypes_; }

 private:
  std::vector<TaskSpec> tasks_;
  int numTaskTypes_ = 0;
};

}  // namespace hcs::workload
