#pragma once
// Task model and lifecycle.

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace hcs::sim {

/// Lifecycle of a task inside one trial.
///
/// Terminal states mirror the paper's accounting: only CompletedOnTime
/// counts toward robustness; DroppedReactive is the mandatory drop of a task
/// already past its deadline (§II); DroppedProactive is the pruner's
/// predictive drop (§IV-C).
enum class TaskStatus {
  Created,           ///< generated, not yet arrived
  Batched,           ///< waiting in the batch (arrival) queue
  Queued,            ///< assigned to a machine queue, not yet running
  Running,           ///< executing on a machine
  CompletedOnTime,   ///< finished at or before its deadline
  CompletedLate,     ///< finished after its deadline
  DroppedReactive,   ///< evicted because its deadline had already passed
  DroppedProactive,  ///< evicted by the pruner (low chance of success)
  Abandoned,         ///< gave up after machine failures (retry policy)
  Rejected,          ///< refused at the federation gateway (admission)
};

bool isTerminal(TaskStatus s);
std::string_view toString(TaskStatus s);

struct Task {
  /// The task's TaskPool slot; kInvalidTask once the slot is retired.
  /// Slots are recycled, so an id names a task only while it is live.
  TaskId id = kInvalidTask;
  /// Creation sequence number, monotone across the trial: the task's
  /// position in the arrival sequence — what warm-up trimming, sort
  /// tie-breaks and trace labels key on.
  std::uint64_t ordinal = 0;
  TaskType type = 0;
  Time arrival = 0;
  Time deadline = 0;
  /// Relative worth of completing this task on time (priority/cost-aware
  /// pruning, the paper's §VII future work).  1.0 = ordinary task.
  double value = 1.0;

  TaskStatus status = TaskStatus::Created;
  MachineId machine = kInvalidMachine;
  Time queuedAt = -1;    ///< when dispatched to a machine queue
  Time startTime = -1;   ///< when execution began
  Time finishTime = -1;  ///< when execution finished (or the task was dropped)
  int deferrals = 0;     ///< how many mapping events deferred this task
  /// How many machine failures this task has absorbed (aborted mid-run or
  /// orphaned from a dead machine's queue).  Drives the retry policy's
  /// max-attempts / backoff arithmetic and the failed-then-met metric.
  int failures = 0;

  bool missedDeadline(Time now) const { return now > deadline; }
};

/// Owns the live tasks of a trial; TaskIds index into its slots.
///
/// A retire()d (terminal) task returns its slot to a free list and a
/// later create() reuses it, so memory stays bounded by the in-flight
/// window however long the trial runs: the slab indexes by slot (the
/// BatchQueue position-index trick applied to task storage), while
/// `ordinal` keeps the arrival-sequence identity.
class TaskPool {
 public:
  TaskId create(TaskType type, Time arrival, Time deadline,
                double value = 1.0);

  /// Returns a terminal task's slot to the free list.  The caller
  /// guarantees no live references or pending events point at `id`.
  /// Throws std::logic_error if the task is not terminal or the slot is
  /// already retired: either would hand one slot to two live tasks.
  void retire(TaskId id);

  Task& operator[](TaskId id) { return tasks_[static_cast<std::size_t>(id)]; }
  const Task& operator[](TaskId id) const {
    return tasks_[static_cast<std::size_t>(id)];
  }

  /// Tasks ever created (monotone).
  std::uint64_t createdCount() const { return created_; }
  /// Stable pointer to the creation counter — the clock online Metrics
  /// counting reads to decide when warm-up margins are settled.
  const std::uint64_t* createdClock() const { return &created_; }
  /// Allocated slots (the memory footprint; ≪ createdCount() on a long
  /// trial).
  std::size_t slotCount() const { return tasks_.size(); }

 private:
  std::vector<Task> tasks_;
  std::vector<TaskId> freeSlots_;
  std::uint64_t created_ = 0;
};

}  // namespace hcs::sim
