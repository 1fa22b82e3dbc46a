#include "sim/task.h"

#include <stdexcept>

namespace hcs::sim {

bool isTerminal(TaskStatus s) {
  switch (s) {
    case TaskStatus::CompletedOnTime:
    case TaskStatus::CompletedLate:
    case TaskStatus::DroppedReactive:
    case TaskStatus::DroppedProactive:
    case TaskStatus::Abandoned:
    case TaskStatus::Rejected:
      return true;
    case TaskStatus::Created:
    case TaskStatus::Batched:
    case TaskStatus::Queued:
    case TaskStatus::Running:
      return false;
  }
  return false;
}

std::string_view toString(TaskStatus s) {
  switch (s) {
    case TaskStatus::Created: return "Created";
    case TaskStatus::Batched: return "Batched";
    case TaskStatus::Queued: return "Queued";
    case TaskStatus::Running: return "Running";
    case TaskStatus::CompletedOnTime: return "CompletedOnTime";
    case TaskStatus::CompletedLate: return "CompletedLate";
    case TaskStatus::DroppedReactive: return "DroppedReactive";
    case TaskStatus::DroppedProactive: return "DroppedProactive";
    case TaskStatus::Abandoned: return "Abandoned";
    case TaskStatus::Rejected: return "Rejected";
  }
  return "Unknown";
}

TaskId TaskPool::create(TaskType type, Time arrival, Time deadline,
                        double value) {
  Task t;
  t.ordinal = created_++;
  t.type = type;
  t.arrival = arrival;
  t.deadline = deadline;
  t.value = value;
  if (!freeSlots_.empty()) {
    t.id = freeSlots_.back();
    freeSlots_.pop_back();
    tasks_[static_cast<std::size_t>(t.id)] = t;
    return t.id;
  }
  t.id = static_cast<TaskId>(tasks_.size());
  tasks_.push_back(t);
  return t.id;
}

void TaskPool::retire(TaskId id) {
  Task& t = (*this)[id];
  if (t.id != id) {
    throw std::logic_error("TaskPool::retire: slot already retired");
  }
  if (!isTerminal(t.status)) {
    throw std::logic_error("TaskPool::retire: task is not terminal");
  }
  t.id = kInvalidTask;
  freeSlots_.push_back(id);
}

}  // namespace hcs::sim
