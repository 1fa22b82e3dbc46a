#pragma once
// Per-trial event tracing: one optional sink (core::SimulationConfig::
// traceSink) receives every task and machine lifecycle transition of the
// trial, tagged with the cluster it happened on, giving downstream tooling
// (debuggers, timeline visualizers, log auditors) the full story of a trial
// without touching the scheduler.  Events on a single-cluster trial carry
// cluster 0; in a federation, machine ids are local to the event's cluster,
// and a gateway rejection is tagged with the cluster the task was routed to.

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "sim/types.h"

namespace hcs::sim {

enum class TraceEventKind {
  Arrival,           ///< task entered the system
  Dispatched,        ///< task assigned to a machine queue
  Started,           ///< task began executing
  Completed,         ///< task finished (on time or late)
  Deferred,          ///< pruner pushed the task back to the batch queue
  DroppedReactive,   ///< evicted: deadline already passed
  DroppedProactive,  ///< evicted: chance of success below the bar
  Aborted,           ///< running task cut off at its deadline
  MachineFailed,     ///< machine went offline (task = kInvalidTask)
  MachineRecovered,  ///< machine rejoined the cluster (task = kInvalidTask)
  TaskFailed,        ///< task lost to a machine failure (aborted/orphaned)
  Retried,           ///< failed task rescheduled into the arrival stream
  Abandoned,         ///< retry policy gave up on the task
  Rejected,          ///< federation gateway refused admission
  MachineBooting,    ///< controller requested a scale-up (task = kInvalidTask)
  MachineBooted,     ///< provisioning delay elapsed; machine is accepting work
  BootCancelled,     ///< scale-down withdrew a boot before it completed
  MachineDraining,   ///< controller began a graceful scale-down
  DrainCancelled,    ///< a scale-up reclaimed a draining machine's slot
  MachineRetired,    ///< a drained machine emptied and left the cluster
};

std::string_view toString(TraceEventKind kind);

struct TraceEvent {
  Time time = 0;
  TraceEventKind kind = TraceEventKind::Arrival;
  /// The task's arrival ordinal (Task::ordinal), not its recyclable pool
  /// slot, so one label names one task for the whole trial.
  TaskId task = kInvalidTask;
  MachineId machine = kInvalidMachine;  ///< where applicable
  std::size_t cluster = 0;  ///< federation cluster index (0 = single cluster)

  bool operator==(const TraceEvent&) const = default;
};

/// Sink signature; install via core::SimulationConfig::traceSink.
using TraceSink = std::function<void(const TraceEvent&)>;

/// Convenience sink: collects events in memory, query/export helpers.
class TraceLog {
 public:
  /// Returns a sink bound to this log (the log must outlive the trial).
  TraceSink sink();

  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  /// Events of the task with arrival ordinal `task`, in order.
  std::vector<TraceEvent> forTask(TaskId task) const;

  /// Events of one kind, in order.
  std::vector<TraceEvent> ofKind(TraceEventKind kind) const;

  /// "time,kind,task,machine,cluster" rows with a header; times print in
  /// the fewest digits that parse back to the same double.
  void writeCsv(std::ostream& out) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace hcs::sim
