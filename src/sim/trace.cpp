#include "sim/trace.h"

#include <charconv>
#include <ostream>

namespace hcs::sim {

std::string_view toString(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::Arrival: return "Arrival";
    case TraceEventKind::Dispatched: return "Dispatched";
    case TraceEventKind::Started: return "Started";
    case TraceEventKind::Completed: return "Completed";
    case TraceEventKind::Deferred: return "Deferred";
    case TraceEventKind::DroppedReactive: return "DroppedReactive";
    case TraceEventKind::DroppedProactive: return "DroppedProactive";
    case TraceEventKind::Aborted: return "Aborted";
    case TraceEventKind::MachineFailed: return "MachineFailed";
    case TraceEventKind::MachineRecovered: return "MachineRecovered";
    case TraceEventKind::TaskFailed: return "TaskFailed";
    case TraceEventKind::Retried: return "Retried";
    case TraceEventKind::Abandoned: return "Abandoned";
    case TraceEventKind::Rejected: return "Rejected";
    case TraceEventKind::MachineBooting: return "MachineBooting";
    case TraceEventKind::MachineBooted: return "MachineBooted";
    case TraceEventKind::BootCancelled: return "BootCancelled";
    case TraceEventKind::MachineDraining: return "MachineDraining";
    case TraceEventKind::DrainCancelled: return "DrainCancelled";
    case TraceEventKind::MachineRetired: return "MachineRetired";
  }
  return "Unknown";
}

TraceSink TraceLog::sink() {
  return [this](const TraceEvent& event) { events_.push_back(event); };
}

std::vector<TraceEvent> TraceLog::forTask(TaskId task) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.task == task) out.push_back(e);
  }
  return out;
}

std::vector<TraceEvent> TraceLog::ofKind(TraceEventKind kind) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

void TraceLog::writeCsv(std::ostream& out) const {
  out << "time,kind,task,machine,cluster\n";
  char time[32];
  for (const TraceEvent& e : events_) {
    // The shortest digits that parse back to the same double.
    const char* end = std::to_chars(time, time + sizeof time, e.time).ptr;
    out.write(time, end - time);
    out << ',' << toString(e.kind) << ',' << e.task << ',' << e.machine
        << ',' << e.cluster << '\n';
  }
}

}  // namespace hcs::sim
