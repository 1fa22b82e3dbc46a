#include "workload/trace_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace hcs::workload {

namespace {

[[noreturn]] void failAt(const std::string& path, std::size_t lineNo,
                         const std::string& what) {
  throw std::runtime_error(path + ": " + what + " on line " +
                           std::to_string(lineNo));
}

std::uint64_t fnv1a(const std::string& key) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : key) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::vector<std::string> splitCsv(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

/// A finite number filling the whole field (trailing blanks allowed);
/// strtod alone would also accept "nan" and "inf".
bool parseDouble(const std::string& field, double& out) {
  const char* begin = field.c_str();
  char* end = nullptr;
  out = std::strtod(begin, &end);
  if (end == begin || !std::isfinite(out)) return false;
  while (*end == ' ' || *end == '\t' || *end == '\r') ++end;
  return *end == '\0';
}

Workload drain(TraceTaskStream& stream) {
  std::vector<TaskSpec> tasks;
  while (stream.peek() != nullptr) tasks.push_back(stream.pop());
  return Workload(std::move(tasks), stream.numTaskTypes());
}

}  // namespace

void saveWorkload(const Workload& workload, std::ostream& out) {
  out << "hcs-workload v2 " << workload.numTaskTypes() << "\n";
  out << std::setprecision(17);
  for (const TaskSpec& t : workload.tasks()) {
    out << t.type << ' ' << t.arrival << ' ' << t.deadline << ' ' << t.value
        << "\n";
  }
}

void saveWorkloadFile(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("saveWorkloadFile: cannot open " + path);
  }
  saveWorkload(workload, out);
}

Workload loadWorkload(std::istream& in) {
  TraceTaskStream stream(in, "loadWorkload");
  return drain(stream);
}

Workload loadWorkloadFile(const std::string& path) {
  TraceTaskStream stream(path);
  return drain(stream);
}

TraceTaskStream::Source TraceTaskStream::readHeader(Source source,
                                                    const std::string& origin) {
  if (source.in == nullptr) source.in = source.owned.get();
  if (!*source.in) {
    throw std::runtime_error(origin + ": cannot read");
  }
  std::string line;
  if (!std::getline(*source.in, line)) {
    throw std::runtime_error(origin + ": empty trace");
  }
  std::istringstream header(line);
  std::string magic, version;
  header >> magic >> version >> source.numTaskTypes;
  if (magic != "hcs-workload" || (version != "v1" && version != "v2") ||
      source.numTaskTypes <= 0) {
    failAt(origin, 1, "bad header \"" + line + "\"");
  }
  source.hasValues = version == "v2";
  return source;
}

TraceTaskStream::TraceTaskStream(const std::string& path)
    : TraceTaskStream(
          readHeader({.owned = std::make_unique<std::ifstream>(path)}, path),
          path) {}

TraceTaskStream::TraceTaskStream(std::istream& in, const std::string& origin)
    : TraceTaskStream(readHeader({.owned = nullptr, .in = &in}, origin),
                      origin) {}

TraceTaskStream::TraceTaskStream(Source source, const std::string& origin)
    : TaskStream(source.numTaskTypes),
      owned_(std::move(source.owned)),
      in_(*source.in),
      origin_(origin),
      hasValues_(source.hasValues) {}

bool TraceTaskStream::produce(TaskSpec& out) {
  std::string line;
  while (std::getline(in_, line)) {
    ++lineNo_;
    if (line.empty() || line.front() == '#') continue;
    std::istringstream row(line);
    TaskSpec t;
    if (!(row >> t.type >> t.arrival >> t.deadline)) {
      failAt(origin_, lineNo_, "malformed record");
    }
    if (hasValues_) {
      if ((row >> std::ws).eof()) {
        failAt(origin_, lineNo_, "truncated record (missing value)");
      }
      if (!(row >> t.value)) failAt(origin_, lineNo_, "malformed value");
    }
    const TaskSpecFault fault = checkTaskSpec(t, numTaskTypes(), lastArrival_);
    if (fault == TaskSpecFault::ValueNotPositive) {
      failAt(origin_, lineNo_, "non-positive task value");
    }
    if (fault != TaskSpecFault::None) {
      failAt(origin_, lineNo_, toString(fault));
    }
    lastArrival_ = t.arrival;
    out = t;
    return true;
  }
  return false;
}

CsvTaskStream::CsvTaskStream(const std::string& path, CsvTraceFormat format,
                             const CsvTraceOptions& options)
    : TaskStream(options.numTaskTypes),
      path_(path),
      format_(format),
      options_(options) {
  if (options_.deadlineSlack < 0.0) {
    throw std::invalid_argument("CsvTaskStream: deadlineSlack must be >= 0");
  }
  if (options_.timeScale <= 0.0) {
    throw std::invalid_argument("CsvTaskStream: timeScale must be positive");
  }
  in_.open(path);
  if (!in_) {
    throw std::runtime_error("CsvTaskStream: cannot open " + path);
  }
}

bool CsvTaskStream::produce(TaskSpec& out) {
  const std::size_t needed = format_ == CsvTraceFormat::Azure ? 3 : 4;
  std::string line;
  while (std::getline(in_, line)) {
    ++lineNo_;
    if (line.empty() || line.front() == '#') continue;
    const std::vector<std::string> fields = splitCsv(line);
    double timestamp = 0.0;
    if (!checkedHeader_) {
      checkedHeader_ = true;
      // One leading non-numeric line is a column header; skip it.
      if (!parseDouble(fields.front(), timestamp)) continue;
    }
    if (fields.size() < needed) {
      failAt(path_, lineNo_, "truncated record (expected " +
                                 std::to_string(needed) + " fields, got " +
                                 std::to_string(fields.size()) + ")");
    }
    if (!parseDouble(fields[0], timestamp)) {
      failAt(path_, lineNo_, "malformed timestamp");
    }
    const std::string& key = fields[1];
    double runtime = 0.0;
    double value = 1.0;
    if (format_ == CsvTraceFormat::Azure) {
      if (!parseDouble(fields[2], runtime)) {
        failAt(path_, lineNo_, "malformed duration");
      }
    } else {
      double priority = 0.0;
      if (!parseDouble(fields[2], priority)) {
        failAt(path_, lineNo_, "malformed priority");
      }
      if (!parseDouble(fields[3], runtime)) {
        failAt(path_, lineNo_, "malformed runtime");
      }
      value = std::max(1.0, priority);
    }
    if (runtime < 0.0) {
      failAt(path_, lineNo_, "negative runtime");
    }
    TaskSpec t;
    t.type = static_cast<sim::TaskType>(
        fnv1a(key) % static_cast<std::uint64_t>(numTaskTypes()));
    t.arrival = timestamp * options_.timeScale;
    t.deadline = t.arrival + options_.deadlineSlack * runtime *
                                 options_.timeScale;
    t.value = value;
    // Parsed fields are finite, so a non-finite time is an overflow.
    const TaskSpecFault fault = checkTaskSpec(t, numTaskTypes(), lastArrival_);
    if (fault == TaskSpecFault::ArrivalNotFinite ||
        fault == TaskSpecFault::DeadlineNotFinite) {
      failAt(path_, lineNo_, "time out of range");
    }
    if (fault != TaskSpecFault::None) {
      failAt(path_, lineNo_, toString(fault));
    }
    lastArrival_ = t.arrival;
    out = t;
    return true;
  }
  return false;
}

}  // namespace hcs::workload
