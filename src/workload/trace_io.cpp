#include "workload/trace_io.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
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

/// `text` with every control or non-ASCII byte shown as '?': an error that
/// quotes input must stay one line, and a NUL would cut what() short.
std::string printable(std::string text) {
  for (char& c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte >= 0x7f) c = '?';
  }
  return text;
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

/// The whitespace-separated fields of one line.
std::vector<std::string> splitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  for (std::string field; in >> field;) fields.push_back(field);
  return fields;
}

/// An integer filling the whole field that fits an int.
bool parseInt(const std::string& field, int& out) {
  const char* begin = field.c_str();
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE ||
      value < std::numeric_limits<int>::min() ||
      value > std::numeric_limits<int>::max()) {
    return false;
  }
  out = static_cast<int>(value);
  return true;
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
    failAt(origin, 1, "empty trace");
  }
  // Exactly "hcs-workload v1|v2 <types>", nothing after the count.
  const std::vector<std::string> fields = splitFields(line);
  if (fields.size() != 3 || fields[0] != "hcs-workload" ||
      (fields[1] != "v1" && fields[1] != "v2") ||
      !parseInt(fields[2], source.numTaskTypes) || source.numTaskTypes <= 0) {
    failAt(origin, 1, "bad header \"" + printable(line) + "\"");
  }
  source.hasValues = fields[1] == "v2";
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
    // Exactly "type arrival deadline" (v1) or "type arrival deadline
    // value" (v2): an integer type, then finite numbers each filling its
    // whole field.
    const std::vector<std::string> fields = splitFields(line);
    const std::size_t expected = hasValues_ ? 4 : 3;
    if (hasValues_ && fields.size() == 3) {
      failAt(origin_, lineNo_, "truncated record (missing value)");
    }
    if (fields.size() != expected) {
      failAt(origin_, lineNo_,
             "malformed record (expected " + std::to_string(expected) +
                 " fields, got " + std::to_string(fields.size()) + ")");
    }
    TaskSpec t;
    if (!parseInt(fields[0], t.type)) {
      failAt(origin_, lineNo_, "malformed task type");
    }
    if (!parseDouble(fields[1], t.arrival)) {
      failAt(origin_, lineNo_, "malformed arrival");
    }
    if (!parseDouble(fields[2], t.deadline)) {
      failAt(origin_, lineNo_, "malformed deadline");
    }
    if (hasValues_ && !parseDouble(fields[3], t.value)) {
      failAt(origin_, lineNo_, "malformed value");
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
