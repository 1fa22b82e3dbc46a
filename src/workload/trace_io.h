#pragma once
// Plain-text persistence for workload trials, and streaming trace replay.
//
// The paper published its workload trials for reproducibility (§V-B, the
// git.io link is dead); this module provides the equivalent: trials
// generated here can be saved, shared, and replayed bit-for-bit.
//
// Format (line-oriented, '#' comments allowed):
//   hcs-workload v2 <numTaskTypes>
//   <type> <arrival> <deadline> <value>   (one per task, sorted by arrival)
// v1 traces (three columns, value implicitly 1.0) are still read.
//
// TraceTaskStream replays the same format one record at a time (O(1)
// memory), and CsvTaskStream replays external cluster traces — Azure
// Functions invocation logs and Borg-style task events — mapped onto the
// simulator's task model.  Both reject malformed, non-finite, truncated,
// and out-of-order records with the offending line number.

#include <fstream>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>

#include "workload/stream.h"
#include "workload/workload.h"

namespace hcs::workload {

void saveWorkload(const Workload& workload, std::ostream& out);
void saveWorkloadFile(const Workload& workload, const std::string& path);

/// Reads a whole trace through TraceTaskStream.  Throws std::runtime_error
/// on malformed input, naming the line ("loadWorkload" or the file path).
Workload loadWorkload(std::istream& in);
Workload loadWorkloadFile(const std::string& path);

/// Streams a saved hcs-workload trace record by record.  A header-only
/// trace is a valid empty stream.  Malformed records, a truncated final
/// record, and out-of-order arrivals throw std::runtime_error naming the
/// origin (the file path) and line.
class TraceTaskStream : public TaskStream {
 public:
  explicit TraceTaskStream(const std::string& path);
  /// Replays the trace read from `in`, which must outlive the stream;
  /// errors name `origin`.
  TraceTaskStream(std::istream& in, const std::string& origin);

 protected:
  bool produce(TaskSpec& out) override;

 private:
  struct Source {
    std::unique_ptr<std::istream> owned;  ///< set when reading a file
    std::istream* in = nullptr;
    int numTaskTypes = 0;
    bool hasValues = true;
  };
  static Source readHeader(Source source, const std::string& origin);
  TraceTaskStream(Source source, const std::string& origin);

  std::unique_ptr<std::istream> owned_;
  std::istream& in_;
  std::string origin_;
  bool hasValues_ = true;
  std::size_t lineNo_ = 1;
  sim::Time lastArrival_ = -std::numeric_limits<sim::Time>::infinity();
};

/// External cluster-trace formats CsvTaskStream understands.
enum class CsvTraceFormat {
  Azure,  ///< rows: timestamp,function,duration   (Azure Functions style)
  Borg,   ///< rows: time,jobid,priority,runtime   (Borg-style task events)
};

struct CsvTraceOptions {
  int numTaskTypes = 12;       ///< key hash is mapped onto this many types
  double deadlineSlack = 1.0;  ///< deadline = arrival + slack * runtime
  double timeScale = 1.0;      ///< multiplier on trace timestamps/runtimes
};

/// Streams an external CSV cluster trace as TaskSpecs: the function/job key
/// is hashed (FNV-1a) onto a task type, the record's runtime sets the
/// deadline via `deadlineSlack`, and Borg priorities become task values
/// (max(1.0, priority)).  One leading non-numeric header line is skipped
/// automatically.  Errors name the file and line.
class CsvTaskStream : public TaskStream {
 public:
  CsvTaskStream(const std::string& path, CsvTraceFormat format,
                const CsvTraceOptions& options);

 protected:
  bool produce(TaskSpec& out) override;

 private:
  std::ifstream in_;
  std::string path_;
  CsvTraceFormat format_;
  CsvTraceOptions options_;
  std::size_t lineNo_ = 0;
  bool checkedHeader_ = false;
  sim::Time lastArrival_ = -std::numeric_limits<sim::Time>::infinity();
};

}  // namespace hcs::workload
