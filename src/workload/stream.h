#pragma once
// Pull-based arrival sources: how the event loop reads a trial's tasks.
//
// Every trial pulls its TaskSpec sequence one pop at a time, so the only
// arrival list a trial ever holds is the one a caller materialized:
//
//  - GeneratedTaskStream is the arrival process of arrival.h
//    (ArrivalStream) plus the Eq. 4 deadline draw: it pops exactly the
//    TaskSpec sequence Workload::generate materializes, holding O(types)
//    state.
//  - WorkloadStream adapts a materialized Workload: the event loop's
//    arrival path for every Workload-driven trial.
//  - trace_io.h adds TraceTaskStream (saved hcs-workload traces) and
//    CsvTaskStream (Azure Functions / Borg-style cluster traces).
//  - LimitedTaskStream applies the scenario `stream` block's max_tasks /
//    max_time cutoffs to any source.
//
// Every pop passes checkTaskSpec (workload.h), the check the Workload
// constructor applies up front.

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "prob/rng.h"
#include "sim/types.h"
#include "workload/arrival.h"
#include "workload/deadline.h"
#include "workload/pet_matrix.h"
#include "workload/workload.h"

namespace hcs::workload {

/// Pull-based source of one trial's task sequence, sorted by arrival.
class TaskStream {
 public:
  virtual ~TaskStream() = default;

  int numTaskTypes() const { return numTaskTypes_; }

  /// The next task, without consuming it; nullptr once the stream is
  /// exhausted.  The pointer is valid until the next pop().
  const TaskSpec* peek();

  /// Consumes and returns the next task; throws std::logic_error when the
  /// stream is exhausted (callers gate on peek()).
  TaskSpec pop();

 protected:
  explicit TaskStream(int numTaskTypes);

  /// Produces the next task spec; false once the source is exhausted.
  virtual bool produce(TaskSpec& out) = 0;

 private:
  void refill();

  TaskSpec buffered_{};
  bool haveBuffered_ = false;
  bool exhausted_ = false;
  sim::Time lastArrival_ = -std::numeric_limits<sim::Time>::infinity();
  int numTaskTypes_ = 0;
};

/// Streams Workload::generate(pet, arrival, deadline, seed) without ever
/// materializing it: popping the whole stream yields the exact TaskSpec
/// sequence (bit-for-bit, deadlines included) of the eager generator.
class GeneratedTaskStream : public TaskStream {
 public:
  /// `pet` must outlive the stream.
  GeneratedTaskStream(const PetMatrix& pet, const ArrivalSpec& arrival,
                      const DeadlineSpec& deadline, std::uint64_t seed);

 protected:
  bool produce(TaskSpec& out) override;

 private:
  GeneratedTaskStream(const PetMatrix& pet, const ArrivalSpec& arrival,
                      const DeadlineSpec& deadline, prob::Rng seedRng);

  const PetMatrix& pet_;
  DeadlineSpec deadline_;
  std::vector<ValueClass> values_;
  // Declared in Workload::generate's fork order: arrivals, deadlines,
  // values.
  ArrivalStream arrivals_;
  prob::Rng deadlineRng_;
  prob::Rng valueRng_;
};

/// Adapts a materialized Workload to the pull interface (the event loop
/// wraps every Workload it is given in one).  `workload` must outlive the
/// stream.
class WorkloadStream : public TaskStream {
 public:
  explicit WorkloadStream(const Workload& workload);

 protected:
  bool produce(TaskSpec& out) override;

 private:
  const Workload& workload_;
  std::size_t cursor_ = 0;
};

/// Applies the scenario `stream` block's cutoffs to any source: stop after
/// `maxTasks` pops (0 = unlimited) or at the first arrival past `maxTime`
/// (0 = unlimited).
class LimitedTaskStream : public TaskStream {
 public:
  LimitedTaskStream(std::unique_ptr<TaskStream> inner, std::uint64_t maxTasks,
                    sim::Time maxTime);

 protected:
  bool produce(TaskSpec& out) override;

 private:
  std::unique_ptr<TaskStream> inner_;
  std::uint64_t maxTasks_ = 0;
  sim::Time maxTime_ = 0;
  std::uint64_t emitted_ = 0;
};

/// The scenario `stream` block, resolved: how a streamed trial sources its
/// arrivals.  An empty `trace` generates from the experiment's arrival and
/// deadline specs; otherwise the named trace file is replayed in the given
/// format.
struct StreamSpec {
  bool enabled = false;
  std::uint64_t maxTasks = 0;  ///< cutoff after this many tasks (0 = off)
  sim::Time maxTime = 0;       ///< cutoff past this arrival time (0 = off)
  std::string trace;           ///< trace file to replay; empty = generate
  std::string format = "hcs";  ///< "hcs" | "azure" | "borg"
  double deadlineSlack = 1.0;  ///< CSV: deadline = arrival + slack * runtime
  double timeScale = 1.0;      ///< CSV: multiplier on trace timestamps
};

/// Builds the TaskStream a streamed trial runs on, per `spec`: a
/// GeneratedTaskStream seeded like Workload::generate, or a trace reader,
/// wrapped in the cutoffs when any are set.  `pet` must outlive the stream.
std::unique_ptr<TaskStream> openTaskStream(const StreamSpec& spec,
                                           const PetMatrix& pet,
                                           const ArrivalSpec& arrival,
                                           const DeadlineSpec& deadline,
                                           std::uint64_t seed);

}  // namespace hcs::workload
