#pragma once
// Pull-based arrival sources: the streaming twin of Workload.
//
// A Workload materializes a whole trial up front — fine for the paper's
// 15k-25k task experiments, linear in memory for the million-task service
// mode the roadmap targets.  A TaskStream produces the same TaskSpec
// sequence one pop at a time, so a trial never holds more than the
// in-flight window of tasks:
//
//  - GeneratedTaskStream reproduces Workload::generate EXACTLY (same seed,
//    same fork sequence, same draws) for every arrival pattern.  The
//    constant/spiky patterns draw per-type gap sequences from one shared
//    RNG; the stream snapshots that RNG at each type's start during a
//    value-free replay of the draw loop (O(types) memory), then re-draws
//    each type lazily and k-way-merges the per-type streams on
//    (time, type) — the exact order the eager sort produces.  The bursty
//    IPPP pattern is a single Lewis-Shedler thinning loop and streams
//    directly.
//  - WorkloadStream adapts an existing materialized Workload: the event
//    loop's arrival path for every Workload-driven trial.
//  - trace_io.h adds TraceTaskStream (saved hcs-workload traces) and
//    CsvTaskStream (Azure Functions / Borg-style cluster traces).
//  - LimitedTaskStream applies the scenario `stream` block's max_tasks /
//    max_time cutoffs to any source.
//
// Streams validate online what the Workload constructor validates up
// front: nondecreasing arrivals, type range, deadline >= arrival,
// positive value.

#include <cstdint>
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
  bool first_ = true;
  sim::Time lastArrival_ = 0;
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
  /// One task type's lazy gap-sequence replay (constant/spiky patterns).
  struct TypeCursor {
    prob::Rng rng;          ///< snapshot at this type's draw-loop start
    double position = 0.0;  ///< cumulative expected-arrival index
    bool started = false;
    bool done = false;
    sim::Time nextTime = 0;

    explicit TypeCursor(prob::Rng snapshot) : rng(std::move(snapshot)) {}
  };

  void advanceType(std::size_t k);
  bool nextArrival(Arrival& out);
  bool nextBurstyArrival(Arrival& out);

  const PetMatrix& pet_;
  ArrivalSpec arrival_;
  DeadlineSpec deadline_;
  prob::Rng deadlineRng_;

  // Constant/spiky machinery (one profile: every type shares the shape).
  std::vector<TypeCursor> cursors_;
  std::unique_ptr<RateProfile> profile_;
  double totalExpected_ = 0.0;
  double gapShape_ = 0.0;
  double gapScale_ = 0.0;

  // Bursty (IPPP / Lewis-Shedler) machinery.
  prob::Rng burstyRng_;
  double burstyCeiling_ = 0.0;
  double burstyReach_ = 0.0;
  double burstyFirstCenter_ = 0.0;
  double burstyT_ = 0.0;
};

/// Adapts a materialized Workload to the pull interface (the event loop
/// wraps every Workload it is given in one).  `workload` must outlive the
/// stream.
class WorkloadStream : public TaskStream {
 public:
  explicit WorkloadStream(const Workload& workload);

  /// Tasks in the wrapped workload.
  std::size_t size() const { return workload_.size(); }

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
