#pragma once
// Batch-mode mapping heuristics for heterogeneous systems (§III-C):
// MM (MinCompletion-MinCompletion), MSD (MinCompletion-SoonestDeadline),
// MMU (MinCompletion-MaxUrgency).
//
// All three share the paper's two-phase virtual-queue process:
//   Phase 1 — for every unmapped task, find the machine offering the
//             minimum expected completion time (among machines with free
//             virtual queue slots).
//   Phase 2 — for each machine with a free slot, choose among its phase-1
//             candidates by a per-heuristic criterion, assign virtually,
//             and repeat until the virtual queues are full or the unmapped
//             queue is empty.
//
// Two executions of that process live here, selected by the context's
// lifetime and bit-identical in their assignments:
//
//  - Reference (throwaway contexts): every round re-scans phase 1 per live
//    task type and re-scores phase 2 over every unmapped task, exactly as
//    the paper reads.
//  - Incremental (persistent contexts with an attached batch queue — the
//    incremental mapping engine): phase 2 walks one candidate per type —
//    tasks of a type live in per-type buckets sorted by a static
//    within-type key, so the type's head is its best phase-2 candidate —
//    instead of the whole batch.  The buckets are not rebuilt per call:
//    they replay the batch queue's mutation journal, so a mapping event
//    costs O(what changed), not O(queue).  Phase 1 is scanned afresh for
//    every live type each round, as in the reference: a type read in a
//    round always sends a candidate to its min-ECT machine, and every
//    machine holding a candidate takes a commit that round, so no phase-1
//    result survives into the next round (or the next call) unchanged.
//
// Both paths touch only machines with a free slot.  A context with an
// attached free-machine set (the incremental engine's persistent context,
// kept exact by the machines themselves) hands them over without a walk;
// a throwaway context finds them by walking the cluster.  Pricing, phase-1
// scans, the per-round candidate reset and the commits then run over that
// ascending list, which shrinks as virtual commits fill slots.  In the
// oversubscribed regime the list holds a handful of the cluster's
// machines, often one.
//
// The engine is statically bound to each heuristic's phase-2 score (a
// template, not a virtual call): the score runs on the hot path of every
// round.  Scratch buffers live on the heuristic object — one warm-up
// allocation per trial instead of five per round.

#include <cstdint>
#include <vector>

#include "heuristics/heuristic.h"

namespace hcs::heuristics {

/// Shared two-phase engine; subclasses supply the phase-2 selection score
/// (lower wins) through the statically bound mapImpl().
class TwoPhaseBatchHeuristic : public BatchHeuristic {
 public:
  /// The incremental path reads candidates straight off ctx.batchQueue().
  bool consumesBatchQueue() const override { return true; }

 protected:
  /// Lexicographic comparison: primary first, expected completion breaks
  /// ties (as MSD specifies; harmless for the others).
  struct Score {
    double primary = 0.0;
    double completion = 0.0;

    bool operator<(const Score& other) const {
      if (primary != other.primary) return primary < other.primary;
      return completion < other.completion;
    }
  };

  /// What phase 1 learned about a task type this round.
  struct Phase1Result {
    sim::MachineId machine = sim::kInvalidMachine;  ///< min-ECT machine
    double ect = 0.0;                               ///< its completion time
    /// Completion time on the runner-up machine (= ect when only one
    /// machine has slots); secondEct - ect is the classic sufferage value.
    double secondEct = 0.0;
  };

  /// One machine's best phase-2 candidate this round.
  struct Candidate {
    sim::TaskId task = sim::kInvalidTask;
    Score score;
    /// Reference path: index into unmapped_.  Incremental path: the
    /// task's stable arrival sequence number (the tie-break).
    std::size_t unmappedIndex = 0;
    /// Incremental path only: where the winner lives, to stamp it
    /// assigned at commit.
    int bucketType = -1;
    std::uint32_t bucketIndex = 0;
  };

  /// The two-phase loop with `score(ctx, task, phase1)` inlined at the
  /// call site; every concrete heuristic's map() delegates here.
  ///
  /// Path selection: the incremental path runs iff the context is
  /// persistent with an attached batch queue AND `batch` is empty — an
  /// empty span is the scheduler's "read the candidates off the queue"
  /// signal.  A persistent caller that passes an explicit candidate span
  /// gets the reference evaluation against the persistent memos instead:
  /// that is how the adaptive engine bypasses the delta bookkeeping below
  /// its queue-depth threshold while keeping the trial-lifetime
  /// ready/exec caches.  Both paths assign identically.
  ///
  /// `withinTypeKey(ctx, task)` must order the tasks of one type exactly
  /// as the score does for ANY phase-1 result: score must be monotone
  /// non-decreasing in the key, and equal keys must give equal scores.
  /// (All five built-ins satisfy this with either a constant or the
  /// deadline.)  The incremental path sorts each type's tasks by
  /// (key, batch position) once and then scores only the head.
  ///
  /// `saturates(key, phase1)` must return true exactly when the score
  /// collapses to its minimal plateau at that key (MMU's -inf urgency for
  /// hopeless slack) — distinct keys inside the plateau share one score,
  /// so the winner is the earliest *batch position*, not the smallest key,
  /// and the incremental path must scan the saturated prefix instead of
  /// trusting the head.  Saturation must be downward-closed in the key.
  template <class ScoreFn, class KeyFn, class SaturatesFn>
  std::vector<Assignment> mapImpl(const MappingContext& ctx,
                                  std::span<const sim::TaskId> batch,
                                  const ScoreFn& score,
                                  const KeyFn& withinTypeKey,
                                  const SaturatesFn& saturates);

 private:
  template <class ScoreFn>
  std::vector<Assignment> mapReference(const MappingContext& ctx,
                                       std::span<const sim::TaskId> batch,
                                       const ScoreFn& score);
  /// Queue-direct delta evaluation; candidates come from ctx.batchQueue().
  template <class ScoreFn, class KeyFn, class SaturatesFn>
  std::vector<Assignment> mapIncremental(const MappingContext& ctx,
                                         const ScoreFn& score,
                                         const KeyFn& withinTypeKey,
                                         const SaturatesFn& saturates);

  /// Minimum-ECT scan over the machines with free virtual slots (one
  /// ascending loop over freeList_, reading virtualReady_).  The single
  /// source of the phase-1 arithmetic for both paths.
  Phase1Result scanPhase1(const MappingContext& ctx, sim::TaskType type) const;

  /// Loads freeList_ from the context and prices its machines (virtual
  /// slots and ready times).  Machines off the list are never read.
  void loadFreeMachines(const MappingContext& ctx);

  /// Drops the machines whose virtual slots a commit just filled from
  /// freeList_ (order kept).
  void pruneFullMachines();

  /// Per-round working sets, reused across mapping events (the heuristic
  /// object lives for the whole trial).  virtualReady_, slots_ and best_
  /// are indexed by machine but hold meaningful values only for machines
  /// on freeList_.
  std::vector<double> virtualReady_;
  std::vector<std::size_t> slots_;
  std::vector<sim::TaskId> unmapped_;
  std::vector<Candidate> best_;
  std::vector<Candidate> winners_;
  /// The machines with free virtual slots, ascending; a machine leaves
  /// when a commit fills its last slot.  Empty = the round loop is done.
  std::vector<sim::MachineId> freeList_;
  /// Reference path: phase-1 results memoized per task type for one round
  /// (phase 1 reads only the virtual queue state and the task's type, so
  /// every unmapped task of a type shares one scan).
  std::vector<Phase1Result> phase1ByType_;
  std::vector<char> phase1Stale_;

  // --- Incremental-path state (persistent contexts only) ---------------------

  /// assignedCall value marking a tombstone (the task left the queue).
  /// Removals never memmove the bucket — the dead entry keeps its
  /// (key, seq) so binary searches stay valid, a persistent head pointer
  /// hops the dead prefix (the common death site: winners are heads), and
  /// compaction sweeps when tombstones outnumber the living.
  static constexpr std::uint32_t kDeadEntry = 0xffffffffu;

  struct BucketEntry {
    double key = 0.0;             ///< within-type ordering key
    std::uint64_t seq = 0;        ///< stable arrival sequence (tie-break)
    sim::TaskId task = sim::kInvalidTask;
    std::uint32_t assignedCall = 0;  ///< callGen_ stamp, or kDeadEntry
  };
  /// Per type: its queued tasks sorted by (key, seq); head = best phase-2
  /// candidate of the type.  Maintained across calls by replaying the
  /// batch queue's mutation journal.
  std::vector<std::vector<BucketEntry>> buckets_;
  std::vector<std::uint32_t> bucketHead_;  ///< first maybe-live index
  std::vector<std::uint32_t> bucketDead_;  ///< tombstones in the bucket
  std::vector<std::uint32_t> cursor_;  ///< per type: first candidate entry
  std::vector<int> liveTypes_;         ///< types with candidate tasks
  std::uint32_t callGen_ = 0;          ///< map() call counter (stamps)
  /// Journal synchronization with the attached batch queue.
  const sim::BatchQueue* syncedQueue_ = nullptr;
  std::uint64_t syncedResetGen_ = 0;
  std::size_t syncedJournalPos_ = 0;
  const void* syncedPool_ = nullptr;  ///< keys read task data from here
};

/// MM: phase 2 also minimizes expected completion time (classic MinMin).
class MinCompletionMinCompletion final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MM"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// MSD: phase 2 picks the soonest deadline, ties broken by completion time.
class MinCompletionSoonestDeadline final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MSD"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// MMU: phase 2 maximizes urgency U = 1 / (deadline - E[C]) (Eq. 3).
/// A non-positive slack means the task is about to miss its deadline; it is
/// treated as maximally urgent — precisely the behaviour that makes MMU
/// benefit most from pruning (§V-E).
class MinCompletionMaxUrgency final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MMU"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// MaxMin (extension; Braun et al.'s classic counterpart to MinMin): phase 2
/// picks the *largest* minimum completion time, so long tasks claim their
/// machines before short ones fill the slots.
class MaxMin final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "MaxMin"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// Sufferage (extension; Maheswaran et al. 1999): phase 2 prioritizes the
/// task that would suffer most from losing its best machine — the gap
/// between its second-best and best completion times.
class SufferageHeuristic final : public TwoPhaseBatchHeuristic {
 public:
  std::string_view name() const override { return "Sufferage"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

}  // namespace hcs::heuristics
