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
//  - Reference, or explicit span (every throwaway context, and any caller
//    that passes its candidates): every round re-scans phase 1 per live
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
// a throwaway context finds them by walking the cluster.  Once per call,
// both paths gather a dense tile: one column per free machine (its
// virtual ready time and free slots) and one row per live task type (the
// type's expected execution time on each column's machine).  Phase 1 is
// then an inline top-2 loop over two contiguous rows of doubles, and a
// commit adds the tile entry to the column's ready time — the exec memo
// is read once per (type, machine) per call, never per round.  A machine
// whose last virtual slot fills leaves the tile: its column is compacted
// out of every row, so later rounds scan only machines that can still
// take work.  In the oversubscribed regime the tile holds a handful of
// the cluster's machines, often one.
//
// The explicit-span path reads each candidate's type once per call (into
// its tile row), memoizes phase 1 per row for one round under a round
// stamp, and drops a round's winners from the unmapped list with one
// stable compaction.  The incremental path skips the per-entry deferral
// lookup on an event's first call (the batch queue says whether anything
// was deferred since the event began).  Both reserve the result once at
// its exact bound: min(candidates, free slots).
//
// The engine is statically bound to each heuristic's phase-2 score (a
// template, not a virtual call): the score runs on the hot path of every
// round.  Scratch buffers live on the heuristic object and only grow, so
// a warm call allocates nothing but the result it returns.

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
    std::uint32_t column = 0;  ///< min-ECT machine's column in the tile
    double ect = 0.0;          ///< its completion time
    /// Completion time on the runner-up machine (= ect when only one
    /// machine has slots); secondEct - ect is the classic sufferage value.
    double secondEct = 0.0;
  };

  /// One machine's best phase-2 candidate this round.
  struct Candidate {
    sim::TaskId task = sim::kInvalidTask;
    Score score;
    /// Explicit-span path: index into unmapped_.  Incremental path: the
    /// task's stable arrival sequence number (the tie-break).
    std::size_t order = 0;
    std::uint32_t row = 0;  ///< the task's tile row (its type)
    /// Incremental path only: the winner's index in its type's bucket, to
    /// stamp it assigned at commit.
    std::uint32_t bucketIndex = 0;
  };

  /// The two-phase loop with `score(ctx, task, phase1)` inlined at the
  /// call site; every concrete heuristic's map() delegates here.
  ///
  /// Path selection: the incremental path runs iff the context is
  /// persistent with an attached batch queue AND `batch` is empty — an
  /// empty span is the scheduler's "read the candidates off the queue"
  /// signal.  A persistent caller that passes an explicit candidate span
  /// gets the reference evaluation against the persistent memos instead.
  /// Both paths assign identically.
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

  /// Loads the free machines into the tile's columns (machine id, free
  /// slots, virtual ready time) and returns min(candidates, free slots),
  /// the most assignments one call can make.
  std::size_t loadFreeMachines(const MappingContext& ctx,
                               std::size_t candidates);

  /// Opens a tile row for `type` (its expected execution time on every
  /// column's machine) and returns the row's index.
  std::uint32_t addRow(const MappingContext& ctx, sim::TaskType type);

  /// Phase 1 for one tile row: the minimum-ECT column and the runner-up's
  /// ECT over every column, ascending with strict-less updates (equal ECTs
  /// keep the lower machine id).  At least one column must exist.
  Phase1Result scanRow(std::uint32_t row) const;

  /// Commits each column's candidate this round, in machine order: the
  /// column's ready time grows by the winner's execution time, one of its
  /// slots is taken, and `onCommit(candidate)` lets the path retire the
  /// winner.  Columns whose last slot fills leave the tile (order kept).
  template <class OnCommit>
  void commitRound(std::vector<Assignment>& result, const OnCommit& onCommit);

  /// The tile, rebuilt per call on buffers that live as long as the
  /// heuristic object (one trial).  Columns [0, columns_) are the machines
  /// with a free virtual slot, ascending; no columns = the round loop is
  /// done.
  std::size_t columns_ = 0;
  std::vector<sim::MachineId> freeList_;  ///< column -> machine id
  std::vector<double> virtualReady_;      ///< column -> virtual ready time
  std::vector<std::size_t> slots_;        ///< column -> free virtual slots
  std::vector<Candidate> best_;           ///< column -> best this round
  /// Row r holds E[exec] of type rowType_[r] on column k at
  /// r * tileStride_ + k; the stride is the column count at call start.
  std::vector<double> execTile_;
  std::size_t tileStride_ = 0;
  std::vector<sim::TaskType> rowType_;

  // --- Explicit-span state ---------------------------------------------------

  struct Unmapped {
    sim::TaskId task = sim::kInvalidTask;  ///< kInvalidTask once assigned
    std::uint32_t row = 0;
  };
  std::vector<Unmapped> unmapped_;
  /// type -> its tile row, valid iff rowStamp_[type] == callGen_.
  std::vector<std::uint32_t> rowOfType_;
  std::vector<std::uint32_t> rowStamp_;
  /// Phase 1 per row for one round (every unmapped task of a type shares
  /// one scan), valid iff phase1Round_[row] == roundGen_.
  std::vector<Phase1Result> phase1ByRow_;
  std::vector<std::uint64_t> phase1Round_;
  std::uint64_t roundGen_ = 0;

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
  std::vector<std::uint32_t> cursor_;  ///< per row: first candidate entry
  std::vector<std::uint32_t> liveRows_;  ///< rows with candidate tasks
  std::uint32_t callGen_ = 0;            ///< map() call counter (stamps)
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
