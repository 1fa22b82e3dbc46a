#pragma once
// The read-only view of the system a mapping heuristic (and the pruner)
// works against at one mapping event.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "heuristics/pct_cache.h"
#include "sim/batch_queue.h"
#include "sim/free_set.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::heuristics {

/// Snapshot facade over the scheduler's state at a mapping event.
///
/// Caches per-machine expected-ready times (the scalar part of completion
/// estimates) because every batch heuristic queries them O(batch x machines)
/// times per event.
///
/// Two lifetimes exist:
///  - Throwaway (the default): built for one batch round and discarded, the
///    reference engine's behavior.  The memo tables ride the PMF arena and
///    use a -1 sentinel for "unfilled".
///  - Persistent (enablePersistence() + rebind()): owned by the scheduler
///    for a whole trial.  The exec memo is valid for the trial (it depends
///    only on the fixed execution model); each ready-memo entry carries the
///    machine's queue epoch and the context's rebind generation, so after a
///    dispatch only the touched machine recomputes — the dirty-machine
///    contract of the incremental mapping engine.  Every query answers
///    bit-identically in both modes.
class MappingContext {
 public:
  /// `queueCapacity` caps tasks in a machine's system (running + waiting);
  /// use kUnbounded for immediate-mode resource allocation.
  static constexpr std::size_t kUnbounded =
      std::numeric_limits<std::size_t>::max();

  /// `pctCache`, when non-null, memoizes successChance() convolutions
  /// across mapping events (invalidated by the machines' queue epochs); it
  /// must outlive the context.  Results are identical with or without it.
  MappingContext(sim::Time now, const sim::TaskPool& pool,
                 const std::vector<sim::Machine>& machines,
                 const sim::ExecutionModel& model, std::size_t queueCapacity,
                 PctCache* pctCache = nullptr);

  /// Switches this context to the persistent (epoch-validated) lifetime.
  /// Call once, before the first query.
  void enablePersistence();
  bool persistent() const { return persistent_; }

  /// The incremental engine's arrival queue (persistent batch-mode
  /// contexts only, else null).  Heuristics that announce
  /// consumesBatchQueue() read candidates and their arrival order straight
  /// from it — and keep derived structures in sync through its mutation
  /// journal — instead of receiving a rebuilt span every round.
  void attachBatchQueue(const sim::BatchQueue* queue) { batchQueue_ = queue; }
  const sim::BatchQueue* batchQueue() const { return batchQueue_; }

  /// Re-anchors a persistent context to a new mapping event.  A changed
  /// `now` starts a new ready-memo generation; entries for machines whose
  /// queue epoch is unchanged within one generation stay valid across the
  /// event's rounds.  The exec memo is untouched — it is now-independent.
  void rebind(sim::Time now);

  sim::Time now() const { return now_; }
  const sim::TaskPool& pool() const { return *pool_; }
  const sim::ExecutionModel& model() const { return *model_; }
  int numMachines() const { return static_cast<int>(machines_->size()); }
  const sim::Machine& machine(sim::MachineId id) const {
    return (*machines_)[static_cast<std::size_t>(id)];
  }

  /// Expected time machine `id` drains its current work (cached).  The hit
  /// path is inline, so a memoized answer costs no call.
  sim::Time expectedReady(sim::MachineId id) const {
    const auto idx = static_cast<std::size_t>(id);
    if (persistent_) {
      // Entry valid iff computed at this `now` (generation) for this exact
      // queue configuration (epoch) — the dirty-machine invalidation: after
      // a dispatch, only the touched machine misses.
      if (readyStamp_[idx] == readyGen_ &&
          readyEpoch_[idx] == (*machines_)[idx].queueEpoch()) {
        return readyCache_[idx];
      }
    } else if (readyCache_[idx] >= 0.0) {
      return readyCache_[idx];
    }
    return computeReady(id);
  }

  /// model().expectedExec with the virtual call devirtualized through a
  /// memo — the batch heuristics query the same (type, machine) pairs
  /// O(batch × machines) times per event.  In persistent mode the memo
  /// lives for the whole trial (the model never changes under a context).
  double expectedExec(sim::TaskType type, sim::MachineId id) const {
    const std::size_t slot = static_cast<std::size_t>(type) *
                                 static_cast<std::size_t>(numMachines()) +
                             static_cast<std::size_t>(id);
    double& value = execCache_[slot];
    if (value < 0.0) value = model_->expectedExec(type, id);
    return value;
  }

  MappingContext(MappingContext&&) = default;
  ~MappingContext();

  /// Expected completion time of `task` if appended to machine `id` now:
  /// expectedReady + E[PET] (the scalar estimate MCT/MM/MSD/MMU use).
  sim::Time expectedCompletion(sim::TaskId task, sim::MachineId id) const {
    return expectedCompletionForType((*pool_)[task].type, id);
  }
  sim::Time expectedCompletionForType(sim::TaskType type,
                                      sim::MachineId id) const {
    return expectedReady(id) + expectedExec(type, id);
  }

  /// Free machine-queue slots (running task counts against capacity).  An
  /// offline or draining machine offers no capacity regardless of the
  /// queue bound — the single gate that makes both mapping engines skip
  /// churned and winding-down machines identically.  Inline: the batch
  /// heuristics ask once per free machine per call.
  std::size_t freeSlots(sim::MachineId id) const {
    const sim::Machine& m = machine(id);
    if (!m.acceptsWork()) return 0;
    if (capacity_ == kUnbounded) return kUnbounded;
    const std::size_t inSystem = m.queueLength() + (m.busy() ? 1 : 0);
    return inSystem >= capacity_ ? 0 : capacity_ - inSystem;
  }
  std::size_t queueCapacity() const { return capacity_; }

  /// The cluster's maintained set of machines with a free slot (the
  /// incremental engine attaches it to its persistent context; it must
  /// outlive the context and use this context's capacity).
  void attachFreeSet(const sim::FreeMachineSet* set) { freeSet_ = set; }

  /// Every machine with freeSlots(j) > 0, ascending, into `out`: read off
  /// the attached set, or found by walking every machine when none is
  /// attached — so throwaway contexts (the reference engine) never depend
  /// on the set.
  void freeMachines(std::vector<sim::MachineId>& out) const;

  /// Throws std::logic_error unless the attached set equals the full walk
  /// {j : freeSlots(j) > 0}.  Debug builds run it after every set update.
  void checkFreeSet() const;

  /// Chance of success (Eq. 2) of `task` if appended to machine `id` now:
  /// P[tail PCT * PET <= deadline].  The probabilistic estimate the pruner
  /// uses; heavier than expectedCompletion (one convolution).
  double successChance(sim::TaskId task, sim::MachineId id) const;

  /// Chance of success of `task` on *every* machine, element j equal to
  /// successChance(task, j).  Evaluates the whole candidate set in one pass
  /// (prob::successProbabilityBatch over arena-backed PCTs, or the memoized
  /// append entries when the PCT cache is attached) — the bulk query for
  /// chance-aware heuristics that rank all machines at once.
  std::vector<double> successChances(sim::TaskId task) const;

  PctCache* pctCache() const { return pctCache_; }

 private:
  /// expectedReady's miss path: computes and memoizes machine `id`'s ready
  /// time at `now_`.
  sim::Time computeReady(sim::MachineId id) const;

  sim::Time now_;
  const sim::TaskPool* pool_;
  const std::vector<sim::Machine>* machines_;
  const sim::ExecutionModel* model_;
  std::size_t capacity_;
  PctCache* pctCache_;
  const sim::BatchQueue* batchQueue_ = nullptr;
  const sim::FreeMachineSet* freeSet_ = nullptr;
  bool persistent_ = false;
  /// Throwaway contexts are built per batch round — the memo buffers ride
  /// the PMF arena instead of paying heap allocations each time.  -1 =
  /// unfilled in both caches (ready times and execution means are never
  /// negative); the destructor recycles the buffers.
  mutable std::vector<double> readyCache_;
  mutable std::vector<double> execCache_;
  /// Persistent-mode validity stamps for readyCache_: an entry holds iff
  /// its generation equals readyGen_ (same `now`) and its epoch equals the
  /// machine's current queue epoch (no mutation since it was filled).
  /// Empty in throwaway mode.
  mutable std::vector<std::uint64_t> readyEpoch_;
  mutable std::vector<std::uint32_t> readyStamp_;
  std::uint32_t readyGen_ = 1;
};

}  // namespace hcs::heuristics
