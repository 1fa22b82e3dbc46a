#pragma once
// A machine with a FIFO queue and incremental PCT tracking (Eq. 1).

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "prob/pmf.h"
#include "sim/free_set.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::sim {

/// One machine of the cluster.
///
/// Tasks dispatched to a machine wait in its FIFO queue, then run to
/// completion without preemption (§II).  The machine maintains the PCT of
/// the most recently assigned task — the recursion state of Eq. 1 — so that
/// the PCT of a *new* candidate task is one convolution away.  Completions
/// and drops rebuild the chain from the running task's conditioned
/// remaining-time distribution, which is how queue shortening reduces
/// compound uncertainty (§II).
class Machine {
 public:
  /// `trackTail` keeps the Eq. 1 recursion state updated on every dispatch
  /// (one convolution) so tailPct() is O(1).  Immediate-mode resource
  /// allocation — unbounded queues, no deferring — turns it off and pays
  /// the full chain walk only if a PCT is actually requested.
  ///
  /// `lazyTailRebuild` defers the chain re-derivation after completions /
  /// removals to the next tailPct() read (bit-identical results, fewer
  /// rebuilds).  Off = eager rebuild on every mutation, the reference
  /// behavior the incremental path is validated against.
  Machine(MachineId id, double binWidth, bool trackTail = true,
          bool lazyTailRebuild = true);

  MachineId id() const { return id_; }
  double binWidth() const { return binWidth_; }

  /// Monotone counter bumped on every state mutation (dispatch, completion,
  /// queue removal, abort).  Downstream consumers — notably the PCT cache —
  /// key derived data on it to detect staleness: equal epochs guarantee the
  /// machine's (running, queue) configuration is unchanged.
  std::uint64_t queueEpoch() const { return epoch_; }

  /// True when the Eq. 1 recursion state is live, i.e. tailPct() is
  /// independent of `now` (trackTail on and the machine has work).
  bool tailTracked() const { return trackTail_ && !empty(); }

  bool busy() const { return running_ != kInvalidTask; }
  TaskId runningTask() const { return running_; }
  Time runningSince() const { return runStart_; }

  /// False while the machine is failed / has left the cluster (fault
  /// injection): it offers no capacity and refuses dispatches.  Both edges
  /// bump the queue epoch, so every epoch-keyed memo downstream (PCT cache,
  /// ready memos) invalidates exactly the churned machine.
  bool online() const { return online_; }

  /// True while the capacity controller is gracefully retiring this machine:
  /// it stays online and finishes its running/queued work, but accepts no
  /// new dispatches.  Unlike failure's abort-and-orphan path, drain is
  /// invisible to the tasks already placed here.  The flag survives a
  /// failure/recovery cycle (a draining machine that crashes recovers still
  /// draining); it is cleared by cancelDrain() — either a scale-up reusing
  /// the slot, or the controller retiring the emptied machine.
  bool draining() const { return draining_; }

  /// Whether mapping may place new work here: online and not draining.
  /// This is the single candidate gate for heuristics, routing, and
  /// admission; queue *promotion* (startIdleMachines / startNextIfIdle)
  /// deliberately keeps using online() so draining machines still finish
  /// their queues.
  bool acceptsWork() const { return online_ && !draining_; }

  /// Time this machine has spent online / draining up to `now` (machine-
  /// seconds cost accounting for the elasticity layer).  Draining time is a
  /// subset of online time; both clocks pause while the machine is offline.
  Time onlineSeconds(Time now) const {
    return accumOnline_ + (online_ ? now - onlineSince_ : 0);
  }
  Time drainingSeconds(Time now) const {
    return accumDraining_ + (online_ && draining_ ? now - drainingSince_ : 0);
  }

  const std::deque<TaskId>& queue() const { return queue_; }
  /// Task types of queue(), same order — a dense mirror so the hot queue
  /// walks (expected-ready sums, Eq. 1 chain rebuilds) read one contiguous
  /// array instead of gathering pool[id].type per task.
  const std::vector<TaskType>& queueTypes() const { return queueTypes_; }
  std::size_t queueLength() const { return queue_.size(); }
  bool empty() const { return !busy() && queue_.empty(); }

  /// Total time this machine has spent executing tasks (utilization metric).
  Time busyTime() const { return busyTime_; }

  // --- PCT (Eq. 1) ----------------------------------------------------------

  /// Distribution of when the machine becomes free of its *running* task:
  /// a point mass at `now` when idle, otherwise the running task's
  /// remaining-time PET conditioned on its elapsed execution, re-anchored
  /// to absolute time.  The base case of the Eq. 1 recursion.
  prob::DiscretePmf availabilityPct(Time now, const TaskPool& pool,
                                    const ExecutionModel& model) const;

  /// Exactly {availabilityPct(...).firstBin(), …lastBin()} without
  /// materializing the PMF: seeds interval bounds on completion times so
  /// chance-of-success comparisons can often skip the convolutions.
  std::pair<std::int64_t, std::int64_t> availabilityBounds(
      Time now, const TaskPool& pool, const ExecutionModel& model) const;

  /// PCT of the last task in the machine's system (running + queued), on the
  /// absolute time grid.  For an empty machine this is a point mass at
  /// `now` — the machine is free immediately.
  prob::DiscretePmf tailPct(Time now, const TaskPool& pool,
                            const ExecutionModel& model) const;

  /// The memoized Eq. 1 recursion state by reference, rebuilding it first if
  /// a lazy invalidation is pending.  Requires tailTracked(); throws
  /// std::logic_error otherwise.  The reference is valid until the next
  /// mutation — read-only consumers (the PCT cache's append convolutions)
  /// use it to skip tailPct()'s defensive copy.
  const prob::DiscretePmf& tailPctRef(const TaskPool& pool,
                                      const ExecutionModel& model) const;

  /// Support bounds of tailPct(now): {lo, hi} with lo exactly
  /// tailPct(now).firstBin() and hi >= tailPct(now).lastBin() (equal except
  /// when convolution capping folded tail mass inward, where the interval
  /// stays safely conservative).  Computed WITHOUT materializing a dirty
  /// tail: additive interval arithmetic over the chain's factors — the O(q)
  /// scalar query that lets chance-of-success comparisons skip the Eq. 1
  /// convolution when the whole support sits on one side of the deadline.
  std::pair<std::int64_t, std::int64_t> tailBounds(
      Time now, const TaskPool& pool, const ExecutionModel& model) const;

  /// Expected time at which the machine will have drained all current work;
  /// the scalar completion estimate used by MCT-family heuristics.
  Time expectedReady(Time now, const TaskPool& pool,
                     const ExecutionModel& model) const;

  // --- Mutations (called by the scheduler / engine) --------------------------

  /// Dispatches a task to this machine: it starts running if the machine is
  /// completely empty, otherwise joins the back of the queue (FIFO order is
  /// preserved even while the machine is transiently idle between a
  /// completion and the end of the mapping event).  Returns true if the
  /// task started running immediately.
  ///
  /// A lazy-rebuild machine with a live clean tail does not convolve at
  /// dispatch time: the task's PET joins a pending-append list that the
  /// next tail read folds in (identical convolutions in identical order —
  /// bit-identical results).  Configurations where nothing reads the tail
  /// (no deferring, no chance-aware heuristic) therefore never pay the
  /// Eq. 1 append at all, and the deferring check's point-CDF estimate
  /// reads the tail without paying it either.
  bool dispatch(TaskId task, Time now, TaskPool& pool,
                const ExecutionModel& model);

  /// Finishes the running task at `now` WITHOUT promoting a successor — the
  /// scheduler runs the reactive/proactive pruning passes over the queue
  /// first ("the system drops any task that has missed its deadline"
  /// before any mapping decision, §II) and then calls startNextIfIdle().
  void finishRunning(Time now, TaskPool& pool, const ExecutionModel& model);

  /// Starts the queue's head task if the machine is idle.  Returns the
  /// started task or kInvalidTask.
  ///
  /// A lazy-rebuild machine whose clean tail was built idle in `now`'s own
  /// bin keeps it: that chain starts from a point mass at `now`, and when
  /// the head's PET starts at bin 1 or later (and fits in the bin cap), the
  /// started task's remaining time conditioned on zero elapsed execution is
  /// the same PMF bit for bit (the same values times 1.0, the same
  /// ascending total, the same division).  Only the epoch moves.
  TaskId startNextIfIdle(Time now, TaskPool& pool, const ExecutionModel& model);

  /// finishRunning + startNextIfIdle in one step; convenience for direct
  /// machine-level use (and tests).  Returns the promoted task.
  TaskId completeRunning(Time now, TaskPool& pool, const ExecutionModel& model);

  /// Removes a *queued* (not running) task, e.g. a pruner drop.
  /// Throws std::logic_error if the task is not in this queue.
  void removeQueued(TaskId task, Time now, TaskPool& pool,
                    const ExecutionModel& model);

  /// Aborts the running task (optional abort-at-deadline policy) without
  /// promoting a successor.
  void abortRunning(Time now, TaskPool& pool, const ExecutionModel& model);

  /// Takes the machine offline (a failure or scripted leave).  The caller
  /// must abort the running task first — it owns the completion event and
  /// the wasted-work accounting.  The queued tasks are orphaned into
  /// `orphans` in FIFO order; the queue empties under ONE tail
  /// invalidation, not one per task.  Throws std::logic_error if busy or
  /// already offline.
  void goOffline(Time now, const TaskPool& pool, const ExecutionModel& model,
                 std::vector<TaskId>& orphans);

  /// Brings a failed machine back online.  The machine is empty, so the
  /// Eq. 1 state rebuilds lazily to the trivial chain on the next tail
  /// read.  Throws std::logic_error if already online.
  void comeOnline(Time now, const TaskPool& pool, const ExecutionModel& model);

  /// Marks the machine draining (graceful scale-down).  Queue content is
  /// untouched and no epoch bump happens: the flag is not part of the queue
  /// configuration any epoch-keyed memo prices.  Eligibility is read
  /// through acceptsWork() — by the reference engine's full walk and, on the
  /// incremental engine, through the linked free-machine set, which this
  /// call updates like every other mutation.  Throws std::logic_error if
  /// offline or already draining.
  void beginDrain(Time now);

  /// Clears the draining flag: a scale-up reclaiming the slot, or the
  /// controller retiring the now-empty machine (after goOffline).  Throws
  /// std::logic_error if not draining.
  void cancelDrain(Time now);

  /// Links this machine to its cluster's free-machine set (null unlinks)
  /// and records its current membership.  From then on every mutation —
  /// dispatch, finish, start, queued removal, abort, offline/online,
  /// drain/cancel-drain — keeps it current: a member accepts work and holds
  /// fewer than set->capacity() tasks.  The set is indexed by id() and
  /// must outlive every later mutation of this machine.
  void linkFreeSet(FreeMachineSet* set);

 private:
  std::int64_t binAt(Time t) const;
  /// Folds the pending lazy appends into tail_ (no-op when none).
  void foldPendingAppends(const ExecutionModel& model) const;
  void tailChanged(Time now, const TaskPool& pool, const ExecutionModel& model);
  void rebuildTail(Time now, const TaskPool& pool,
                   const ExecutionModel& model) const;
  void startTask(TaskId task, Time now, TaskPool& pool);
  /// Re-derives this machine's membership in the linked free set.
  void syncFreeSet() {
    if (freeSet_ == nullptr) return;
    const std::size_t inSystem = queue_.size() + (busy() ? 1 : 0);
    freeSet_->set(id_, acceptsWork() && inSystem < freeSet_->capacity());
  }

  MachineId id_;
  double binWidth_;
  bool trackTail_;
  bool lazyTailRebuild_;
  TaskId running_ = kInvalidTask;
  Time runStart_ = 0;
  std::deque<TaskId> queue_;
  std::vector<TaskType> queueTypes_;  ///< mirror of queue_ (types)
  /// Eq. 1 recursion state; empty when the machine has no work.  Rebuilt
  /// lazily: mutations mark it dirty (remembering the mutation time) and the
  /// next tailPct() read re-derives the chain at that time — so a burst of
  /// removals/completions between reads pays for one rebuild, not one per
  /// mutation, with bit-identical results.
  mutable std::optional<prob::DiscretePmf> tail_;
  /// `now`'s grid bin when tail_ was built on an idle machine (its chain
  /// then starts from a point mass there); nullopt for any other tail.
  mutable std::optional<std::int64_t> idleTailBin_;
  mutable bool tailDirty_ = false;
  Time tailDirtyAt_ = 0;
  /// Task types dispatched since the last tail read, not yet folded into
  /// tail_ (lazy Eq. 1 appends).  Invariant: empty whenever tailDirty_ —
  /// a full rebuild re-derives the whole queue anyway.
  mutable std::vector<TaskType> pendingAppends_;
  std::uint64_t epoch_ = 0;
  Time busyTime_ = 0;
  bool online_ = true;
  bool draining_ = false;
  FreeMachineSet* freeSet_ = nullptr;
  // Machine-seconds cost clocks (elasticity accounting).  Online time
  // accrues from construction; draining time only between beginDrain and
  // cancelDrain.  Both pause across an offline interval.
  Time accumOnline_ = 0;
  Time onlineSince_ = 0;
  Time accumDraining_ = 0;
  Time drainingSince_ = 0;
};

}  // namespace hcs::sim
