#include "sim/machine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "prob/arena.h"
#include "prob/kernels.h"

namespace hcs::sim {

Machine::Machine(MachineId id, double binWidth, bool trackTail,
                 bool lazyTailRebuild)
    : id_(id),
      binWidth_(binWidth),
      trackTail_(trackTail),
      lazyTailRebuild_(lazyTailRebuild) {
  if (binWidth <= 0.0) {
    throw std::invalid_argument("Machine: bin width must be positive");
  }
}

std::int64_t Machine::binAt(Time t) const {
  return static_cast<std::int64_t>(std::llround(t / binWidth_));
}

prob::DiscretePmf Machine::availabilityPct(Time now, const TaskPool& pool,
                                           const ExecutionModel& model) const {
  prob::PmfArena& arena = prob::PmfArena::local();
  if (!busy()) {
    return prob::pointMassInto(arena, binAt(now), binWidth_);
  }
  // Remaining time of the running task, conditioned on the time it has
  // already executed, re-anchored to absolute time (the shift rides along in
  // the kernel call — no intermediate relative-grid PMF is materialized).
  const Task& task = pool[running_];
  return prob::conditionalRemainingInto(arena, model.pet(task.type, id_),
                                        now - runStart_, binAt(now));
}

std::pair<std::int64_t, std::int64_t> Machine::availabilityBounds(
    Time now, const TaskPool& pool, const ExecutionModel& model) const {
  const std::int64_t anchor = binAt(now);
  if (!busy()) return {anchor, anchor};
  const Task& task = pool[running_];
  const auto [lo, hi] = model.pet(task.type, id_)
                            .conditionalRemainingBounds(now - runStart_);
  return {lo + anchor, hi + anchor};
}

void Machine::foldPendingAppends(const ExecutionModel& model) const {
  // Replays exactly the convolutions an eager dispatch would have done, in
  // dispatch order, on the same accumulator — bit-identical, just deferred
  // until something actually reads the tail.
  if (pendingAppends_.empty()) return;
  prob::PmfArena& arena = prob::PmfArena::local();
  for (TaskType type : pendingAppends_) {
    prob::convolveInPlace(arena, *tail_, model.pet(type, id_));
  }
  pendingAppends_.clear();
}

prob::DiscretePmf Machine::tailPct(Time now, const TaskPool& pool,
                                   const ExecutionModel& model) const {
  if (tailDirty_) rebuildTail(tailDirtyAt_, pool, model);
  foldPendingAppends(model);
  if (tail_.has_value()) return *tail_;
  if (empty()) return availabilityPct(now, pool, model);
  // Tail tracking is off: derive the tail from the full chain on demand.
  prob::PmfArena& arena = prob::PmfArena::local();
  prob::DiscretePmf acc = availabilityPct(now, pool, model);
  for (TaskType type : queueTypes_) {
    prob::convolveInPlace(arena, acc, model.pet(type, id_));
  }
  return acc;
}

const prob::DiscretePmf& Machine::tailPctRef(const TaskPool& pool,
                                             const ExecutionModel& model) const {
  if (tailDirty_) rebuildTail(tailDirtyAt_, pool, model);
  foldPendingAppends(model);
  if (!tail_.has_value()) {
    throw std::logic_error("tailPctRef: Eq. 1 tail is not tracked");
  }
  return *tail_;
}

std::pair<std::int64_t, std::int64_t> Machine::tailBounds(
    Time now, const TaskPool& pool, const ExecutionModel& model) const {
  if (tail_.has_value() && !tailDirty_) {
    std::int64_t lo = tail_->firstBin();
    std::int64_t hi = tail_->lastBin();
    // Pending lazy appends widen the interval by their PETs' support —
    // exactly what folding them would produce (hi stays conservative
    // under convolution capping, as documented).
    for (TaskType type : pendingAppends_) {
      const prob::DiscretePmf& pet = model.pet(type, id_);
      lo += pet.firstBin();
      hi += pet.lastBin();
    }
    return {lo, hi};
  }
  // No materialized tail (tracking off, machine empty, or a lazy rebuild
  // pending): derive the interval from the chain's factors.  A dirty tail
  // would be rebuilt at the mutation time, so anchor there — the result
  // brackets exactly what tailPct() would materialize.
  const Time anchor = tailDirty_ ? tailDirtyAt_ : now;
  auto [lo, hi] = availabilityBounds(anchor, pool, model);
  for (TaskType type : queueTypes_) {
    const prob::DiscretePmf& pet = model.pet(type, id_);
    lo += pet.firstBin();
    hi += pet.lastBin();
  }
  return {lo, hi};
}

Time Machine::expectedReady(Time now, const TaskPool& pool,
                            const ExecutionModel& model) const {
  Time ready = now;
  if (busy()) {
    const Task& task = pool[running_];
    // The closed-form mean mirrors conditionalRemaining().mean() bit for
    // bit without materializing the remaining-time PMF.
    ready += model.pet(task.type, id_)
                 .conditionalRemainingMean(now - runStart_);
  }
  for (TaskType type : queueTypes_) ready += model.expectedExec(type, id_);
  return ready;
}

void Machine::tailChanged(Time now, const TaskPool& pool,
                          const ExecutionModel& model) {
  ++epoch_;
  // Any reconditioning event re-derives the whole chain; un-folded lazy
  // appends are subsumed by the rebuild.
  pendingAppends_.clear();
  idleTailBin_.reset();
  if (empty() || !trackTail_) {
    if (tail_.has_value()) {
      prob::PmfArena::local().recycle(std::move(*tail_));
      tail_.reset();
    }
    tailDirty_ = false;
    return;
  }
  if (lazyTailRebuild_) {
    tailDirty_ = true;
    tailDirtyAt_ = now;
  } else {
    rebuildTail(now, pool, model);
  }
}

void Machine::rebuildTail(Time now, const TaskPool& pool,
                          const ExecutionModel& model) const {
  tailDirty_ = false;
  pendingAppends_.clear();  // the rebuild walks the full queue
  idleTailBin_.reset();
  prob::PmfArena& arena = prob::PmfArena::local();
  if (tail_.has_value()) {
    arena.recycle(std::move(*tail_));
    tail_.reset();
  }
  if (empty() || !trackTail_) return;
  prob::DiscretePmf acc = availabilityPct(now, pool, model);
  for (TaskType type : queueTypes_) {
    prob::convolveInPlace(arena, acc, model.pet(type, id_));
  }
  tail_ = std::move(acc);
  if (!busy()) idleTailBin_ = binAt(now);
}

void Machine::startTask(TaskId task, Time now, TaskPool& pool) {
  running_ = task;
  runStart_ = now;
  Task& t = pool[task];
  t.status = TaskStatus::Running;
  t.startTime = now;
}

bool Machine::dispatch(TaskId task, Time now, TaskPool& pool,
                       const ExecutionModel& model) {
  if (!online_) {
    throw std::logic_error("dispatch: machine is offline");
  }
  if (draining_) {
    throw std::logic_error("dispatch: machine is draining");
  }
  Task& t = pool[task];
  t.machine = id_;
  t.queuedAt = now;
  ++epoch_;
  if (trackTail_) {
    if (lazyTailRebuild_ && (tailDirty_ || tail_.has_value())) {
      // Lazy Eq. 1 append: queue the PET instead of paying now.  A pending
      // full rebuild already covers the new task (it re-walks the whole
      // queue, which is about to contain it).
      if (!tailDirty_) pendingAppends_.push_back(t.type);
    } else {
      // Eq. 1: the new task's PCT extends the current tail by one
      // convolution.
      prob::PmfArena& arena = prob::PmfArena::local();
      prob::DiscretePmf next = [&]() -> prob::DiscretePmf {
        if (tailDirty_) rebuildTail(tailDirtyAt_, pool, model);
        const prob::DiscretePmf& pet = model.pet(t.type, id_);
        if (tail_.has_value()) return prob::convolveInto(arena, *tail_, pet);
        // No live tail (empty machine): start the chain from availability.
        prob::DiscretePmf base = tailPct(now, pool, model);
        prob::DiscretePmf out = prob::convolveInto(arena, base, pet);
        arena.recycle(std::move(base));
        return out;
      }();
      if (tail_.has_value()) arena.recycle(std::move(*tail_));
      tail_ = std::move(next);
      tailDirty_ = false;
      pendingAppends_.clear();
    }
  }
  if (empty()) {
    startTask(task, now, pool);
    syncFreeSet();
    return true;
  }
  t.status = TaskStatus::Queued;
  queue_.push_back(task);
  queueTypes_.push_back(t.type);
  syncFreeSet();
  return false;
}

void Machine::finishRunning(Time now, TaskPool& pool,
                            const ExecutionModel& model) {
  if (!busy()) {
    throw std::logic_error("finishRunning: machine is idle");
  }
  busyTime_ += now - runStart_;
  running_ = kInvalidTask;
  // The finished task's actual completion time is now certain, so the whole
  // chain of successors is re-derived from reality (§II: shortening the
  // chain reduces compound uncertainty).
  tailChanged(now, pool, model);
  syncFreeSet();
}

TaskId Machine::startNextIfIdle(Time now, TaskPool& pool,
                                const ExecutionModel& model) {
  if (busy() || queue_.empty()) return kInvalidTask;
  const TaskId next = queue_.front();
  // conditionalRemaining(elapsed 0) drops bin 0, so a PET with mass there
  // changes the chain's first factor, and the point-mass convolution caps
  // a PET wider than the bin cap where conditioning does not: rebuild.
  const prob::DiscretePmf& headPet = model.pet(queueTypes_.front(), id_);
  const bool keepTail =
      lazyTailRebuild_ && tail_.has_value() && !tailDirty_ &&
      idleTailBin_ == binAt(now) && headPet.firstBin() >= 1 &&
      headPet.size() <= prob::DiscretePmf::kDefaultMaxBins;
  queue_.pop_front();
  queueTypes_.erase(queueTypes_.begin());
  startTask(next, now, pool);
  if (keepTail) {
    ++epoch_;
    idleTailBin_.reset();
  } else {
    tailChanged(now, pool, model);
  }
  syncFreeSet();
  return next;
}

TaskId Machine::completeRunning(Time now, TaskPool& pool,
                                const ExecutionModel& model) {
  finishRunning(now, pool, model);
  return startNextIfIdle(now, pool, model);
}

void Machine::removeQueued(TaskId task, Time now, TaskPool& pool,
                           const ExecutionModel& model) {
  auto it = std::find(queue_.begin(), queue_.end(), task);
  if (it == queue_.end()) {
    throw std::logic_error("removeQueued: task not queued on this machine");
  }
  queueTypes_.erase(queueTypes_.begin() + (it - queue_.begin()));
  queue_.erase(it);
  tailChanged(now, pool, model);
  syncFreeSet();
}

void Machine::abortRunning(Time now, TaskPool& pool,
                           const ExecutionModel& model) {
  if (!busy()) {
    throw std::logic_error("abortRunning: machine is idle");
  }
  busyTime_ += now - runStart_;
  running_ = kInvalidTask;
  tailChanged(now, pool, model);
  syncFreeSet();
}

void Machine::goOffline(Time now, const TaskPool& pool,
                        const ExecutionModel& model,
                        std::vector<TaskId>& orphans) {
  if (!online_) {
    throw std::logic_error("goOffline: machine is already offline");
  }
  if (busy()) {
    throw std::logic_error("goOffline: abort the running task first");
  }
  accumOnline_ += now - onlineSince_;
  if (draining_) accumDraining_ += now - drainingSince_;
  online_ = false;
  orphans.insert(orphans.end(), queue_.begin(), queue_.end());
  queue_.clear();
  queueTypes_.clear();
  tailChanged(now, pool, model);
  syncFreeSet();
}

void Machine::comeOnline(Time now, const TaskPool& pool,
                         const ExecutionModel& model) {
  if (online_) {
    throw std::logic_error("comeOnline: machine is already online");
  }
  online_ = true;
  onlineSince_ = now;
  if (draining_) drainingSince_ = now;
  tailChanged(now, pool, model);
  syncFreeSet();
}

void Machine::beginDrain(Time now) {
  if (!online_) {
    throw std::logic_error("beginDrain: machine is offline");
  }
  if (draining_) {
    throw std::logic_error("beginDrain: machine is already draining");
  }
  draining_ = true;
  drainingSince_ = now;
  syncFreeSet();
}

void Machine::cancelDrain(Time now) {
  if (!draining_) {
    throw std::logic_error("cancelDrain: machine is not draining");
  }
  if (online_) accumDraining_ += now - drainingSince_;
  draining_ = false;
  syncFreeSet();
}

void Machine::linkFreeSet(FreeMachineSet* set) {
  freeSet_ = set;
  syncFreeSet();
}

}  // namespace hcs::sim
