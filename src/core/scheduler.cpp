#include "core/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "prob/arena.h"
#include "prob/kernels.h"

namespace hcs::core {

namespace {

/// Decides a chance-vs-bar comparison from the candidate PCT's support
/// interval alone.  Returns exactly 0 when every bin misses the cutoff,
/// 1 when every bin makes it AND the bar sits far enough from 1 that the
/// true chance (within the PMF mass tolerance of 1) compares identically,
/// and nullopt when the comparison genuinely needs the convolution.
/// `cutoff` must use the same arithmetic as DiscretePmf::cdf
/// (deadline + binWidth * 1e-6); the bar guard mirrors Pruner::belowBar's
/// `chance <= bar` semantics.  Shared by the proactive dropping pass and
/// the deferring check so the delicate tolerance logic exists once.
std::optional<double> chanceFromSupportBounds(std::int64_t candMin,
                                              std::int64_t candMax,
                                              double binWidth, double cutoff,
                                              double bar) {
  if (static_cast<double>(candMin) * binWidth >= cutoff) return 0.0;
  if (static_cast<double>(candMax) * binWidth < cutoff) {
    if (bar < 1.0 - 1e-6 || bar >= 1.0) return 1.0;
  }
  return std::nullopt;
}

/// Support width (bins) of a candidate PCT below which the shortcuts that
/// avoid a chain (the support-CDF bounds, the elapsed-bin keep bound) are
/// not tried: on PMFs this narrow the O(|base|) point-CDF estimate costs
/// about what a bound does, so a bound that fails is pure overhead.  A
/// property of the inputs only; every shortcut decides exactly, so the
/// value moves no result.
constexpr std::int64_t kShortcutMinWidth = 24;

}  // namespace

AllocationMode allocationModeFor(const std::string& heuristicName) {
  if (heuristics::isImmediateHeuristic(heuristicName)) {
    return AllocationMode::Immediate;
  }
  if (heuristics::isBatchHeuristic(heuristicName)) {
    return AllocationMode::Batch;
  }
  throw std::invalid_argument("allocationModeFor: unknown heuristic " +
                              heuristicName);
}

AllocationMode allocationModeFor(const SimulationConfig& config) {
  if (config.customBatchHeuristic && config.customImmediateHeuristic) {
    throw std::invalid_argument(
        "allocationModeFor: both custom heuristic factories set");
  }
  if (config.customBatchHeuristic) return AllocationMode::Batch;
  if (config.customImmediateHeuristic) return AllocationMode::Immediate;
  return allocationModeFor(config.heuristic);
}

Scheduler::Scheduler(const SimulationConfig& config, int numTaskTypes,
                     ClusterSeat seat)
    : config_(config),
      cluster_(seat.index),
      retry_(std::move(seat.retry)),
      mode_(allocationModeFor(config)),
      accounting_(numTaskTypes),
      pruner_(config.pruning, numTaskTypes) {
  if (config.customBatchHeuristic) {
    batch_ = config.customBatchHeuristic();
  } else if (config.customImmediateHeuristic) {
    immediate_ = config.customImmediateHeuristic();
  } else if (mode_ == AllocationMode::Immediate) {
    immediate_ =
        heuristics::makeImmediate(config.heuristic, config.heuristicOptions);
  } else {
    batch_ = heuristics::makeBatch(config.heuristic, config.heuristicOptions);
  }
  if ((mode_ == AllocationMode::Batch && batch_ == nullptr) ||
      (mode_ == AllocationMode::Immediate && immediate_ == nullptr)) {
    throw std::invalid_argument("Scheduler: heuristic factory returned null");
  }
  if (seat.elasticity != nullptr) config_.elasticity = *seat.elasticity;
  if (config.pctCacheEnabled) {
    pctCache_ = std::make_unique<heuristics::PctCache>();
  }
}

heuristics::MappingContext Scheduler::makeContext(const World& world,
                                                  sim::Time now) const {
  const std::size_t capacity = mode_ == AllocationMode::Immediate
                                   ? heuristics::MappingContext::kUnbounded
                                   : config_.machineQueueCapacity;
  return heuristics::MappingContext(now, world.pool, world.machines,
                                    world.model, capacity, pctCache_.get());
}

void Scheduler::beginTrial(const World& world) {
  trialPrepared_ = true;
  // Sized once here instead of being re-checked by every scheduleCompletion.
  if (completionSeq_.size() < world.machines.size()) {
    completionSeq_.assign(world.machines.size(), 0);
  }
  batchFloor_ = -std::numeric_limits<sim::Time>::infinity();
  queueFloors_.assign(world.machines.size(),
                      -std::numeric_limits<sim::Time>::infinity());
  if (!ctx_.has_value()) {
    ctx_.emplace(makeContext(world, sim::Time{0}));
    ctx_->enablePersistence();
    if (mode_ == AllocationMode::Batch) {
      ctx_->attachBatchQueue(&batchQueue_);
    }
  }
  if (mode_ == AllocationMode::Batch && config_.incrementalMappingEnabled) {
    // The incremental engine maps against the machines with a free slot,
    // which the machines themselves keep current on every mutation —
    // whether the scheduler, the fault injector or the capacity controller
    // made it.  The reference engine's throwaway contexts walk the cluster
    // instead, so the oracle never reads the set.
    freeSet_.setDebugCheck(nullptr);
    freeSet_.reset(world.machines.size(), config_.machineQueueCapacity);
    for (sim::Machine& m : world.machines) m.linkFreeSet(&freeSet_);
    ctx_->attachFreeSet(&freeSet_);
#ifndef NDEBUG
    freeSet_.setDebugCheck([this] { ctx_->checkFreeSet(); });
#endif
  }
  if (mode_ == AllocationMode::Batch) {
    // The mutation journal exists for the two-phase heuristics' bucket
    // sync; when the reference engine maps or no queue-consuming heuristic
    // is attached, nobody ever replays it — stop recording instead of
    // growing an unread log for the whole trial.
    batchQueue_.setJournalRecording(config_.incrementalMappingEnabled &&
                                    batch_->consumesBatchQueue());
  }
}

void Scheduler::handleArrival(World& world, sim::TaskId task, sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  world.pool[task].status = sim::TaskStatus::Batched;
  emit(world, now, sim::TraceEventKind::Arrival, task);
  if (mode_ == AllocationMode::Batch) {
    batchQueue_.push(task);
    batchFloor_ = std::min(batchFloor_, world.pool[task].deadline);
    mappingEvent(world, now);
    return;
  }
  // Immediate mode: the pruning passes still run at this mapping event,
  // then the mapper must place the arriving task right away.
  mappingEvent(world, now);
  sim::MachineId machine;
  if (config_.incrementalMappingEnabled) {
    machine = immediate_->selectMachine(*ctx_, task);
  } else {
    const heuristics::MappingContext ctx = makeContext(world, now);
    machine = immediate_->selectMachine(ctx, task);
  }
  if (machine == sim::kInvalidMachine &&
      (config_.faults.enabled || config_.elasticity.active())) {
    // Churn (or an elastic scale-down racing the arrival) left no machine
    // accepting work: a placement failure, routed through the retry policy
    // like any other churn casualty.
    emit(world, now, sim::TraceEventKind::TaskFailed, task);
    retryOrAbandon(world, task, now);
    return;
  }
  if (machine < 0 ||
      machine >= static_cast<sim::MachineId>(world.machines.size())) {
    throw std::logic_error("Scheduler: heuristic chose an invalid machine");
  }
  dispatch(world, task, machine, now);
}

void Scheduler::handleCompletion(World& world, sim::MachineId machine,
                                 sim::TaskId task, sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  sim::Machine& m = world.machines[static_cast<std::size_t>(machine)];
  if (m.runningTask() != task) {
    throw std::logic_error("Scheduler: completion for a non-running task");
  }
  sim::Task& t = world.pool[task];
  const bool onTime = now <= t.deadline + 1e-9;
  t.status = onTime ? sim::TaskStatus::CompletedOnTime
                    : sim::TaskStatus::CompletedLate;
  t.finishTime = now;
  world.metrics.recordTerminal(t);
  world.metrics.recordExecution(machine, now - t.startTime, onTime);
  emit(world, now, sim::TraceEventKind::Completed, task, machine);
  if (onTime) {
    accounting_.recordOnTimeCompletion(t.type);
  } else {
    accounting_.recordDeadlineMiss(t.type);
  }
  // Do NOT promote the next queued task yet: the mapping event's pruning
  // passes must see (and may drop) the queue's head first; idle machines
  // start their surviving head task at the end of the event.
  m.finishRunning(now, world.pool, world.model);
  freedMachines_.push_back(machine);
  // Terminal and fully unlinked: the slot is free for the next arrival.
  world.pool.retire(task);
  mappingEvent(world, now);
}

void Scheduler::handleMachineFailure(World& world, sim::MachineId machine,
                                     sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  sim::Machine& m = world.machines[static_cast<std::size_t>(machine)];
  world.metrics.recordMachineFailure();
  emit(world, now, sim::TraceEventKind::MachineFailed, sim::kInvalidTask,
       machine);
  if (m.busy()) {
    // The running task dies with the machine: cancel its pending
    // completion, charge the burned time as wasted execution, and hand the
    // task to the retry policy.
    const sim::TaskId running = m.runningTask();
    world.events.cancel(completionSeq_[static_cast<std::size_t>(machine)]);
    const sim::Time started = world.pool[running].startTime;
    m.abortRunning(now, world.pool, world.model);
    world.metrics.recordExecution(machine, now - started, /*useful=*/false);
    emit(world, now, sim::TraceEventKind::TaskFailed, running, machine);
    retryOrAbandon(world, running, now);
  }
  orphanScratch_.clear();
  m.goOffline(now, world.pool, world.model, orphanScratch_);
  for (sim::TaskId id : orphanScratch_) {
    emit(world, now, sim::TraceEventKind::TaskFailed, id, machine);
    retryOrAbandon(world, id, now);
  }
  // The machine-set edit is a mapping event: the Eq. 1/Eq. 2 machinery
  // re-prices the batch queue against the surviving cluster, and the
  // pruning passes see the scarcer capacity immediately.
  mappingEvent(world, now);
}

void Scheduler::handleMachineRecovery(World& world, sim::MachineId machine,
                                      sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  world.machines[static_cast<std::size_t>(machine)].comeOnline(
      now, world.pool, world.model);
  emit(world, now, sim::TraceEventKind::MachineRecovered, sim::kInvalidTask,
       machine);
  // Recovered capacity is claimable this very event: batch mode remaps and
  // the idle machine can start the surviving head of whatever it is given.
  mappingEvent(world, now);
}

void Scheduler::handleCapacityChanged(World& world, sim::Time now) {
  if (!trialPrepared_) beginTrial(world);
  mappingEvent(world, now);
}

heuristics::MappingContext& Scheduler::contextAt(sim::Time now) {
  ctx_->rebind(now);
  return *ctx_;
}

std::optional<double> Scheduler::headChance(sim::Time now) {
  sim::TaskId head = sim::kInvalidTask;
  batchQueue_.forEachLive([&](sim::TaskId id, std::uint64_t /*seq*/) {
    if (head == sim::kInvalidTask) head = id;
  });
  if (head == sim::kInvalidTask) return std::nullopt;
  const heuristics::MappingContext& ctx = contextAt(now);
  double best = -1.0;
  for (sim::MachineId j = 0; j < ctx.numMachines(); ++j) {
    if (ctx.freeSlots(j) == 0) continue;
    best = std::max(best, ctx.successChance(head, j));
  }
  return best;
}

void Scheduler::mappingEvent(World& world, sim::Time now) {
  ++mappingEvents_;
  ctx_->rebind(now);
  if (config_.abortRunningAtDeadline) {
    abortOverdueRunning(world, now);
  }
  // Step 1: reactive drops of expired pending tasks (part of the pruning
  // mechanism; the no-pruning baselines execute every mapped task).
  if (config_.pruning.reactiveDropEnabled) {
    reactiveDropPass(world, now);
  }
  // Steps 2-3: fairness update and Toggle evaluation over the interval.
  pruner_.beginMappingEvent(accounting_.harvest());
  // Steps 4-6: proactive drops from machine queues.
  if (pruner_.droppingEngaged()) {
    proactiveDropPass(world, now);
  }
  // Steps 7-11: map, defer, dispatch (batch mode only; immediate mode's
  // placement happens in handleArrival right after this returns).
  if (mode_ == AllocationMode::Batch) {
    if (config_.measureMappingEngine) {
      const auto start = std::chrono::steady_clock::now();
      runBatchMapping(world, now);
      engineNanos_ += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start)
              .count());
    } else {
      runBatchMapping(world, now);
    }
  }
  // Machines left idle by a completion/abort now start the surviving head
  // of their queue.
  startIdleMachines(world, now);
}

void Scheduler::startIdleMachines(World& world, sim::Time now) {
  // A dispatch to an empty machine starts at once, so only a machine whose
  // running task ended in this event can sit idle with a queued head.
  // Visiting those in ascending index starts them in the order a sweep of
  // the whole cluster would (Started order, execution-RNG draws and
  // completion sequence numbers unchanged).
  std::sort(freedMachines_.begin(), freedMachines_.end());
  for (const sim::MachineId j : freedMachines_) {
    sim::Machine& m = world.machines[static_cast<std::size_t>(j)];
    if (!m.online()) continue;
    const sim::TaskId started =
        m.startNextIfIdle(now, world.pool, world.model);
    if (started != sim::kInvalidTask) {
      emit(world, now, sim::TraceEventKind::Started, started, j);
      scheduleCompletion(world, j, started, now);
    }
  }
  freedMachines_.clear();
}

void Scheduler::dropTask(World& world, sim::TaskId task, sim::Time now,
                         sim::TaskStatus reason) {
  sim::Task& t = world.pool[task];
  t.status = reason;
  t.finishTime = now;
  world.metrics.recordTerminal(t);
  sim::TraceEventKind kind;
  switch (reason) {
    case sim::TaskStatus::DroppedReactive:
      kind = sim::TraceEventKind::DroppedReactive;
      break;
    case sim::TaskStatus::DroppedProactive:
      kind = sim::TraceEventKind::DroppedProactive;
      break;
    case sim::TaskStatus::Abandoned:
      kind = sim::TraceEventKind::Abandoned;
      break;
    default:
      throw std::logic_error("dropTask: not a drop status");
  }
  emit(world, now, kind, task, t.machine);
  if (reason == sim::TaskStatus::DroppedProactive) {
    accounting_.recordProactiveDrop(t.type);
    // Fig. 5 step 6: gamma_k <- gamma_k + c on a *proactive* drop.  (§IV-D's
    // prose could be read as counting reactive drops too; the ablation bench
    // shows that variant grants suffering types such lax bars that they
    // occupy machines with hopeless work — we follow the pseudo-code.)
    pruner_.recordDrop(t.type);
  } else {
    // Reactive drops and retry-policy abandonments both read to the
    // fairness ledger as deadline misses: the task's deadline was (or was
    // about to be) missed through no choice of the pruner's.
    accounting_.recordDeadlineMiss(t.type);
  }
  // Every dropTask caller unlinks the task from its queue first, so the
  // slot can be recycled.
  world.pool.retire(task);
}

void Scheduler::retryOrAbandon(World& world, sim::TaskId task, sim::Time now) {
  sim::Task& t = world.pool[task];
  t.machine = sim::kInvalidMachine;
  t.status = sim::TaskStatus::Created;
  ++t.failures;
  const sim::FaultConfig& f = config_.faults;
  if (t.failures >= f.maxAttempts) {
    dropTask(world, task, now, sim::TaskStatus::Abandoned);
    return;
  }
  // Exponential backoff on the attempt index, stretched by a jitter draw
  // from the fault stream (never the execution stream — the draw must not
  // perturb seed-paired execution sampling).
  double backoff = f.backoffBase *
                   std::pow(f.backoffFactor, static_cast<double>(t.failures - 1));
  if (f.backoffJitter > 0.0 && world.faultRng != nullptr) {
    backoff *= 1.0 + f.backoffJitter * world.faultRng->uniform01();
  }
  const sim::Time retryAt = now + backoff;
  if (retryAt > t.deadline) {
    // Deadline-aware give-up: the retry could never arrive in time.
    dropTask(world, task, now, sim::TaskStatus::Abandoned);
    return;
  }
  world.metrics.recordRetry();
  emit(world, now, sim::TraceEventKind::Retried, task);
  // The retry re-enters at the gateway — re-routed and re-admitted against
  // the whole federation, not pinned to the cluster that failed it.
  retry_(task, retryAt);
}

void Scheduler::reactiveDropPass(World& world, sim::Time now) {
  // A queue is scanned only once `now` is past its deadline floor: until
  // then no task in it can have missed its deadline (missedDeadline is
  // now > deadline, and the floor bounds every deadline from below).  A
  // scan collects the overdue tasks and resets the floor to the minimum
  // surviving deadline.
  sim::Time floor = 0;
  auto sift = [&](sim::TaskId id) {
    const sim::Task& t = world.pool[id];
    if (t.missedDeadline(now)) {
      overdueScratch_.push_back(id);
    } else {
      floor = std::min(floor, t.deadline);
    }
  };
  constexpr sim::Time kEmpty = std::numeric_limits<sim::Time>::infinity();
  if (now > batchFloor_) {
    ++reactiveScans_;
    // Batch (arrival) queue: collect, then drop in arrival order
    // (identical drop order to the old in-iteration erase).
    overdueScratch_.clear();
    floor = kEmpty;
    batchQueue_.forEachLive(
        [&](sim::TaskId id, std::uint64_t /*seq*/) { sift(id); });
    batchFloor_ = floor;
    for (sim::TaskId id : overdueScratch_) {
      batchQueue_.remove(id);
      dropTask(world, id, now, sim::TaskStatus::DroppedReactive);
    }
  }
  // Machine queues (the running task is past saving only under the
  // abort-at-deadline policy, handled separately).
  for (sim::Machine& m : world.machines) {
    sim::Time& queueFloor = queueFloors_[static_cast<std::size_t>(m.id())];
    if (!(now > queueFloor)) continue;
    ++reactiveScans_;
    overdueScratch_.clear();
    floor = kEmpty;
    for (sim::TaskId id : m.queue()) sift(id);
    queueFloor = floor;
    for (sim::TaskId id : overdueScratch_) {
      m.removeQueued(id, now, world.pool, world.model);
      dropTask(world, id, now, sim::TaskStatus::DroppedReactive);
    }
  }
}

void Scheduler::proactiveDropPass(World& world, sim::Time now) {
  for (sim::Machine& m : world.machines) {
    if (m.queueLength() == 0) continue;
    // Walk the queue front to back, accumulating the PCT chain (Eq. 1).
    // A dropped task's PET is excluded from the accumulator, so tasks
    // behind it immediately see the improved (less uncertain) chain.
    //
    if (pctCache_ == nullptr) {
      // Reference path (pctCacheEnabled off): recompute the full chain per
      // candidate, exactly as the paper's Fig. 5 pseudo-code reads.  The
      // chain ping-pongs between two arena buffers — no allocation.
      prob::PmfArena& arena = prob::PmfArena::local();
      prob::DiscretePmf referenceAcc =
          m.availabilityPct(now, world.pool, world.model);
      std::vector<sim::TaskId>& referenceDrop = proactiveDropScratch_;
      referenceDrop.clear();
      for (sim::TaskId id : m.queue()) {
        const sim::Task& t = world.pool[id];
        prob::DiscretePmf pct = prob::convolveInto(
            arena, referenceAcc, world.model.pet(t.type, m.id()));
        const double chance = pct.successProbability(t.deadline);
        if (pruner_.shouldDrop(t.type, chance, t.value)) {
          referenceDrop.push_back(id);
          arena.recycle(std::move(pct));
        } else {
          arena.recycle(std::move(referenceAcc));
          referenceAcc = std::move(pct);
        }
      }
      arena.recycle(std::move(referenceAcc));
      for (sim::TaskId id : referenceDrop) {
        m.removeQueued(id, now, world.pool, world.model);
        dropTask(world, id, now, sim::TaskStatus::DroppedProactive);
      }
      continue;
    }
    // Incremental path.  Within the pass, dropping is engaged, so a task
    // drops exactly when its chance is at most its bar.  The chain's support
    // bounds (exact integer sums of the factors' first/last bins) often
    // prove the chance is 0 or within 1e-9 of 1, which decides that without
    // any PMF.  On a wide candidate two more bounds need no chain either:
    // the support-CDF bounds (the candidate's PET shifted to either end of
    // the support), and, before any drop, the elapsed-bin keep bound from a
    // chance recorded on this chain at an earlier elapsed bin of the head.
    // The rest are decided from the point-CDF estimate against the chain's
    // base: the PCT cache's lazily extended prefix while every earlier task
    // was kept (the prefix invariant), and after the first drop that prefix
    // with the later kept PETs folded on, in queue order, only when a
    // comparison needs them.  Only an uncertified comparison convolves the
    // candidate's PCT.
    const double w = m.binWidth();
    const std::int64_t anchor = heuristics::PctCache::anchorBin(m, now);
    auto [accMinB, accMaxB] = m.availabilityBounds(now, world.pool,
                                                   world.model);
    std::optional<std::size_t> firstDrop;  // queue position of the first drop
    std::optional<prob::DiscretePmf> acc;  // kept chain past it (relative)
    // Kept PETs after the first drop not yet folded into the kept chain.
    std::vector<const prob::DiscretePmf*>& pending = pendingScratch_;
    pending.clear();
    prob::PmfArena& arena = prob::PmfArena::local();
    // The base of the next post-drop comparison: the prefix before the
    // first drop with every pending kept PET folded on, left to right.
    auto keptBase = [&]() -> const prob::DiscretePmf& {
      std::size_t next = 0;
      if (!acc.has_value()) {
        const prob::DiscretePmf& prefix = pctCache_->chainPrefix(
            m, now, world.pool, world.model, *firstDrop);
        if (pending.empty()) return prefix;
        acc = prob::convolveInto(arena, prefix, *pending[next++]);
      }
      for (; next < pending.size(); ++next) {
        prob::convolveInPlace(arena, *acc, *pending[next]);
      }
      pending.clear();
      return *acc;
    };
    std::vector<sim::TaskId>& toDrop = proactiveDropScratch_;
    toDrop.clear();
    std::size_t idx = 0;
    for (sim::TaskId id : m.queue()) {
      const sim::Task& t = world.pool[id];
      const prob::DiscretePmf& pet = world.model.pet(t.type, m.id());
      const double bar = pruner_.pruningBar(t.type, t.value);
      const std::int64_t candWidth =
          accMaxB - accMinB + static_cast<std::int64_t>(pet.size());
      const bool wide = candWidth >= kShortcutMinWidth;
      // The keep bound assumes exact (uncapped) chains.
      const bool keepable =
          wide && !firstDrop.has_value() &&
          candWidth <=
              static_cast<std::int64_t>(prob::DiscretePmf::kDefaultMaxBins);
      std::optional<bool> below;
      if (const std::optional<double> boundsChance = chanceFromSupportBounds(
              accMinB + pet.firstBin(), accMaxB + pet.lastBin(), w,
              t.deadline + w * 1e-6, bar)) {
        below = *boundsChance <= bar;
      } else if (wide) {
        below = prob::supportCdfAtMost(pet, accMinB, accMaxB, t.deadline, bar);
        if (!below.has_value() && keepable &&
            pctCache_->keepCertified(m, now, world.pool, world.model, idx,
                                     bar)) {
          below = false;
        }
      }
      bool keptViaAcc = false;
      if (!below.has_value()) {
        const prob::DiscretePmf& base =
            firstDrop.has_value()
                ? keptBase()
                : pctCache_->chainPrefix(m, now, world.pool, world.model, idx);
        double chance = 0.0;
        below = pctCache_->certifiedBelowBar(base, pet, anchor, t.deadline,
                                             bar, &chance);
        if (below.has_value()) {
          if (keepable && !*below) {
            pctCache_->recordKeep(
                m, now, world.pool, world.model, idx, chance,
                prob::convolvedCdfEstimate(base, pet, anchor + 1,
                                           t.deadline));
          }
        } else if (!firstDrop.has_value()) {
          // The exact chance reads the next prefix, which the following
          // position needs as its base anyway.
          const prob::DiscretePmf& next = pctCache_->chainPrefix(
              m, now, world.pool, world.model, idx + 1);
          chance = next.cdfShiftedBy(anchor, t.deadline);
          below = chance <= bar;
          if (keepable && !*below) {
            pctCache_->recordKeep(m, now, world.pool, world.model, idx, chance,
                                  next.cdfShiftedBy(anchor + 1, t.deadline));
          }
        } else {
          prob::DiscretePmf pct = prob::convolveInto(arena, base, pet);
          below = pct.cdfShiftedBy(anchor, t.deadline) <= bar;
          if (!*below) {
            if (acc.has_value()) arena.recycle(std::move(*acc));
            acc = std::move(pct);
            keptViaAcc = true;
          } else {
            arena.recycle(std::move(pct));
          }
        }
      }
      if (*below) {
        toDrop.push_back(id);
        if (!firstDrop.has_value()) firstDrop = idx;
      } else {
        accMinB += pet.firstBin();
        accMaxB += pet.lastBin();
        if (firstDrop.has_value() && !keptViaAcc) pending.push_back(&pet);
      }
      ++idx;
    }
    if (acc.has_value()) arena.recycle(std::move(*acc));
    for (sim::TaskId id : toDrop) {
      m.removeQueued(id, now, world.pool, world.model);
      dropTask(world, id, now, sim::TaskStatus::DroppedProactive);
    }
  }
}

bool Scheduler::applyAssignments(
    World& world, const std::vector<heuristics::Assignment>& assignments,
    const heuristics::MappingContext& ctx, sim::Time now) {
  bool dispatchedAny = false;
  for (const heuristics::Assignment& a : assignments) {
    const sim::Task& t = world.pool[a.task];
    // Step 10: chance of success on the *live* machine state (earlier
    // dispatches in this event are already reflected in the tail PCT).
    // When the configuration can never defer, the chance is dead weight —
    // skip it outright.  Otherwise the PCT cache first looks for a verdict
    // it already has: a task deferred on this machine at its current epoch
    // under a bar no higher is deferred again.  Failing that, try to decide
    // the defer comparison from support bounds alone (the same interval
    // shortcuts the proactive pass uses): when the whole candidate PCT
    // support sits on one side of the deadline, the chance is exactly 0 or
    // within the mass tolerance of 1, and on a wide candidate the PET
    // shifted to either end of the tail's support bounds the chance.  Last,
    // the PCT cache decides it from the point-CDF estimate and convolves
    // only an uncertified comparison.  Like the proactive pass, every
    // shortcut belongs to the incremental machinery — the pctCacheEnabled =
    // false reference path computes the full chance per candidate, exactly
    // as Fig. 5 reads.
    bool defer = false;
    if (pruner_.deferUsesChance()) {
      if (pctCache_ == nullptr) {
        defer = pruner_.shouldDefer(
            t.type, ctx.successChance(a.task, a.machine), t.value);
      } else {
        // With deferUsesChance(), shouldDefer is exactly `chance <= bar`.
        const double bar = pruner_.pruningBar(t.type, t.value);
        const sim::Machine& m =
            world.machines[static_cast<std::size_t>(a.machine)];
        defer = pctCache_->deferredBefore(t, m, bar);
        if (!defer) {
          const double w = m.binWidth();
          const auto [tailLo, tailHi] =
              m.tailBounds(now, world.pool, world.model);
          const prob::DiscretePmf& pet = world.model.pet(t.type, m.id());
          std::optional<bool> below;
          if (const std::optional<double> boundsChance =
                  chanceFromSupportBounds(tailLo + pet.firstBin(),
                                          tailHi + pet.lastBin(), w,
                                          t.deadline + w * 1e-6, bar)) {
            below = *boundsChance <= bar;
          } else if (tailHi - tailLo + static_cast<std::int64_t>(pet.size()) >=
                     kShortcutMinWidth) {
            below = prob::supportCdfAtMost(pet, tailLo, tailHi, t.deadline,
                                           bar);
          }
          defer = below.has_value()
                      ? *below
                      : pctCache_->appendBelowBar(m, now, world.pool,
                                                  world.model, t.type,
                                                  t.deadline, bar);
          if (defer) pctCache_->noteDeferred(t, m, bar);
        }
      }
    }
    if (defer) {
      // Step 10 defers "to the next mapping event": the task is out of the
      // running for the rest of this one.
      if (ctx.persistent()) {
        batchQueue_.markDeferred(a.task);
      } else {
        deferredScratch_.insert(a.task);
      }
      ++world.pool[a.task].deferrals;
      world.metrics.recordDeferral();
      emit(world, now, sim::TraceEventKind::Deferred, a.task, a.machine);
      continue;
    }
    dispatch(world, a.task, a.machine, now);
    batchQueue_.remove(a.task);
    dispatchedAny = true;
  }
  return dispatchedAny;
}

void Scheduler::runBatchMapping(World& world, sim::Time now) {
  if (!config_.incrementalMappingEnabled) {
    runBatchMappingReference(world, now);
    return;
  }
  // Incremental engine: deferral marks from the previous event expire in
  // O(1), the candidate list comes straight off the indexed queue, and the
  // guard skips the whole round — candidate rebuild, context queries,
  // heuristic call — once the cluster is saturated (in a burst, every
  // mapping event after the first few) or every live task is deferred.
  batchQueue_.beginEvent();
  const bool queueDirect = batch_->consumesBatchQueue();
  while (!freeSet_.empty() && batchQueue_.candidateCount() > 0) {
    // An empty span tells a queue-reading heuristic to read the candidates
    // off the indexed queue; any other heuristic gets the span of live,
    // non-deferred tasks in arrival order.
    std::span<const sim::TaskId> candidates;
    if (!queueDirect) {
      batchQueue_.liveCandidates(candidateScratch_);
      candidates = candidateScratch_;
    }
    const std::vector<heuristics::Assignment> assignments =
        batch_->map(*ctx_, candidates);
    if (assignments.empty()) break;  // nothing mappable (or all deferred)
    if (!applyAssignments(world, assignments, *ctx_, now)) {
      break;  // everything mappable was deferred
    }
  }
}

void Scheduler::runBatchMappingReference(World& world, sim::Time now) {
  // Reference engine: fresh context and full two-phase re-evaluation every
  // round, exactly as Fig. 5 reads.  Kept as the oracle the incremental
  // engine is benchmarked and equivalence-tested against.
  std::unordered_set<sim::TaskId>& deferredThisEvent = deferredScratch_;
  deferredThisEvent.clear();
  while (!batchQueue_.empty()) {
    // Tasks deferred in this event are out of the running until the next
    // mapping event (step 10 defers "to the next mapping event").
    std::vector<sim::TaskId>& candidates = candidateScratch_;
    candidates.clear();
    candidates.reserve(batchQueue_.size());
    batchQueue_.forEachLive([&](sim::TaskId id, std::uint64_t /*seq*/) {
      if (!deferredThisEvent.contains(id)) candidates.push_back(id);
    });
    if (candidates.empty()) break;

    const heuristics::MappingContext ctx = makeContext(world, now);
    const std::vector<heuristics::Assignment> assignments =
        batch_->map(ctx, candidates);
    if (assignments.empty()) break;  // queues full or nothing mappable
    if (!applyAssignments(world, assignments, ctx, now)) {
      break;  // everything mappable was deferred
    }
  }
}

void Scheduler::dispatch(World& world, sim::TaskId task, sim::MachineId machine,
                         sim::Time now) {
  sim::Machine& m = world.machines[static_cast<std::size_t>(machine)];
  emit(world, now, sim::TraceEventKind::Dispatched, task, machine);
  const std::uint64_t preEpoch = m.queueEpoch();
  const bool started = m.dispatch(task, now, world.pool, world.model);
  if (started) {
    emit(world, now, sim::TraceEventKind::Started, task, machine);
    scheduleCompletion(world, machine, task, now);
    return;
  }
  sim::Time& queueFloor = queueFloors_[static_cast<std::size_t>(machine)];
  queueFloor = std::min(queueFloor, world.pool[task].deadline);
  // The dispatch appended to the queue: the memoized proactive chain
  // prefixes all stay valid.
  if (pctCache_ != nullptr) pctCache_->noteAppend(m, preEpoch);
}

void Scheduler::scheduleCompletion(World& world, sim::MachineId machine,
                                   sim::TaskId task, sim::Time now) {
  const sim::Task& t = world.pool[task];
  const double exec = world.model.pet(t.type, machine).sample(world.execRng);
  // completionSeq_ was sized by beginTrial — no per-completion size check.
  completionSeq_[static_cast<std::size_t>(machine)] = world.events.nextSeq();
  world.events.push(now + exec, sim::EventKind::TaskCompletion, task, machine);
}

void Scheduler::abortOverdueRunning(World& world, sim::Time now) {
  for (sim::Machine& m : world.machines) {
    if (!m.busy()) continue;
    sim::TaskId running = m.runningTask();
    if (!world.pool[running].missedDeadline(now)) continue;
    world.events.cancel(completionSeq_[static_cast<std::size_t>(m.id())]);
    const sim::Time started = world.pool[running].startTime;
    m.abortRunning(now, world.pool, world.model);
    emit(world, now, sim::TraceEventKind::Aborted, running, m.id());
    dropTask(world, running, now, sim::TaskStatus::DroppedReactive);
    world.metrics.recordExecution(m.id(), now - started, /*useful=*/false);
    freedMachines_.push_back(m.id());
    // The successor starts in startIdleMachines(), after the reactive and
    // proactive passes have had a chance to drop it.
  }
}

void Scheduler::finalize(World& world, sim::Time now) {
  // Tasks still in the batch queue when the trial drains can never run:
  // count overdue ones as reactive drops, the rest as proactive (they were
  // deferred until the system went idle).
  batchQueue_.forEachLive([&](sim::TaskId id, std::uint64_t /*seq*/) {
    const bool overdue = world.pool[id].missedDeadline(now);
    dropTask(world, id, now,
             overdue ? sim::TaskStatus::DroppedReactive
                     : sim::TaskStatus::DroppedProactive);
  });
  batchQueue_.clear();
}

void Scheduler::emit(const World& world, sim::Time time,
                     sim::TraceEventKind kind, sim::TaskId task,
                     sim::MachineId machine) const {
  if (!config_.traceSink) return;
  // Traces label a task by its arrival ordinal: slot ids are recycled.
  const sim::TaskId label =
      task == sim::kInvalidTask
          ? sim::kInvalidTask
          : static_cast<sim::TaskId>(world.pool[task].ordinal);
  config_.traceSink(sim::TraceEvent{time, kind, label, machine, cluster_});
}

}  // namespace hcs::core
