#include "heuristics/context.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "prob/arena.h"
#include "prob/kernels.h"
#include "prob/pmf.h"

namespace hcs::heuristics {

MappingContext::MappingContext(sim::Time now, const sim::TaskPool& pool,
                               const std::vector<sim::Machine>& machines,
                               const sim::ExecutionModel& model,
                               std::size_t queueCapacity, PctCache* pctCache)
    : now_(now),
      pool_(&pool),
      machines_(&machines),
      model_(&model),
      capacity_(queueCapacity),
      pctCache_(pctCache),
      readyCache_(prob::PmfArena::local().acquire(machines.size(), -1.0)),
      execCache_(prob::PmfArena::local().acquire(
          static_cast<std::size_t>(model.numTaskTypes()) * machines.size(),
          -1.0)) {
  if (machines.empty()) {
    throw std::invalid_argument("MappingContext: no machines");
  }
  if (queueCapacity == 0) {
    throw std::invalid_argument("MappingContext: zero queue capacity");
  }
}

MappingContext::~MappingContext() {
  prob::PmfArena& arena = prob::PmfArena::local();
  arena.recycle(std::move(execCache_));
  arena.recycle(std::move(readyCache_));
}

void MappingContext::enablePersistence() {
  persistent_ = true;
  // Stamp 0 can never equal a live generation (readyGen_ starts at 1).
  readyEpoch_.assign(machines_->size(), 0);
  readyStamp_.assign(machines_->size(), 0);
}

void MappingContext::rebind(sim::Time now) {
  if (now == now_) return;
  now_ = now;
  // Ready times are anchored at `now`; a new event invalidates every entry
  // in O(1) by bumping the generation.  The exec memo survives: it depends
  // only on the model.  On the (harmless, ~4 billion events) wrap to 0,
  // entries stamped 0 are refused by expectedReady anyway since stamp 0 is
  // re-assigned below before any lookup.
  if (++readyGen_ == 0) {
    readyStamp_.assign(readyStamp_.size(), 0);
    readyGen_ = 1;
  }
}

sim::Time MappingContext::computeReady(sim::MachineId id) const {
  const auto idx = static_cast<std::size_t>(id);
  const sim::Machine& m = (*machines_)[idx];
  sim::Time ready;
  if (pctCache_ != nullptr) {
    // Same arithmetic, in the same order, as Machine::expectedReady, with
    // the conditional remaining mean of the running task memoized across
    // events.
    ready = now_;
    if (m.busy()) {
      ready += pctCache_->remainingMean(m, now_, *pool_, *model_);
    }
    for (const sim::TaskType type : m.queueTypes()) {
      ready += expectedExec(type, id);
    }
  } else {
    ready = m.expectedReady(now_, *pool_, *model_);
  }
  readyCache_[idx] = ready;
  if (persistent_) {
    readyStamp_[idx] = readyGen_;
    readyEpoch_[idx] = m.queueEpoch();
  }
  return ready;
}

void MappingContext::freeMachines(std::vector<sim::MachineId>& out) const {
  out.clear();
  if (freeSet_ != nullptr) {
    freeSet_->forEach([&](sim::MachineId j) { out.push_back(j); });
    return;
  }
  for (sim::MachineId j = 0; j < numMachines(); ++j) {
    if (freeSlots(j) > 0) out.push_back(j);
  }
}

void MappingContext::checkFreeSet() const {
  if (freeSet_ == nullptr) return;
  for (sim::MachineId j = 0; j < numMachines(); ++j) {
    if (freeSet_->contains(j) != (freeSlots(j) > 0)) {
      throw std::logic_error("MappingContext: free-machine set disagrees "
                             "with machine " + std::to_string(j));
    }
  }
}

double MappingContext::successChance(sim::TaskId task,
                                     sim::MachineId id) const {
  const sim::Task& t = (*pool_)[task];
  const sim::Machine& m = (*machines_)[static_cast<std::size_t>(id)];
  if (pctCache_ != nullptr) {
    return pctCache_->appendChance(m, now_, *pool_, *model_, t.type,
                                   t.deadline);
  }
  prob::PmfArena& arena = prob::PmfArena::local();
  prob::DiscretePmf base = m.tailPct(now_, *pool_, *model_);
  prob::DiscretePmf pct = prob::convolveInto(arena, base, model_->pet(t.type, id));
  arena.recycle(std::move(base));
  const double chance = pct.successProbability(t.deadline);
  arena.recycle(std::move(pct));
  return chance;
}

std::vector<double> MappingContext::successChances(sim::TaskId task) const {
  const sim::Task& t = (*pool_)[task];
  const int m = numMachines();
  std::vector<double> chances;
  chances.reserve(static_cast<std::size_t>(m));
  if (pctCache_ != nullptr) {
    // Memoized append entries answer each machine without re-convolving.
    for (sim::MachineId j = 0; j < m; ++j) {
      chances.push_back(pctCache_->appendChance(
          (*machines_)[static_cast<std::size_t>(j)], now_, *pool_, *model_,
          t.type, t.deadline));
    }
    return chances;
  }
  // Uncached: materialize every machine's appended PCT once into arena
  // buffers, then score the whole batch against the deadline in one pass.
  prob::PmfArena& arena = prob::PmfArena::local();
  std::vector<prob::DiscretePmf> pcts;
  pcts.reserve(static_cast<std::size_t>(m));
  std::vector<const prob::DiscretePmf*> ptrs;
  ptrs.reserve(static_cast<std::size_t>(m));
  for (sim::MachineId j = 0; j < m; ++j) {
    const sim::Machine& machine = (*machines_)[static_cast<std::size_t>(j)];
    prob::DiscretePmf base = machine.tailPct(now_, *pool_, *model_);
    pcts.push_back(prob::convolveInto(arena, base, model_->pet(t.type, j)));
    arena.recycle(std::move(base));
  }
  for (const prob::DiscretePmf& pct : pcts) ptrs.push_back(&pct);
  chances = prob::successProbabilityBatch(ptrs, t.deadline);
  for (prob::DiscretePmf& pct : pcts) arena.recycle(std::move(pct));
  return chances;
}

}  // namespace hcs::heuristics
