#include "heuristics/pct_cache.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "prob/arena.h"
#include "prob/kernels.h"

namespace hcs::heuristics {

namespace {

/// Returns every PMF owned by a memo container to the arena before the
/// container is cleared — the buffers feed the replacement chain's kernels.
void recycleValues(prob::PmfArena& arena,
                   std::vector<std::optional<prob::DiscretePmf>>& slots) {
  for (auto& slot : slots) {
    if (slot.has_value()) {
      arena.recycle(std::move(*slot));
      slot.reset();
    }
  }
}

void recycleValues(prob::PmfArena& arena,
                   std::vector<prob::DiscretePmf>& chain) {
  for (prob::DiscretePmf& pmf : chain) arena.recycle(std::move(pmf));
  chain.clear();
}

}  // namespace

std::int64_t PctCache::anchorBin(const sim::Machine& m, sim::Time now) {
  // Mirrors Machine::binAt.
  return static_cast<std::int64_t>(std::llround(now / m.binWidth()));
}

std::int64_t PctCache::elapsedBinOf(const sim::Machine& m, sim::Time now) {
  if (!m.busy()) return -1;
  // Mirrors the flooring inside DiscretePmf::conditionalRemaining: two
  // `now` values in the same floored bin produce the same remaining PMF.
  return static_cast<std::int64_t>(
      std::floor((now - m.runningSince()) / m.binWidth() + 1e-9));
}

prob::DiscretePmf PctCache::relativeAvailability(
    const sim::Machine& m, sim::Time now, const sim::TaskPool& pool,
    const sim::ExecutionModel& model) {
  prob::PmfArena& arena = prob::PmfArena::local();
  if (!m.busy()) {
    return prob::pointMassInto(arena, 0, m.binWidth());
  }
  const sim::Task& task = pool[m.runningTask()];
  return prob::conditionalRemainingInto(arena, model.pet(task.type, m.id()),
                                        now - m.runningSince());
}

PctCache::MachineEntry& PctCache::entryFor(const sim::Machine& m) {
  const auto idx = static_cast<std::size_t>(m.id());
  if (entries_.size() <= idx) entries_.resize(idx + 1);
  MachineEntry& entry = entries_[idx];
  if (!entry.valid || entry.epoch != m.queueEpoch()) {
    // Invalidate in place: the dead memo PMFs feed the arena (their buffers
    // become the replacement chain's kernels' outputs) and the containers
    // keep their capacity.
    prob::PmfArena& arena = prob::PmfArena::local();
    recycleValues(arena, entry.appendByType);
    if (entry.relTail.has_value()) {
      arena.recycle(std::move(*entry.relTail));
      entry.relTail.reset();
    }
    recycleValues(arena, entry.relChain);
    entry.keeps.clear();
    entry.elapsedBin = -2;
    entry.chainElapsedBin = -2;
    entry.headMassBin = -2;
    entry.valid = true;
    entry.epoch = m.queueEpoch();
    entry.tracked = m.tailTracked();
  }
  return entry;
}

const prob::DiscretePmf& PctCache::appendBase(const sim::Machine& m,
                                              sim::Time now,
                                              const sim::TaskPool& pool,
                                              const sim::ExecutionModel& model,
                                              std::int64_t& anchorOut) {
  MachineEntry& entry = entryFor(m);
  if (entry.tracked) {
    // The Eq. 1 tail is anchored at absolute times and independent of
    // `now`: append memos built on it survive until the next queue mutation.
    anchorOut = 0;
    return m.tailPctRef(pool, model);
  }
  // Untracked tail: the chain is conditioned at `now`, so memoize on the
  // relative grid (valid while the head's elapsed bin holds) and re-anchor
  // with a shift.  Convolution never reads bin offsets, so the shifted
  // result is bit-identical to the uncached absolute-grid computation.
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  if (entry.elapsedBin != elapsedBin || !entry.relTail.has_value()) {
    prob::PmfArena& arena = prob::PmfArena::local();
    entry.elapsedBin = elapsedBin;
    recycleValues(arena, entry.appendByType);
    prob::DiscretePmf acc = relativeAvailability(m, now, pool, model);
    for (const sim::TaskType qType : m.queueTypes()) {
      prob::convolveInPlace(arena, acc, model.pet(qType, m.id()));
    }
    if (entry.relTail.has_value()) arena.recycle(std::move(*entry.relTail));
    entry.relTail = std::move(acc);
  }
  anchorOut = anchorBin(m, now);
  return *entry.relTail;
}

const prob::DiscretePmf& PctCache::appendEntry(const sim::Machine& m,
                                               sim::Time now,
                                               const sim::TaskPool& pool,
                                               const sim::ExecutionModel& model,
                                               sim::TaskType type,
                                               std::int64_t& anchorOut) {
  const prob::DiscretePmf& base = appendBase(m, now, pool, model, anchorOut);
  MachineEntry& entry = entries_[static_cast<std::size_t>(m.id())];
  const auto typeIdx = static_cast<std::size_t>(type);
  if (entry.appendByType.size() <= typeIdx) {
    entry.appendByType.resize(
        static_cast<std::size_t>(model.numTaskTypes()));
  }
  std::optional<prob::DiscretePmf>& slot = entry.appendByType[typeIdx];
  if (slot.has_value()) {
    ++stats_.appendHits;
    return *slot;
  }
  ++stats_.appendMisses;
  slot = prob::convolveInto(prob::PmfArena::local(), base,
                            model.pet(type, m.id()));
  return *slot;
}

double PctCache::appendChance(const sim::Machine& m, sim::Time now,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              sim::TaskType type, sim::Time deadline) {
  std::int64_t anchor = 0;
  const prob::DiscretePmf& rel =
      appendEntry(m, now, pool, model, type, anchor);
  return rel.cdfShiftedBy(anchor, deadline);
}

bool PctCache::appendBelowBar(const sim::Machine& m, sim::Time now,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              sim::TaskType type, sim::Time deadline,
                              double bar) {
  std::int64_t anchor = 0;
  const prob::DiscretePmf& base = appendBase(m, now, pool, model, anchor);
  if (const std::optional<bool> below = certifiedBelowBar(
          base, model.pet(type, m.id()), anchor, deadline, bar)) {
    return *below;
  }
  return appendChance(m, now, pool, model, type, deadline) <= bar;
}

std::optional<bool> PctCache::certifiedBelowBar(const prob::DiscretePmf& base,
                                                const prob::DiscretePmf& pet,
                                                std::int64_t anchor,
                                                sim::Time deadline,
                                                double bar, double* estimate) {
  const std::optional<bool> below =
      prob::certifiedCdfAtMost(base, pet, anchor, deadline, bar, estimate);
  ++(below.has_value() ? stats_.certified : stats_.exactFallbacks);
  return below;
}

bool PctCache::deferredBefore(const sim::Task& task, const sim::Machine& m,
                              double bar) {
  const auto slot = static_cast<std::size_t>(task.id);
  if (slot >= deferVerdicts_.size()) return false;
  const DeferVerdict& v = deferVerdicts_[slot];
  if (v.machine != m.id() || v.ordinal != task.ordinal ||
      v.epoch != m.queueEpoch() || bar < v.bar) {
    return false;
  }
  ++stats_.deferMemoHits;
  return true;
}

void PctCache::noteDeferred(const sim::Task& task, const sim::Machine& m,
                            double bar) {
  // An untracked tail is conditioned at `now`: its chance moves with time.
  if (!m.tailTracked()) return;
  const auto slot = static_cast<std::size_t>(task.id);
  if (deferVerdicts_.size() <= slot) deferVerdicts_.resize(slot + 1);
  deferVerdicts_[slot] = {task.ordinal, m.id(), m.queueEpoch(), bar};
}

double PctCache::headMassAbove(MachineEntry& entry, const sim::Machine& m,
                               const sim::TaskPool& pool,
                               const sim::ExecutionModel& model,
                               std::int64_t elapsedBin) {
  if (entry.headMassBin != elapsedBin) {
    entry.headMassBin = elapsedBin;
    entry.headMass = prob::massAbove(
        model.pet(pool[m.runningTask()].type, m.id()), elapsedBin);
  }
  return entry.headMass;
}

bool PctCache::keepCertified(const sim::Machine& m, sim::Time now,
                             const sim::TaskPool& pool,
                             const sim::ExecutionModel& model, std::size_t n,
                             double bar) {
  MachineEntry& entry = entryFor(m);
  if (n >= entry.keeps.size()) return false;
  const KeepRecord& record = entry.keeps[n];
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  // An idle machine reads -1, below every record.
  if (record.elapsedBin < 0 || elapsedBin < record.elapsedBin) return false;
  // A later head offset moves every completion later; the record covers
  // one bin of that (the rounding of `now`), no more.
  const std::int64_t headOffset = anchorBin(m, now) - elapsedBin;
  double chance;
  if (headOffset <= record.headOffset) {
    chance = record.chance;
  } else if (headOffset == record.headOffset + 1) {
    chance = record.chanceNext;
  } else {
    return false;
  }
  const double mass = headMassAbove(entry, m, pool, model, elapsedBin);
  if (!prob::elapsedKeepCertified(chance, record.massAbove, mass, bar)) {
    return false;
  }
  ++stats_.keepBoundHits;
  return true;
}

void PctCache::recordKeep(const sim::Machine& m, sim::Time now,
                          const sim::TaskPool& pool,
                          const sim::ExecutionModel& model, std::size_t n,
                          double chance, double chanceNext) {
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  if (elapsedBin < 0) return;
  MachineEntry& entry = entryFor(m);
  const double mass = headMassAbove(entry, m, pool, model, elapsedBin);
  if (!(mass > 0.0)) return;
  if (entry.keeps.size() <= n) entry.keeps.resize(n + 1);
  entry.keeps[n] = {elapsedBin, anchorBin(m, now) - elapsedBin, mass, chance,
                    chanceNext};
}

const prob::DiscretePmf& PctCache::chainPrefix(const sim::Machine& m,
                                               sim::Time now,
                                               const sim::TaskPool& pool,
                                               const sim::ExecutionModel& model,
                                               std::size_t n) {
  MachineEntry& entry = entryFor(m);
  std::vector<prob::DiscretePmf>& chain = entry.relChain;
  prob::PmfArena& arena = prob::PmfArena::local();
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  if (entry.chainElapsedBin != elapsedBin) {
    recycleValues(arena, chain);
    entry.chainElapsedBin = elapsedBin;
  }
  if (n < chain.size()) {
    ++stats_.chainHits;
    return chain[n];
  }
  ++stats_.chainMisses;
  const std::vector<sim::TaskType>& types = m.queueTypes();
  chain.reserve(types.size() + 1);
  if (chain.empty()) chain.push_back(relativeAvailability(m, now, pool, model));
  while (chain.size() <= n) {
    const sim::TaskType qType = types[chain.size() - 1];
    chain.push_back(
        prob::convolveInto(arena, chain.back(), model.pet(qType, m.id())));
  }
  return chain[n];
}

void PctCache::noteAppend(const sim::Machine& m, std::uint64_t preEpoch) {
  const auto idx = static_cast<std::size_t>(m.id());
  if (idx >= entries_.size()) return;
  MachineEntry& entry = entries_[idx];
  if (!entry.valid || entry.epoch != preEpoch) return;
  prob::PmfArena& arena = prob::PmfArena::local();
  recycleValues(arena, entry.appendByType);
  if (entry.relTail.has_value()) {
    arena.recycle(std::move(*entry.relTail));
    entry.relTail.reset();
  }
  entry.elapsedBin = -2;
  entry.epoch = m.queueEpoch();
  entry.tracked = m.tailTracked();
}

double PctCache::remainingMean(const sim::Machine& m, sim::Time now,
                               const sim::TaskPool& pool,
                               const sim::ExecutionModel& model) {
  // An idle machine has no running task and therefore no remaining work.
  if (!m.busy()) return 0.0;
  const sim::TaskType type = pool[m.runningTask()].type;
  const std::int64_t elapsedBin = elapsedBinOf(m, now);
  const sim::Time elapsed = now - m.runningSince();
  if (elapsedBin < 0) {
    // A clock behind the run start has no bin to key on.
    return model.pet(type, m.id()).conditionalRemainingMean(elapsed);
  }
  const auto typeIdx = static_cast<std::size_t>(type);
  std::size_t rowIdx = static_cast<std::size_t>(m.id()) * meanTypes_ + typeIdx;
  if (typeIdx >= meanTypes_ || rowIdx >= meanRows_.size() ||
      meanRows_[rowIdx].means.empty()) {
    rowIdx = addMeanRow(m, type, model);
  }
  MeanRow& row = meanRows_[rowIdx];
  auto bin = static_cast<std::size_t>(elapsedBin);
  if (bin >= row.means.size()) {
    if (row.capped) {
      ++stats_.meanMisses;
      return model.pet(type, m.id()).conditionalRemainingMean(elapsed);
    }
    bin = row.means.size() - 1;  // the PET's last bin: the constant tail
  }
  double& mean = row.means[bin];
  if (mean >= 0.0) {
    ++stats_.meanHits;
    return mean;
  }
  ++stats_.meanMisses;
  mean = model.pet(type, m.id()).conditionalRemainingMean(elapsed);
  return mean;
}

std::size_t PctCache::addMeanRow(const sim::Machine& m, sim::TaskType type,
                                 const sim::ExecutionModel& model) {
  if (meanTypes_ == 0) {
    meanTypes_ = static_cast<std::size_t>(model.numTaskTypes());
  }
  const auto typeIdx = static_cast<std::size_t>(type);
  if (type < 0 || typeIdx >= meanTypes_) {
    throw std::out_of_range("PctCache::remainingMean: task type out of range");
  }
  const std::size_t rowIdx =
      static_cast<std::size_t>(m.id()) * meanTypes_ + typeIdx;
  if (meanRows_.size() <= rowIdx) {
    meanRows_.resize((static_cast<std::size_t>(m.id()) + 1) * meanTypes_);
  }
  // Bins 0..lastBin, the last standing for every later bin; a PET too long
  // for the cap keeps only the first kMaxMeanRow bins.
  const std::int64_t lastBin = model.pet(type, m.id()).lastBin();
  const std::size_t length =
      static_cast<std::size_t>(std::max<std::int64_t>(lastBin, 0)) + 1;
  MeanRow& row = meanRows_[rowIdx];
  row.capped = length > kMaxMeanRow;
  row.means.assign(row.capped ? kMaxMeanRow : length, -1.0);
  return rowIdx;
}

void PctCache::clear() {
  entries_.clear();
  deferVerdicts_.clear();
  meanTypes_ = 0;
  meanRows_.clear();
}

}  // namespace hcs::heuristics
