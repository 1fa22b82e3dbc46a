#pragma once
// Incremental memoization of PCT queries (Eq. 1) across mapping events.
//
// Every mapping event the pruner and the deferring check ask the same two
// questions about machine queues:
//
//   1. "What is the PCT of appending a task of type k to machine j now?"
//      (tailPct ⊛ PET — the deferring check of Fig. 5 step 10), and
//   2. "What is the PCT of each task already queued on machine j, freshly
//      conditioned on the head task's elapsed execution?"  (the proactive
//      dropping walk of Fig. 5 steps 4-6).
//
// Both answers only change when the machine's (running, queue) configuration
// changes — which sim::Machine announces through its queue-epoch counter —
// or, for the now-conditioned variants, when the head task's elapsed time
// crosses a grid bin.  PctCache keys the memoized PMFs on exactly
// (machine, queue-epoch, head-task elapsed bin) and therefore returns
// bit-identical results to the uncached recomputation: convolution operates
// on bin *contents* while absolute anchoring only shifts bin *offsets*, so
// chains cached on a relative grid can be re-anchored to any `now` with a
// cheap shift.
//
// Both pruning decisions only need one bit of each answer — is the Eq. 2
// chance at most the bar?  appendBelowBar and certifiedBelowBar decide it
// from prob::convolvedCdfEstimate in O(|base|) and convolve only inside the
// kConvolvedCdfSlack band (or past the bin cap), so every decision is the
// exact path's decision.  Two memos skip even that: a deferral verdict is
// reused while the machine's epoch holds (deferredBefore), and a proactive
// keep is re-certified from the chance recorded at an earlier elapsed bin
// of the same running head (keepCertified), without rebuilding the chain.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "prob/pmf.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::heuristics {

class PctCache {
 public:
  struct Stats {
    std::uint64_t appendHits = 0;
    std::uint64_t appendMisses = 0;
    std::uint64_t chainHits = 0;
    std::uint64_t chainMisses = 0;
    std::uint64_t meanHits = 0;
    std::uint64_t meanMisses = 0;
    /// Eq. 2 comparisons decided by the point-CDF estimate, and those that
    /// fell inside its slack band (or past the bin cap) and ran the exact
    /// convolution instead.
    std::uint64_t certified = 0;
    std::uint64_t exactFallbacks = 0;
    /// Deferring checks answered by the deferral verdict memo, and
    /// proactive keeps certified by the elapsed-bin keep bound.
    std::uint64_t deferMemoHits = 0;
    std::uint64_t keepBoundHits = 0;

    std::uint64_t hits() const { return appendHits + chainHits + meanHits; }
    Stats& operator+=(const Stats& other) {
      appendHits += other.appendHits;
      appendMisses += other.appendMisses;
      chainHits += other.chainHits;
      chainMisses += other.chainMisses;
      meanHits += other.meanHits;
      meanMisses += other.meanMisses;
      certified += other.certified;
      exactFallbacks += other.exactFallbacks;
      deferMemoHits += other.deferMemoHits;
      keepBoundHits += other.keepBoundHits;
      return *this;
    }
    std::uint64_t misses() const {
      return appendMisses + chainMisses + meanMisses;
    }
  };

  /// Chance of success (Eq. 2) of appending a task of `type` to machine `m`
  /// at `now`: m.tailPct(now, pool, model).convolve(model.pet(type, m.id()))
  /// .successProbability(deadline) exactly, evaluated on the memoized PMF
  /// in place — the hot path pays no PMF copy.
  double appendChance(const sim::Machine& m, sim::Time now,
                      const sim::TaskPool& pool,
                      const sim::ExecutionModel& model, sim::TaskType type,
                      sim::Time deadline);

  /// The deferring check (Fig. 5 step 10):
  /// appendChance(m, now, pool, model, type, deadline) <= bar, decided from
  /// the point-CDF estimate against the machine's tail when certified and by
  /// appendChance otherwise — so only an uncertified check convolves.
  bool appendBelowBar(const sim::Machine& m, sim::Time now,
                      const sim::TaskPool& pool,
                      const sim::ExecutionModel& model, sim::TaskType type,
                      sim::Time deadline, double bar);

  /// prob::certifiedCdfAtMost(base, pet, anchor, deadline, bar, estimate),
  /// counted in stats().certified / exactFallbacks.
  std::optional<bool> certifiedBelowBar(const prob::DiscretePmf& base,
                                        const prob::DiscretePmf& pet,
                                        std::int64_t anchor,
                                        sim::Time deadline, double bar,
                                        double* estimate = nullptr);

  /// The deferral verdict memo.  A tracked Eq. 1 tail does not depend on
  /// `now`, and every queue mutation moves the machine's epoch, so a task
  /// deferred on `m` at its current epoch under a bar b has the same chance
  /// now and is deferred again under any bar >= b.  True when noteDeferred
  /// recorded such a verdict for `task` (its pool slot, guarded by its
  /// arrival ordinal against slot reuse).  The memo is this cache's, i.e.
  /// one cluster's: machine ids and slots mean nothing across clusters.
  bool deferredBefore(const sim::Task& task, const sim::Machine& m,
                      double bar);
  /// Records that `task` was deferred on `m` under `bar` (a no-op unless
  /// m's tail is tracked).
  void noteDeferred(const sim::Task& task, const sim::Machine& m, double bar);

  /// The proactive pass's elapsed-bin keep bound for queue position `n` of
  /// `m`, with no drop ahead of it: true when a chance recorded by
  /// recordKeep on the same chain (the same epoch, or one adopted by
  /// noteAppend) still certifies chance > bar at `now` through
  /// prob::elapsedKeepCertified.  The record holds the chance at its head
  /// offset δ0 = anchorBin − elapsed bin and at δ0 + 1, so it covers both
  /// offsets that rounding `now` can produce for one running task.
  bool keepCertified(const sim::Machine& m, sim::Time now,
                     const sim::TaskPool& pool,
                     const sim::ExecutionModel& model, std::size_t n,
                     double bar);
  /// Records position `n`'s chance at `now` (`chance`) and one bin later
  /// (`chanceNext`), both computed on chainPrefix(n) with no drop ahead.
  /// The chain must be uncapped.  A no-op on an idle machine or past the
  /// head PET's last bin, where no bound holds.
  void recordKeep(const sim::Machine& m, sim::Time now,
                  const sim::TaskPool& pool, const sim::ExecutionModel& model,
                  std::size_t n, double chance, double chanceNext);

  /// Base of the proactive chain at queue position `n` (n <= queue length)
  /// on a grid relative to `now`'s bin (absolute = shifted by
  /// anchorBin(m, now)): the availability PCT, conditioned on the running
  /// task's elapsed execution, for n = 0, and availability ⊛ PET(q_0) ⊛ … ⊛
  /// PET(q_{n-1}) — the PCT of queued task n−1 with every earlier queued
  /// task kept — otherwise.  Prefixes are materialized lazily, only as far
  /// as asked, and stay memoized for the machine's (epoch, elapsed bin).
  ///
  /// The reference is valid only until the next call on this cache.
  const prob::DiscretePmf& chainPrefix(const sim::Machine& m, sim::Time now,
                                       const sim::TaskPool& pool,
                                       const sim::ExecutionModel& model,
                                       std::size_t n);

  /// `now`'s grid bin: the shift that re-anchors the cache's relative-grid
  /// PMFs (chainPrefix, the untracked tail) to absolute time.
  static std::int64_t anchorBin(const sim::Machine& m, sim::Time now);

  /// A task was just appended to machine `m`'s queue (the machine's epoch
  /// moved from `preEpoch` to its current value by that one dispatch).
  /// Appending at the back leaves every chain prefix (and every keep
  /// record) valid, so a memo that was current at `preEpoch` adopts the new
  /// epoch with no convolution; the append/tail memos were derived from the
  /// old tail and are dropped.
  void noteAppend(const sim::Machine& m, std::uint64_t preEpoch);

  /// pet(running task).conditionalRemainingMean(now − runStart), 0 on an
  /// idle machine: the expensive term of a busy machine's expected-ready
  /// estimate.  Answered from a dense table with one row per (machine,
  /// running task type), indexed by the floored elapsed bin — exact because
  /// the conditional remaining PMF depends only on that bin.  A hit is a
  /// few array reads and makes no virtual call.
  double remainingMean(const sim::Machine& m, sim::Time now,
                       const sim::TaskPool& pool,
                       const sim::ExecutionModel& model);

  const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = Stats{}; }
  void clear();

 private:
  /// A kept position's chance at head elapsed bin `elapsedBin` (-1 = no
  /// record) and head offset `headOffset`, and at one bin later.
  struct KeepRecord {
    std::int64_t elapsedBin = -1;
    std::int64_t headOffset = 0;
    double massAbove = 0.0;
    double chance = 0.0;
    double chanceNext = 0.0;
  };

  /// The deferral memo's entry for one task slot.
  struct DeferVerdict {
    std::uint64_t ordinal = 0;
    sim::MachineId machine = sim::kInvalidMachine;
    std::uint64_t epoch = 0;
    double bar = 0.0;
  };

  struct MachineEntry {
    bool valid = false;
    std::uint64_t epoch = 0;
    bool tracked = false;
    /// Head-task elapsed-execution bin (floored, as conditionalRemaining
    /// floors; -1 when the machine is not busy) at which the untracked
    /// append entries / the proactive chain were computed.  The tracked
    /// Eq. 1 tail ignores it.  -2 = not yet computed.
    std::int64_t elapsedBin = -2;
    std::int64_t chainElapsedBin = -2;

    /// Memoized tailPct ⊛ PET per task type, indexed directly by type (task
    /// types are a small dense range — a flat array beats hashing on the
    /// per-candidate path).  On an absolute grid when the machine's Eq. 1
    /// tail is tracked (the tail itself is absolute and independent of
    /// `now`); otherwise on a grid relative to `now`'s bin.
    std::vector<std::optional<prob::DiscretePmf>> appendByType;

    /// Memoized untracked tail (relative grid), feeding appendByType misses.
    std::optional<prob::DiscretePmf> relTail;

    /// Memoized proactive-chain prefixes on a grid relative to `now`'s bin:
    /// relChain[0] = remaining(elapsed), relChain[n] = relChain[n-1] ⊛
    /// PET(q_{n-1}); extended on demand (empty = nothing computed yet).
    std::vector<prob::DiscretePmf> relChain;

    /// Keep records by queue position (recordKeep); they outlive
    /// elapsed-bin changes and die with the epoch.
    std::vector<KeepRecord> keeps;
    /// The running head PET's mass above elapsed bin `headMassBin`
    /// (-2 = not computed for this epoch).
    std::int64_t headMassBin = -2;
    double headMass = 0.0;
  };

  MachineEntry& entryFor(const sim::Machine& m);
  static std::int64_t elapsedBinOf(const sim::Machine& m, sim::Time now);
  /// S(e) of the running head's PET at elapsed bin `elapsedBin`, memoized
  /// in `entry`.
  static double headMassAbove(MachineEntry& entry, const sim::Machine& m,
                              const sim::TaskPool& pool,
                              const sim::ExecutionModel& model,
                              std::int64_t elapsedBin);

  /// The PMF every append convolves with: the machine's Eq. 1 tail
  /// (absolute, `anchorOut` = 0) when tracked, otherwise the memoized tail
  /// on the grid relative to `now`'s bin (`anchorOut` = that bin).
  const prob::DiscretePmf& appendBase(const sim::Machine& m, sim::Time now,
                                      const sim::TaskPool& pool,
                                      const sim::ExecutionModel& model,
                                      std::int64_t& anchorOut);

  /// Locates (computing on miss) the memoized append PMF for `type`;
  /// `anchorOut` as for appendBase.
  const prob::DiscretePmf& appendEntry(const sim::Machine& m, sim::Time now,
                                       const sim::TaskPool& pool,
                                       const sim::ExecutionModel& model,
                                       sim::TaskType type,
                                       std::int64_t& anchorOut);

  /// Availability PCT on the relative grid (absolute = shifted by
  /// anchorBin(m, now)); mirrors Machine::availabilityPct exactly.
  static prob::DiscretePmf relativeAvailability(const sim::Machine& m,
                                                sim::Time now,
                                                const sim::TaskPool& pool,
                                                const sim::ExecutionModel& model);

  /// One (machine, task type) row of conditional remaining means, indexed
  /// by the running task's floored elapsed bin and filled lazily (-1 =
  /// unfilled; a remaining mean is at least one bin wide).  Every bin at or
  /// past the PET's last bin has the same mean, so a row of lastBin + 1
  /// entries answers every bin by clamping the index.  A row is capped at
  /// kMaxMeanRow entries; past a capped row the mean is computed uncached.
  struct MeanRow {
    std::vector<double> means;
    bool capped = false;
  };
  static constexpr std::size_t kMaxMeanRow =
      prob::DiscretePmf::kDefaultMaxBins;

  /// Creates the (unfilled) row for (m, type) and returns its index in
  /// meanRows_.
  std::size_t addMeanRow(const sim::Machine& m, sim::TaskType type,
                         const sim::ExecutionModel& model);

  std::vector<MachineEntry> entries_;
  /// Deferral verdicts by task slot.
  std::vector<DeferVerdict> deferVerdicts_;
  /// Row stride (the model's task-type count; 0 until the first row) and
  /// the rows, at machine * meanTypes_ + type.
  std::size_t meanTypes_ = 0;
  std::vector<MeanRow> meanRows_;
  Stats stats_;
};

}  // namespace hcs::heuristics
