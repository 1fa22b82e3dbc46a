#include "heuristics/batch.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace hcs::heuristics {

std::size_t TwoPhaseBatchHeuristic::loadFreeMachines(
    const MappingContext& ctx, std::size_t candidates) {
  ctx.freeMachines(freeList_);
  const std::size_t columns = freeList_.size();
  columns_ = columns;
  virtualReady_.resize(columns);
  slots_.resize(columns);
  best_.resize(columns);
  tileStride_ = columns;
  rowType_.clear();
  // Room for a row per task type: addRow never grows the tile.
  const std::size_t cells =
      static_cast<std::size_t>(ctx.model().numTaskTypes()) * columns;
  if (execTile_.size() < cells) execTile_.resize(cells);
  std::size_t bound = 0;
  for (std::size_t k = 0; k < columns; ++k) {
    slots_[k] = ctx.freeSlots(freeList_[k]);
    virtualReady_[k] = ctx.expectedReady(freeList_[k]);
    // Every column starts without a candidate; commitRound() clears the
    // ones it takes, so no round pays a reset pass.
    best_[k].task = sim::kInvalidTask;
    bound += std::min(slots_[k], candidates);
  }
  return std::min(bound, candidates);
}

inline std::uint32_t TwoPhaseBatchHeuristic::addRow(
    const MappingContext& ctx, sim::TaskType type) {
  const auto row = static_cast<std::uint32_t>(rowType_.size());
  rowType_.push_back(type);
  double* exec = execTile_.data() + row * tileStride_;
  for (std::size_t k = 0; k < tileStride_; ++k) {
    exec[k] = ctx.expectedExec(type, freeList_[k]);
  }
  return row;
}

inline TwoPhaseBatchHeuristic::Phase1Result TwoPhaseBatchHeuristic::scanRow(
    std::uint32_t row) const {
  const double* ready = virtualReady_.data();
  const double* exec = execTile_.data() + row * tileStride_;
  const std::size_t columns = columns_;
  // Selects, not branches: which machine wins is data, and a mispredicted
  // jump costs more than the whole comparison.  The same updates as
  // "if (ect < best) {second = best; best = ect;} else if (ect < second)
  // second = ect;".
  double best = ready[0] + exec[0];
  double second = std::numeric_limits<double>::infinity();
  std::uint32_t column = 0;
  for (std::size_t k = 1; k < columns; ++k) {
    const double ect = ready[k] + exec[k];
    const bool wins = ect < best;
    second = wins ? best : (ect < second ? ect : second);
    column = wins ? static_cast<std::uint32_t>(k) : column;
    best = wins ? ect : best;
  }
  // A lone machine is its own runner-up.
  return Phase1Result{
      column, best,
      second == std::numeric_limits<double>::infinity() ? best : second};
}

template <class OnCommit>
void TwoPhaseBatchHeuristic::commitRound(std::vector<Assignment>& result,
                                         const OnCommit& onCommit) {
  // Commit in machine order (the order the reference emits); a column
  // whose last virtual slot fills leaves the tile on the way (order kept).
  const std::size_t rows = rowType_.size();
  std::size_t kept = 0;
  for (std::size_t k = 0; k < columns_; ++k) {
    Candidate& c = best_[k];
    if (c.task != sim::kInvalidTask) {
      result.push_back(Assignment{c.task, freeList_[k]});
      virtualReady_[k] += execTile_[c.row * tileStride_ + k];
      --slots_[k];
      onCommit(c);
      c.task = sim::kInvalidTask;
    }
    if (slots_[k] == 0) continue;
    if (kept != k) {
      freeList_[kept] = freeList_[k];
      virtualReady_[kept] = virtualReady_[k];
      slots_[kept] = slots_[k];
      for (std::size_t r = 0; r < rows; ++r) {
        execTile_[r * tileStride_ + kept] = execTile_[r * tileStride_ + k];
      }
    }
    ++kept;
  }
  columns_ = kept;
}

template <class ScoreFn, class KeyFn, class SaturatesFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapImpl(
    const MappingContext& ctx, std::span<const sim::TaskId> batch,
    const ScoreFn& score, const KeyFn& withinTypeKey,
    const SaturatesFn& saturates) {
  // An empty span from a persistent, queue-attached caller means "read the
  // candidates off the queue" — the incremental path.  An explicit span
  // (every throwaway context, and the adaptive engine's narrow rounds)
  // runs the reference evaluation, which still benefits from whatever
  // memos the context carries.
  return ctx.persistent() && ctx.batchQueue() != nullptr && batch.empty()
             ? mapIncremental(ctx, score, withinTypeKey, saturates)
             : mapReference(ctx, batch, score);
}

template <class ScoreFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapReference(
    const MappingContext& ctx, std::span<const sim::TaskId> batch,
    const ScoreFn& score) {
  const std::size_t bound = loadFreeMachines(ctx, batch.size());
  if (bound == 0) return {};
  ++callGen_;

  // Read each candidate's type once, opening its tile row on first sight.
  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  if (rowStamp_.size() < numTypes) {
    rowStamp_.resize(numTypes, 0);
    rowOfType_.resize(numTypes);
  }
  unmapped_.clear();
  for (const sim::TaskId task : batch) {
    const sim::TaskType type = ctx.pool()[task].type;
    const auto typeIdx = static_cast<std::size_t>(type);
    if (rowStamp_[typeIdx] != callGen_) {
      rowStamp_[typeIdx] = callGen_;
      rowOfType_[typeIdx] = addRow(ctx, type);
    }
    unmapped_.push_back(Unmapped{task, rowOfType_[typeIdx]});
  }
  if (phase1ByRow_.size() < rowType_.size()) {
    phase1ByRow_.resize(rowType_.size());
    phase1Round_.resize(rowType_.size(), 0);
  }

  std::vector<Assignment> result;
  result.reserve(bound);
  // unmapped_[0, listed) holds the unmapped tasks in arrival order plus the
  // previous round's winners, which the next pass compacts out.
  std::size_t listed = unmapped_.size();
  while (result.size() < batch.size() && columns_ > 0) {
    ++roundGen_;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < listed; ++i) {
      const Unmapped u = unmapped_[i];
      if (u.task == sim::kInvalidTask) continue;
      unmapped_[kept] = u;
      // Phase 1: machine with the minimum expected completion time among
      // those with a free virtual slot (the runner-up is kept for
      // sufferage-style scores).  The scan reads only the virtual queue
      // state and the task's TYPE — every unmapped task of a type shares
      // the identical result, so each round scans once per live type
      // instead of once per task.
      if (phase1Round_[u.row] != roundGen_) {
        phase1ByRow_[u.row] = scanRow(u.row);
        phase1Round_[u.row] = roundGen_;
      }
      const Phase1Result& phase1 = phase1ByRow_[u.row];
      // Phase 2 bookkeeping: keep the best-scoring candidate per machine
      // (the first minimal one in arrival order).
      const Score s = score(ctx, u.task, phase1);
      Candidate& slot = best_[phase1.column];
      if (slot.task == sim::kInvalidTask || s < slot.score) {
        slot = Candidate{u.task, s, kept, u.row, 0};
      }
      ++kept;
    }
    listed = kept;
    commitRound(result, [&](const Candidate& c) {
      unmapped_[c.order].task = sim::kInvalidTask;
    });
  }
  return result;
}

template <class ScoreFn, class KeyFn, class SaturatesFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapIncremental(
    const MappingContext& ctx, const ScoreFn& score,
    const KeyFn& withinTypeKey, const SaturatesFn& saturates) {
  const sim::BatchQueue& queue = *ctx.batchQueue();
  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  ++callGen_;

  // Keep the per-type buckets — each sorted by (key, arrival seq) so its
  // head is the type's best phase-2 candidate — in sync with the arrival
  // queue by replaying its mutation journal: O(what changed) per call.  A
  // wholesale rebuild runs only when the queue dropped its history (see
  // BatchQueue::resetGeneration), at most once per max(1024, 2 x live)
  // mutations.
  const auto entryLess = [](const BucketEntry& a, const BucketEntry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  };
  bool rebuild = syncedQueue_ != &queue ||
                 syncedResetGen_ != queue.resetGeneration() ||
                 syncedPool_ != static_cast<const void*>(&ctx.pool()) ||
                 buckets_.size() != numTypes;
  if (!rebuild) {
    const std::size_t journalEnd = queue.journalSize();
    for (std::size_t i = syncedJournalPos_; i < journalEnd && !rebuild;
         ++i) {
      const sim::BatchQueue::JournalEntry& je = queue.journalAt(i);
      const auto typeIdx =
          static_cast<std::size_t>(ctx.pool()[je.task].type);
      auto& bucket = buckets_[typeIdx];
      const BucketEntry probe{withinTypeKey(ctx, je.task), je.seq, je.task,
                              0};
      if (je.op == sim::BatchQueue::JournalEntry::Op::Push) {
        if (bucket.empty() || entryLess(bucket.back(), probe)) {
          bucket.push_back(probe);  // common case: appended in key order
        } else {
          const auto it = std::upper_bound(bucket.begin(), bucket.end(),
                                           probe, entryLess);
          const auto pos =
              static_cast<std::uint32_t>(it - bucket.begin());
          bucket.insert(it, probe);
          if (pos < bucketHead_[typeIdx]) bucketHead_[typeIdx] = pos;
        }
      } else {
        // Winners are bucket heads, so the task being removed is almost
        // always the first live entry — check it before paying for a
        // binary search over the whole bucket (seq stamps are unique, so
        // a matching head IS the entry).
        auto it = bucket.begin() + bucketHead_[typeIdx];
        if (bucketHead_[typeIdx] >= bucket.size() || it->seq != je.seq) {
          it = std::lower_bound(bucket.begin(), bucket.end(), probe,
                                entryLess);
        }
        if (it == bucket.end() || it->seq != je.seq ||
            it->assignedCall == kDeadEntry) {
          rebuild = true;  // defensive: journal and buckets disagree
        } else {
          // Tombstone, never memmove: the dead entry keeps its (key, seq)
          // so later binary searches stay exact.
          it->assignedCall = kDeadEntry;
          ++bucketDead_[typeIdx];
          std::uint32_t& head = bucketHead_[typeIdx];
          while (head < bucket.size() &&
                 bucket[head].assignedCall == kDeadEntry) {
            ++head;
          }
          if (bucketDead_[typeIdx] >= 16 &&
              bucketDead_[typeIdx] * 2 >
                  static_cast<std::uint32_t>(bucket.size())) {
            std::erase_if(bucket, [](const BucketEntry& e) {
              return e.assignedCall == kDeadEntry;
            });
            bucketDead_[typeIdx] = 0;
            bucketHead_[typeIdx] = 0;
          }
        }
      }
    }
    syncedJournalPos_ = journalEnd;
  }
  if (rebuild) {
    buckets_.resize(numTypes);
    for (auto& bucket : buckets_) bucket.clear();
    bucketHead_.assign(numTypes, 0);
    bucketDead_.assign(numTypes, 0);
    queue.forEachLive([&](sim::TaskId task, std::uint64_t seq) {
      buckets_[static_cast<std::size_t>(ctx.pool()[task].type)].push_back(
          BucketEntry{withinTypeKey(ctx, task), seq, task, 0});
    });
    for (auto& bucket : buckets_) {
      if (!std::is_sorted(bucket.begin(), bucket.end(), entryLess)) {
        std::sort(bucket.begin(), bucket.end(), entryLess);
      }
    }
    syncedQueue_ = &queue;
    syncedResetGen_ = queue.resetGeneration();
    syncedJournalPos_ = queue.journalSize();
    syncedPool_ = &ctx.pool();
  }

  const std::size_t bound = loadFreeMachines(ctx, queue.size());
  if (bound == 0) return {};

  // Entries assigned this call or deferred this event are out of the
  // running; both states are sticky for the rest of the call, so a cursor
  // never has to back up.  Nothing is deferred on an event's first call.
  const bool anyDeferred = queue.anyDeferredThisEvent();
  const auto outOfRunning = [&](const BucketEntry& e) {
    return e.assignedCall == callGen_ || e.assignedCall == kDeadEntry ||
           (anyDeferred && queue.deferredThisEvent(e.task));
  };
  // One tile row per type that still has a candidate.
  cursor_.clear();
  liveRows_.clear();
  for (std::size_t t = 0; t < numTypes; ++t) {
    const auto& bucket = buckets_[t];
    std::uint32_t cur = bucketHead_[t];
    // The head never rests on a tombstone and nothing is assigned yet, so
    // only a deferral can take it out of the running.
    if (anyDeferred) {
      while (cur < bucket.size() && outOfRunning(bucket[cur])) ++cur;
    }
    if (cur == bucket.size()) continue;
    liveRows_.push_back(addRow(ctx, static_cast<sim::TaskType>(t)));
    cursor_.push_back(cur);
  }

  std::vector<Assignment> result;
  result.reserve(bound);
  while (!liveRows_.empty() && columns_ > 0) {
    for (std::size_t k = 0; k < liveRows_.size();) {
      const std::uint32_t row = liveRows_[k];
      const auto& bucket = buckets_[static_cast<std::size_t>(rowType_[row])];
      std::uint32_t& cur = cursor_[row];
      while (cur < bucket.size() && outOfRunning(bucket[cur])) ++cur;
      if (cur == bucket.size()) {
        // Type exhausted for this call.
        liveRows_[k] = liveRows_.back();
        liveRows_.pop_back();
        continue;
      }
      const Phase1Result phase1 = scanRow(row);
      // The type's best candidate.  Normally the head: the bucket is
      // sorted by (key, arrival seq) and the score is monotone in the
      // key, so the head carries the type's minimal (score, arrival)
      // pair.  But when the head's score SATURATES (MMU collapses every
      // hopeless slack to -inf urgency), all saturated tasks tie on score
      // and the reference breaks the tie by arrival order alone — so scan
      // the saturated prefix (contiguous: keys ascend, saturation is
      // downward-closed in the key) for the earliest arrival.
      std::uint32_t chosen = cur;
      if (saturates(bucket[cur].key, phase1)) {
        for (std::uint32_t i = cur + 1;
             i < bucket.size() && saturates(bucket[i].key, phase1); ++i) {
          if (bucket[i].seq < bucket[chosen].seq &&
              !outOfRunning(bucket[i])) {
            chosen = i;
          }
        }
      }
      const sim::TaskId task = bucket[chosen].task;
      const Score s = score(ctx, task, phase1);
      // Exactly the reference's "first minimal wins": minimize
      // (score, arrival order) — per-machine minimum over the per-type
      // minima equals the reference's minimum over all candidates.
      Candidate& slot = best_[phase1.column];
      if (slot.task == sim::kInvalidTask || s < slot.score ||
          (!(slot.score < s) && bucket[chosen].seq < slot.order)) {
        slot = Candidate{task, s, static_cast<std::size_t>(bucket[chosen].seq),
                         row, chosen};
      }
      ++k;
    }

    commitRound(result, [&](const Candidate& c) {
      buckets_[static_cast<std::size_t>(rowType_[c.row])][c.bucketIndex]
          .assignedCall = callGen_;
    });
  }
  return result;
}

std::vector<Assignment> MinCompletionMinCompletion::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext&, sim::TaskId,
                    const Phase1Result& phase1) {
                   return Score{phase1.ect, phase1.ect};
                 },
                 [](const MappingContext&, sim::TaskId) { return 0.0; },
                 [](double, const Phase1Result&) { return false; });
}

std::vector<Assignment> MinCompletionSoonestDeadline::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext& c, sim::TaskId task,
                    const Phase1Result& phase1) {
                   return Score{c.pool()[task].deadline, phase1.ect};
                 },
                 [](const MappingContext& c, sim::TaskId task) {
                   return c.pool()[task].deadline;
                 },
                 [](double, const Phase1Result&) { return false; });
}

std::vector<Assignment> MinCompletionMaxUrgency::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext& c, sim::TaskId task,
                    const Phase1Result& phase1) {
                   const double slack = c.pool()[task].deadline - phase1.ect;
                   // Eq. 3: urgency = 1 / slack.  Maximal urgency (lowest
                   // score) when the deadline is already at or past the
                   // expected completion.
                   const double urgency =
                       slack <= 1e-12
                           ? std::numeric_limits<double>::infinity()
                           : 1.0 / slack;
                   return Score{-urgency, phase1.ect};
                 },
                 // -urgency is monotone non-decreasing in the deadline for
                 // any fixed ECT (and saturates to -inf for hopeless
                 // slack), so the deadline orders a type exactly as the
                 // score does.
                 [](const MappingContext& c, sim::TaskId task) {
                   return c.pool()[task].deadline;
                 },
                 // The plateau of Eq. 3: every deadline at or under
                 // ect + eps is "maximally urgent" and scores exactly
                 // -inf — the same arithmetic as the score lambda.
                 [](double key, const Phase1Result& phase1) {
                   return key - phase1.ect <= 1e-12;
                 });
}

std::vector<Assignment> MaxMin::map(const MappingContext& ctx,
                                    std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext&, sim::TaskId,
                    const Phase1Result& phase1) {
                   return Score{-phase1.ect, phase1.ect};
                 },
                 [](const MappingContext&, sim::TaskId) { return 0.0; },
                 [](double, const Phase1Result&) { return false; });
}

std::vector<Assignment> SufferageHeuristic::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  return mapImpl(ctx, batch,
                 [](const MappingContext&, sim::TaskId,
                    const Phase1Result& phase1) {
                   // Largest sufferage (second-best minus best completion)
                   // wins the slot.
                   return Score{-(phase1.secondEct - phase1.ect), phase1.ect};
                 },
                 [](const MappingContext&, sim::TaskId) { return 0.0; },
                 [](double, const Phase1Result&) { return false; });
}

}  // namespace hcs::heuristics
