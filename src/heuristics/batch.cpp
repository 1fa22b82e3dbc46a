#include "heuristics/batch.h"

#include <algorithm>
#include <limits>
#include <vector>

namespace hcs::heuristics {

TwoPhaseBatchHeuristic::Phase1Result TwoPhaseBatchHeuristic::scanPhase1(
    const MappingContext& ctx, sim::TaskType type) const {
  constexpr double kNoSecond = std::numeric_limits<double>::infinity();
  Phase1Result phase1;
  phase1.secondEct = kNoSecond;
  // Ascending machines with strict-less updates: equal ects keep the
  // earlier machine.
  for (const sim::MachineId j : freeList_) {
    const double ect = virtualReady_[static_cast<std::size_t>(j)] +
                       ctx.expectedExec(type, j);
    if (phase1.machine == sim::kInvalidMachine) {
      phase1.machine = j;
      phase1.ect = ect;
    } else if (ect < phase1.ect) {
      phase1.secondEct = phase1.ect;
      phase1.machine = j;
      phase1.ect = ect;
    } else if (ect < phase1.secondEct) {
      phase1.secondEct = ect;
    }
  }
  if (phase1.machine != sim::kInvalidMachine &&
      phase1.secondEct == kNoSecond) {
    phase1.secondEct = phase1.ect;
  }
  return phase1;
}

void TwoPhaseBatchHeuristic::loadFreeMachines(const MappingContext& ctx) {
  const auto mz = static_cast<std::size_t>(ctx.numMachines());
  virtualReady_.resize(mz);
  slots_.resize(mz);
  best_.resize(mz);
  ctx.freeMachines(freeList_);
  for (const sim::MachineId j : freeList_) {
    slots_[static_cast<std::size_t>(j)] = ctx.freeSlots(j);
    virtualReady_[static_cast<std::size_t>(j)] = ctx.expectedReady(j);
  }
}

void TwoPhaseBatchHeuristic::pruneFullMachines() {
  std::erase_if(freeList_, [&](sim::MachineId j) {
    return slots_[static_cast<std::size_t>(j)] == 0;
  });
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
  loadFreeMachines(ctx);
  unmapped_.assign(batch.begin(), batch.end());
  std::vector<Assignment> result;

  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  phase1ByType_.resize(numTypes);
  phase1Stale_.assign(numTypes, char{1});

  while (!unmapped_.empty() && !freeList_.empty()) {
    // One candidate per machine per round.
    for (const sim::MachineId j : freeList_) {
      best_[static_cast<std::size_t>(j)] = Candidate{};
    }
    bool anyCandidate = false;
    for (std::size_t i = 0; i < unmapped_.size(); ++i) {
      const sim::TaskId task = unmapped_[i];
      const sim::TaskType type = ctx.pool()[task].type;
      // Phase 1: machine with the minimum expected completion time among
      // those with a free virtual slot (the runner-up is kept for
      // sufferage-style scores).  The scan's inputs are the virtual queue
      // state and the task's TYPE — every unmapped task of a type shares
      // the identical result, so each round scans once per live type
      // instead of once per task.
      const auto typeIdx = static_cast<std::size_t>(type);
      if (phase1Stale_[typeIdx]) {
        phase1ByType_[typeIdx] = scanPhase1(ctx, type);
        phase1Stale_[typeIdx] = 0;
      }
      const Phase1Result& phase1 = phase1ByType_[typeIdx];
      if (phase1.machine == sim::kInvalidMachine) continue;
      // Phase 2 bookkeeping: keep the best-scoring candidate per machine.
      const Score s = score(ctx, task, phase1);
      Candidate& slot = best_[static_cast<std::size_t>(phase1.machine)];
      if (slot.task == sim::kInvalidTask || s < slot.score) {
        slot = Candidate{task, s, i};
      }
      anyCandidate = true;
    }
    if (!anyCandidate) break;

    // Commit this round's winners (highest unmapped index first so the
    // pending erases do not invalidate the stored indices).
    winners_.clear();
    for (const sim::MachineId j : freeList_) {
      Candidate& c = best_[static_cast<std::size_t>(j)];
      if (c.task == sim::kInvalidTask) continue;
      result.push_back(Assignment{c.task, j});
      slots_[static_cast<std::size_t>(j)] -= 1;
      virtualReady_[static_cast<std::size_t>(j)] +=
          ctx.expectedExec(ctx.pool()[c.task].type, j);
      winners_.push_back(c);
    }
    pruneFullMachines();
    std::sort(winners_.begin(), winners_.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.unmappedIndex > b.unmappedIndex;
              });
    for (const Candidate& c : winners_) {
      unmapped_.erase(unmapped_.begin() +
                      static_cast<std::ptrdiff_t>(c.unmappedIndex));
    }
    // The winners changed the virtual queue state every phase-1 scan reads.
    std::fill(phase1Stale_.begin(), phase1Stale_.end(), char{1});
  }
  return result;
}

template <class ScoreFn, class KeyFn, class SaturatesFn>
std::vector<Assignment> TwoPhaseBatchHeuristic::mapIncremental(
    const MappingContext& ctx, const ScoreFn& score,
    const KeyFn& withinTypeKey, const SaturatesFn& saturates) {
  const sim::BatchQueue& queue = *ctx.batchQueue();
  const auto numTypes = static_cast<std::size_t>(ctx.model().numTaskTypes());
  loadFreeMachines(ctx);
  ++callGen_;

  // Keep the per-type buckets — each sorted by (key, arrival seq) so its
  // head is the type's best phase-2 candidate — in sync with the arrival
  // queue by replaying its mutation journal: O(what changed) per call,
  // never a wholesale rebuild.
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

  cursor_ = bucketHead_;
  liveTypes_.clear();
  for (std::size_t t = 0; t < numTypes; ++t) {
    if (bucketHead_[t] < buckets_[t].size()) {
      liveTypes_.push_back(static_cast<int>(t));
    }
  }

  std::vector<Assignment> result;
  while (!liveTypes_.empty()) {
    // Once the last virtual slot fills, nothing more can be placed.
    if (freeList_.empty()) break;
    for (const sim::MachineId j : freeList_) {
      best_[static_cast<std::size_t>(j)] = Candidate{};
    }
    bool anyCandidate = false;
    for (std::size_t k = 0; k < liveTypes_.size();) {
      const auto typeIdx = static_cast<std::size_t>(liveTypes_[k]);
      const auto& bucket = buckets_[typeIdx];
      std::uint32_t& cur = cursor_[typeIdx];
      // Entries assigned this call or deferred this event are out of the
      // running; both states are sticky for the rest of the call, so the
      // cursor never has to back up.
      while (cur < bucket.size() &&
             (bucket[cur].assignedCall == callGen_ ||
              bucket[cur].assignedCall == kDeadEntry ||
              queue.deferredThisEvent(bucket[cur].task))) {
        ++cur;
      }
      if (cur == bucket.size()) {
        // Type exhausted for this call.
        liveTypes_[k] = liveTypes_.back();
        liveTypes_.pop_back();
        continue;
      }
      // freeList_ is not empty, so the scan always finds a machine.
      const Phase1Result phase1 =
          scanPhase1(ctx, static_cast<sim::TaskType>(typeIdx));
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
          if (bucket[i].assignedCall != callGen_ &&
              bucket[i].assignedCall != kDeadEntry &&
              bucket[i].seq < bucket[chosen].seq &&
              !queue.deferredThisEvent(bucket[i].task)) {
            chosen = i;
          }
        }
      }
      const sim::TaskId task = bucket[chosen].task;
      const Score s = score(ctx, task, phase1);
      // Exactly the reference's "first minimal wins": minimize
      // (score, arrival order) — per-machine minimum over the per-type
      // minima equals the reference's minimum over all candidates.
      Candidate& slot = best_[static_cast<std::size_t>(phase1.machine)];
      if (slot.task == sim::kInvalidTask || s < slot.score ||
          (!(slot.score < s) && bucket[chosen].seq < slot.unmappedIndex)) {
        slot = Candidate{task, s,
                         static_cast<std::size_t>(bucket[chosen].seq),
                         static_cast<int>(typeIdx), chosen};
      }
      anyCandidate = true;
      ++k;
    }
    if (!anyCandidate) break;

    // Commit this round's winners in machine order (the order the
    // reference emits).
    for (const sim::MachineId j : freeList_) {
      const auto jz = static_cast<std::size_t>(j);
      const Candidate& c = best_[jz];
      if (c.task == sim::kInvalidTask) continue;
      result.push_back(Assignment{c.task, j});
      slots_[jz] -= 1;
      virtualReady_[jz] +=
          ctx.expectedExec(static_cast<sim::TaskType>(c.bucketType), j);
      buckets_[static_cast<std::size_t>(c.bucketType)][c.bucketIndex]
          .assignedCall = callGen_;
    }
    pruneFullMachines();
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
