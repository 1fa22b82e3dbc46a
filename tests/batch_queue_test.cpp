// Randomized model-check of sim::BatchQueue — the PR-3 indexed arrival
// queue — against a naive vector reference.  Random insert / remove /
// defer / begin-event / clear sequences (with journal-replay consumers kept
// in sync the way TwoPhaseBatchHeuristic does it) must agree with the
// obviously-correct model at every step, across tens of thousands of ops
// and multiple seeds.  This pins down the tombstone/compaction machinery,
// the O(1) generation-stamped deferral expiry, and the mutation journal —
// previously exercised only indirectly through mapping_engine_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "sim/batch_queue.h"

namespace {

using hcs::sim::BatchQueue;
using hcs::sim::TaskId;

/// The obviously-correct reference: a plain vector in arrival order.
class NaiveQueue {
 public:
  void push(TaskId task) { entries_.push_back({task, nextSeq_++, 0}); }

  void remove(TaskId task) {
    entries_.erase(std::find_if(
        entries_.begin(), entries_.end(),
        [task](const Entry& e) { return e.task == task; }));
  }

  void beginEvent() {
    ++eventGen_;
    anyDeferred_ = false;
  }

  void markDeferred(TaskId task) {
    std::find_if(entries_.begin(), entries_.end(), [task](const Entry& e) {
      return e.task == task;
    })->deferGen = eventGen_;
    anyDeferred_ = true;
  }

  bool anyDeferredThisEvent() const { return anyDeferred_; }

  bool contains(TaskId task) const {
    return std::any_of(entries_.begin(), entries_.end(),
                       [task](const Entry& e) { return e.task == task; });
  }

  bool deferredThisEvent(TaskId task) const {
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [task](const Entry& e) { return e.task == task; });
    return it != entries_.end() && it->deferGen == eventGen_;
  }

  std::uint64_t arrivalSeq(TaskId task) const {
    return std::find_if(entries_.begin(), entries_.end(),
                        [task](const Entry& e) { return e.task == task; })
        ->seq;
  }

  std::size_t size() const { return entries_.size(); }

  std::vector<TaskId> live() const {
    std::vector<TaskId> out;
    for (const Entry& e : entries_) out.push_back(e.task);
    return out;
  }

  std::vector<TaskId> candidates() const {
    std::vector<TaskId> out;
    for (const Entry& e : entries_) {
      if (e.deferGen != eventGen_) out.push_back(e.task);
    }
    return out;
  }

  void clear() {
    entries_.clear();
    anyDeferred_ = false;
  }

 private:
  struct Entry {
    TaskId task;
    std::uint64_t seq;
    std::uint64_t deferGen;
  };
  std::vector<Entry> entries_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t eventGen_ = 1;
  bool anyDeferred_ = false;
};

/// A journal consumer in the style of TwoPhaseBatchHeuristic's per-type
/// buckets: replays only the delta since its last position and must always
/// reconstruct the live task set.
class JournalConsumer {
 public:
  void sync(const BatchQueue& queue) {
    if (resetGen_ != queue.resetGeneration()) {
      // History was discarded: rebuild from the live queue.
      live_.clear();
      queue.forEachLive([&](TaskId task, std::uint64_t seq) {
        live_.push_back({task, seq});
      });
      pos_ = queue.journalSize();
      resetGen_ = queue.resetGeneration();
      ++rebuilds_;
    }
    for (; pos_ < queue.journalSize(); ++pos_) {
      const BatchQueue::JournalEntry& e = queue.journalAt(pos_);
      if (e.op == BatchQueue::JournalEntry::Op::Push) {
        live_.push_back({e.task, e.seq});
      } else {
        live_.erase(std::find_if(
            live_.begin(), live_.end(),
            [&](const auto& p) { return p.second == e.seq; }));
      }
    }
  }

  std::size_t rebuilds() const { return rebuilds_; }

  std::vector<TaskId> liveTasks() const {
    std::vector<TaskId> out;
    for (const auto& [task, seq] : live_) out.push_back(task);
    return out;
  }

 private:
  std::vector<std::pair<TaskId, std::uint64_t>> live_;
  std::size_t pos_ = 0;
  std::uint64_t resetGen_ = 0;
  std::size_t rebuilds_ = 0;
};

/// The journal bound BatchQueue promises after every mutation.
std::size_t journalBound(const BatchQueue& queue) {
  return std::max(BatchQueue::kJournalFloor, 2 * queue.size());
}

std::vector<TaskId> liveOf(const BatchQueue& queue) {
  std::vector<TaskId> out;
  queue.forEachLive(
      [&](TaskId task, std::uint64_t) { out.push_back(task); });
  return out;
}

void checkAgreement(const BatchQueue& queue, const NaiveQueue& model,
                    JournalConsumer& consumer, const std::vector<TaskId>& all,
                    std::mt19937_64& rng) {
  ASSERT_EQ(queue.size(), model.size());
  ASSERT_EQ(queue.empty(), model.size() == 0);
  ASSERT_EQ(queue.anyDeferredThisEvent(), model.anyDeferredThisEvent());
  ASSERT_LE(queue.journalSize(), journalBound(queue));
  ASSERT_EQ(liveOf(queue), model.live());
  std::vector<TaskId> candidates;
  queue.liveCandidates(candidates);
  ASSERT_EQ(candidates, model.candidates());
  consumer.sync(queue);
  ASSERT_EQ(consumer.liveTasks(), model.live());

  // Point queries on a random sample of every task ever created.
  for (int probe = 0; probe < 8 && !all.empty(); ++probe) {
    const TaskId task = all[rng() % all.size()];
    ASSERT_EQ(queue.contains(task), model.contains(task)) << task;
    ASSERT_EQ(queue.deferredThisEvent(task), model.deferredThisEvent(task))
        << task;
    if (model.contains(task)) {
      ASSERT_EQ(queue.arrivalSeq(task), model.arrivalSeq(task)) << task;
    }
  }
}

class BatchQueueModelCheck : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BatchQueueModelCheck, RandomOpSequencesMatchNaiveReference) {
  std::mt19937_64 rng(GetParam());
  BatchQueue queue;
  NaiveQueue model;
  JournalConsumer consumer;
  std::vector<TaskId> all;   // every id ever pushed (probe pool)
  std::vector<TaskId> live;  // ids currently in the queue
  TaskId nextId = 0;

  constexpr int kOps = 10000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t roll = rng() % 100;
    if (roll < 40 || live.empty()) {
      const TaskId id = nextId++;
      queue.push(id);
      model.push(id);
      all.push_back(id);
      live.push_back(id);
    } else if (roll < 65) {
      const std::size_t pick = rng() % live.size();
      const TaskId id = live[pick];
      queue.remove(id);
      model.remove(id);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    } else if (roll < 85) {
      const TaskId id = live[rng() % live.size()];
      queue.markDeferred(id);
      model.markDeferred(id);
    } else if (roll < 99) {
      queue.beginEvent();
      model.beginEvent();
    } else {
      queue.clear();
      model.clear();
      live.clear();
    }
    // Full-state agreement every 64 ops (keeps the test O(ops * probes)),
    // cheap point agreement every op.
    if (op % 64 == 0) {
      checkAgreement(queue, model, consumer, all, rng);
      if (::testing::Test::HasFatalFailure()) return;
    } else {
      ASSERT_EQ(queue.size(), model.size()) << "op " << op;
    }
  }
  checkAgreement(queue, model, consumer, all, rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchQueueModelCheck,
                         ::testing::Values(1u, 2u, 3u, 0xfeedfaceu));

TEST(BatchQueueTest, DeferralMarksSurviveCompaction) {
  // Force the tombstone compaction (live < half, >= 16 entries) while a
  // deferral mark is outstanding in the current event: the mark must
  // survive the entry moves.
  BatchQueue queue;
  for (TaskId id = 0; id < 32; ++id) queue.push(id);
  queue.beginEvent();
  queue.markDeferred(30);
  for (TaskId id = 0; id < 24; ++id) queue.remove(id);  // triggers compact
  EXPECT_EQ(queue.size(), 8u);
  EXPECT_TRUE(queue.deferredThisEvent(30));
  EXPECT_FALSE(queue.deferredThisEvent(31));
  std::vector<TaskId> candidates;
  queue.liveCandidates(candidates);
  EXPECT_EQ(candidates, (std::vector<TaskId>{24, 25, 26, 27, 28, 29, 31}));
  queue.beginEvent();
  EXPECT_FALSE(queue.deferredThisEvent(30));  // expired in O(1)
}

TEST(BatchQueueTest, JournalStaysBoundedAndConsumersResync) {
  // A long trial with a shallow queue: 40,000 push/remove pairs around ~50
  // live tasks and no clear().  The journal must drop its history once it
  // outgrows max(kJournalFloor, 2 x live) - never holding more - and a
  // consumer syncing every few mutations must still see the live set.
  std::mt19937_64 rng(11);
  BatchQueue queue;
  NaiveQueue model;
  JournalConsumer consumer;
  std::vector<TaskId> live;
  TaskId nextId = 0;
  const std::uint64_t firstGen = queue.resetGeneration();
  std::size_t mutations = 0;
  for (int op = 0; op < 80000; ++op) {
    if (live.size() < 50 || (live.size() < 60 && rng() % 2 == 0)) {
      queue.push(nextId);
      model.push(nextId);
      live.push_back(nextId++);
    } else {
      const std::size_t pick = rng() % live.size();
      queue.remove(live[pick]);
      model.remove(live[pick]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ++mutations;
    ASSERT_LE(queue.journalSize(), journalBound(queue)) << "op " << op;
    if (op % 7 == 0) {
      consumer.sync(queue);
      ASSERT_EQ(consumer.liveTasks(), model.live()) << "op " << op;
    }
  }
  // The history was dropped about once per kJournalFloor mutations, so each
  // consumer rebuild (O(live)) is paid for by that many mutations.
  const std::uint64_t drops = queue.resetGeneration() - firstGen;
  EXPECT_GE(drops, mutations / (BatchQueue::kJournalFloor + 1));
  EXPECT_LE(drops, mutations / BatchQueue::kJournalFloor);
  EXPECT_EQ(consumer.rebuilds(), drops);
}

TEST(BatchQueueTest, DeepQueueRaisesTheJournalBound) {
  // With more than kJournalFloor / 2 live tasks, the bound is 2 x live: the
  // journal keeps every mutation since the last drop up to that many.
  BatchQueue queue;
  const auto deep = static_cast<TaskId>(BatchQueue::kJournalFloor);
  for (TaskId id = 0; id < deep; ++id) queue.push(id);
  // kJournalFloor pushes fit under max(kJournalFloor, 2 x live).
  EXPECT_EQ(queue.journalSize(), BatchQueue::kJournalFloor);
  const std::uint64_t gen = queue.resetGeneration();
  for (TaskId id = deep; id < 2 * deep; ++id) queue.push(id);
  EXPECT_EQ(queue.resetGeneration(), gen);
  EXPECT_EQ(queue.journalSize(), 2 * BatchQueue::kJournalFloor);
  // Removals grow the journal and shrink the bound: with 2048 + r entries
  // against 2 x (2048 - r) the journal outgrows it at the 683rd removal.
  TaskId removed = 0;
  while (queue.resetGeneration() == gen) {
    ASSERT_LE(queue.journalSize(), journalBound(queue));
    queue.remove(removed++);
  }
  EXPECT_EQ(removed, 683);
  EXPECT_EQ(queue.journalSize(), 0u);
  EXPECT_EQ(queue.size(), 2 * BatchQueue::kJournalFloor - 683);
}

TEST(BatchQueueTest, AnyDeferredFlagFollowsTheEvent) {
  BatchQueue queue;
  for (TaskId id = 0; id < 4; ++id) queue.push(id);
  queue.beginEvent();
  EXPECT_FALSE(queue.anyDeferredThisEvent());
  queue.markDeferred(2);
  EXPECT_TRUE(queue.anyDeferredThisEvent());
  // A deferred task leaving the queue keeps the flag (it is conservative).
  queue.remove(2);
  EXPECT_TRUE(queue.anyDeferredThisEvent());
  queue.beginEvent();
  EXPECT_FALSE(queue.anyDeferredThisEvent());
  queue.markDeferred(1);
  queue.clear();
  EXPECT_FALSE(queue.anyDeferredThisEvent());
}

TEST(BatchQueueTest, JournalCarriesSeqsAcrossRemovalAndReuse) {
  BatchQueue queue;
  queue.push(5);
  queue.push(9);
  queue.remove(5);
  queue.push(5);  // same task id, new arrival seq
  ASSERT_EQ(queue.journalSize(), 4u);
  EXPECT_EQ(queue.journalAt(0).op, BatchQueue::JournalEntry::Op::Push);
  EXPECT_EQ(queue.journalAt(0).seq, 0u);
  EXPECT_EQ(queue.journalAt(2).op, BatchQueue::JournalEntry::Op::Remove);
  EXPECT_EQ(queue.journalAt(2).seq, 0u);
  EXPECT_EQ(queue.journalAt(3).seq, 2u);
  EXPECT_EQ(queue.arrivalSeq(5), 2u);
  // Iteration order is arrival order of the *current* entries.
  std::vector<TaskId> liveNow;
  queue.forEachLive(
      [&](TaskId task, std::uint64_t) { liveNow.push_back(task); });
  EXPECT_EQ(liveNow, (std::vector<TaskId>{9, 5}));
}

}  // namespace
