// Tests for the discrete-event simulator substrate: tasks, machines with
// PCT tracking (Eq. 1), the event queue, and trial metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "prob/arena.h"
#include "prob/pmf.h"
#include "prob/rng.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "test_util.h"

namespace {

using hcs::prob::DiscretePmf;
using hcs::sim::EventKind;
using hcs::sim::EventQueue;
using hcs::sim::kInvalidTask;
using hcs::sim::Machine;
using hcs::sim::Metrics;
using hcs::sim::Task;
using hcs::sim::TaskPool;
using hcs::sim::TaskStatus;
using hcs::testutil::FakeModel;

// --- Task / TaskPool ---------------------------------------------------------

TEST(TaskTest, PoolAssignsSequentialIds) {
  TaskPool pool;
  const auto a = pool.create(0, 1.0, 5.0);
  const auto b = pool.create(1, 2.0, 6.0);
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(pool.slotCount(), 2u);
  EXPECT_EQ(pool[b].type, 1);
  EXPECT_DOUBLE_EQ(pool[b].arrival, 2.0);
}

TEST(TaskTest, MissedDeadlineIsStrict) {
  TaskPool pool;
  const auto id = pool.create(0, 0.0, 5.0);
  EXPECT_FALSE(pool[id].missedDeadline(4.9));
  EXPECT_FALSE(pool[id].missedDeadline(5.0));
  EXPECT_TRUE(pool[id].missedDeadline(5.1));
}

TEST(TaskTest, TerminalClassification) {
  using hcs::sim::isTerminal;
  EXPECT_FALSE(isTerminal(TaskStatus::Created));
  EXPECT_FALSE(isTerminal(TaskStatus::Batched));
  EXPECT_FALSE(isTerminal(TaskStatus::Queued));
  EXPECT_FALSE(isTerminal(TaskStatus::Running));
  EXPECT_TRUE(isTerminal(TaskStatus::CompletedOnTime));
  EXPECT_TRUE(isTerminal(TaskStatus::CompletedLate));
  EXPECT_TRUE(isTerminal(TaskStatus::DroppedReactive));
  EXPECT_TRUE(isTerminal(TaskStatus::DroppedProactive));
}

TEST(TaskTest, StatusNamesAreDistinct) {
  EXPECT_EQ(hcs::sim::toString(TaskStatus::Running), "Running");
  EXPECT_EQ(hcs::sim::toString(TaskStatus::DroppedProactive),
            "DroppedProactive");
}

// --- EventQueue --------------------------------------------------------------

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.push(5.0, EventKind::TaskArrival, 1);
  q.push(2.0, EventKind::TaskArrival, 2);
  q.push(8.0, EventKind::TaskCompletion, 3, 0);
  EXPECT_EQ(q.pop().task, 2);
  EXPECT_EQ(q.pop().task, 1);
  const auto e = q.pop();
  EXPECT_EQ(e.task, 3);
  EXPECT_EQ(e.machine, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, BreaksTimeTiesByInsertionOrder) {
  EventQueue q;
  q.push(3.0, EventKind::TaskArrival, 10);
  q.push(3.0, EventKind::TaskArrival, 11);
  q.push(3.0, EventKind::TaskArrival, 12);
  EXPECT_EQ(q.pop().task, 10);
  EXPECT_EQ(q.pop().task, 11);
  EXPECT_EQ(q.pop().task, 12);
}

TEST(EventQueueTest, CancelledEventsAreSkipped) {
  EventQueue q;
  const auto seq = q.nextSeq();
  q.push(1.0, EventKind::TaskCompletion, 1, 0);
  q.push(2.0, EventKind::TaskArrival, 2);
  q.cancel(seq);
  EXPECT_EQ(q.pop().task, 2);
  EXPECT_FALSE(q.tryPop().has_value());
}

TEST(EventQueueTest, TryPopOnAllCancelledReturnsNullopt) {
  EventQueue q;
  const auto seq = q.nextSeq();
  q.push(1.0, EventKind::TaskCompletion, 1, 0);
  q.cancel(seq);
  EXPECT_FALSE(q.tryPop().has_value());
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueueTest, CancelRemovesTheEntryEagerly) {
  EventQueue q;
  const auto seq = q.nextSeq();
  q.push(1.0, EventKind::TaskCompletion, 1, 0);
  q.cancel(seq);
  // The entry left the heap at cancel time: no tombstone survives to be
  // consumed by a later pop.
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(q.tryPop().has_value());
  q.push(2.0, EventKind::TaskArrival, 2);
  EXPECT_EQ(q.pop().task, 2);
}

TEST(EventQueueTest, CancelUnknownSeqIsHarmless) {
  EventQueue q;
  q.push(1.0, EventKind::TaskArrival, 1);
  q.cancel(9999);  // never pushed
  q.cancel(9999);  // and twice — duplicate cancellations collapse
  EXPECT_EQ(q.pop().task, 1);  // real events keep flowing
  EXPECT_FALSE(q.tryPop().has_value());
  // A stray seq records nothing, so it can never suppress a future event.
  const auto futureSeq = q.nextSeq();
  q.cancel(futureSeq);
  q.push(3.0, EventKind::TaskArrival, 7);
  EXPECT_EQ(q.pop().task, 7);
}

TEST(EventQueueTest, DoubleCancelOfOneEventSkipsItOnce) {
  EventQueue q;
  const auto seq = q.nextSeq();
  q.push(1.0, EventKind::TaskCompletion, 1, 0);
  q.cancel(seq);
  q.cancel(seq);
  q.push(2.0, EventKind::TaskArrival, 2);
  EXPECT_EQ(q.pop().task, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, DrainAllWithInterleavedCancellations) {
  EventQueue q;
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 20; ++i) {
    seqs.push_back(q.nextSeq());
    q.push(static_cast<double>(20 - i), EventKind::TaskArrival, i);
  }
  // Cancel every third event.
  for (std::size_t i = 0; i < seqs.size(); i += 3) q.cancel(seqs[i]);
  std::vector<hcs::sim::TaskId> popped;
  while (auto e = q.tryPop()) popped.push_back(e->task);
  EXPECT_EQ(popped.size(), 13u);
  // Earliest time first = highest task id first (times were descending),
  // with multiples of three missing.
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_GT(popped[i - 1], popped[i]);
  }
  for (hcs::sim::TaskId id : popped) EXPECT_NE(id % 3, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, TopSkipsNothingAfterCancellingTheEarliest) {
  EventQueue q;
  const auto seq = q.nextSeq();
  q.push(1.0, EventKind::TaskCompletion, 1, 0);
  q.push(2.0, EventKind::TaskArrival, 2);
  EXPECT_EQ(q.top().task, 1);
  q.cancel(seq);
  // In-place removal repairs the heap immediately: top() is always live.
  EXPECT_EQ(q.top().task, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RandomizedPushPopCancelMatchesSortedOrder) {
  // Model check against the (time, seq) contract: interleave pushes, pops,
  // and cancellations driven by a deterministic LCG, mirroring the queue
  // into a plain vector, and require the pop sequences to agree exactly.
  EventQueue q;
  std::vector<hcs::sim::Event> alive;  // mirror of live events
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto nextRand = [&rng]() {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  for (int step = 0; step < 4000; ++step) {
    const auto r = nextRand() % 100;
    if (r < 55 || q.empty()) {
      // Coarse times force (time, seq) ties often.
      const auto time = static_cast<double>(nextRand() % 16);
      const auto seq = q.nextSeq();
      q.push(time, EventKind::TaskArrival,
             static_cast<hcs::sim::TaskId>(step));
      alive.push_back(hcs::sim::Event{time, EventKind::TaskArrival,
                                      static_cast<hcs::sim::TaskId>(step),
                                      hcs::sim::kInvalidMachine, seq});
    } else if (r < 80) {
      const auto expect = std::min_element(
          alive.begin(), alive.end(), [](const auto& a, const auto& b) {
            return a.time != b.time ? a.time < b.time : a.seq < b.seq;
          });
      const hcs::sim::Event got = q.pop();
      EXPECT_EQ(got.seq, expect->seq);
      EXPECT_EQ(got.task, expect->task);
      alive.erase(expect);
    } else {
      // Cancel a random live event (sometimes a stale/future seq).
      const auto target = nextRand() % (alive.size() + 2);
      if (target < alive.size()) {
        q.cancel(alive[target].seq);
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(target));
      } else {
        q.cancel(q.nextSeq() + nextRand() % 7);
      }
    }
    ASSERT_EQ(q.size(), alive.size());
  }
  std::vector<std::uint64_t> seqs;
  while (auto e = q.tryPop()) seqs.push_back(e->seq);
  std::sort(alive.begin(), alive.end(), [](const auto& a, const auto& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  });
  ASSERT_EQ(seqs.size(), alive.size());
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], alive[i].seq);
  }
}

// --- Machine: dispatch / completion lifecycle --------------------------------

FakeModel twoTypeModel() {
  // Type 0 runs in 4 units, type 1 in 2 units on the single machine.
  return FakeModel::deterministic({{4.0}, {2.0}});
}

TEST(MachineTest, DispatchToIdleMachineStartsImmediately) {
  TaskPool pool;
  const auto t = pool.create(0, 0.0, 100.0);
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  EXPECT_TRUE(m.dispatch(t, 0.0, pool, model));
  EXPECT_TRUE(m.busy());
  EXPECT_EQ(m.runningTask(), t);
  EXPECT_EQ(pool[t].status, TaskStatus::Running);
  EXPECT_EQ(m.queueLength(), 0u);
}

TEST(MachineTest, DispatchToBusyMachineQueues) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(1, 0.0, 100.0);
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  EXPECT_FALSE(m.dispatch(b, 0.0, pool, model));
  EXPECT_EQ(pool[b].status, TaskStatus::Queued);
  EXPECT_EQ(m.queueLength(), 1u);
}

TEST(MachineTest, CompleteRunningPromotesFifo) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(1, 0.0, 100.0);
  const auto c = pool.create(1, 0.0, 100.0);
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  m.dispatch(c, 0.0, pool, model);
  const auto promoted = m.completeRunning(4.0, pool, model);
  EXPECT_EQ(promoted, b);
  EXPECT_EQ(pool[b].status, TaskStatus::Running);
  EXPECT_DOUBLE_EQ(pool[b].startTime, 4.0);
  EXPECT_EQ(m.queueLength(), 1u);
  EXPECT_DOUBLE_EQ(m.busyTime(), 4.0);
}

TEST(MachineTest, CompleteOnIdleThrows) {
  TaskPool pool;
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  EXPECT_THROW(m.completeRunning(1.0, pool, model), std::logic_error);
}

TEST(MachineTest, RemoveQueuedDropsOnlyQueuedTasks) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(1, 0.0, 100.0);
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  m.removeQueued(b, 0.0, pool, model);
  EXPECT_EQ(m.queueLength(), 0u);
  // The running task cannot be removed this way.
  EXPECT_THROW(m.removeQueued(a, 0.0, pool, model), std::logic_error);
}

TEST(MachineTest, AbortRunningLeavesQueueForTheScheduler) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(1, 0.0, 100.0);
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  m.abortRunning(2.0, pool, model);
  // No automatic promotion: the scheduler's pruning passes inspect the
  // queue head before startNextIfIdle() runs it.
  EXPECT_FALSE(m.busy());
  EXPECT_EQ(m.queueLength(), 1u);
  EXPECT_DOUBLE_EQ(m.busyTime(), 2.0);
  EXPECT_EQ(m.startNextIfIdle(2.0, pool, model), b);
  EXPECT_EQ(m.runningTask(), b);
}

TEST(MachineTest, FinishThenStartNextSplitsCompletion) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(1, 0.0, 100.0);
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  m.finishRunning(4.0, pool, model);
  EXPECT_FALSE(m.busy());
  EXPECT_EQ(m.queueLength(), 1u);
  // A dispatch to a transiently idle machine must respect FIFO: the new
  // task queues behind b rather than jumping ahead.
  const auto c = pool.create(1, 4.0, 100.0);
  EXPECT_FALSE(m.dispatch(c, 4.0, pool, model));
  EXPECT_EQ(m.startNextIfIdle(4.0, pool, model), b);
  // Idle with empty queue: startNextIfIdle is a no-op.
  Machine idle(1, 1.0);
  EXPECT_EQ(idle.startNextIfIdle(0.0, pool, model), hcs::sim::kInvalidTask);
}

// --- Machine: PCT tracking (Eq. 1) -------------------------------------------

// A start at the instant the idle tail was built keeps that tail: [1] ⊛ Q0
// and Q0 conditioned on zero elapsed execution are the same PMF bit for bit
// when Q0 has no mass at bin 0.  The reference machine (eager rebuild on
// every mutation) re-derives the chain at the start; the lazy one must end
// up with identical bits, and must rebuild when Q0 starts at bin 0.
TEST(MachinePctTest, SameInstantStartKeepsTheIdleTailBitForBit) {
  hcs::prob::Rng rng(31);
  auto randomPet = [&](std::int64_t first) {
    std::vector<double> probs(static_cast<std::size_t>(rng.uniformInt(1, 40)));
    for (double& p : probs) p = rng.uniform(0.01, 1.0);
    return DiscretePmf(first, std::move(probs), 0.5);
  };
  hcs::prob::PmfArena& arena = hcs::prob::PmfArena::local();
  int kept = 0;
  for (int c = 0; c < 60; ++c) {
    // Type 0 is the head that starts; half the cases give it mass at bin 0.
    const bool zeroFirst = c % 2 == 1;
    const FakeModel model({{randomPet(zeroFirst ? 0 : rng.uniformInt(1, 5))},
                           {randomPet(rng.uniformInt(0, 5))},
                           {randomPet(rng.uniformInt(0, 5))}});
    const double now = 3.0 + 0.25 * static_cast<double>(c % 4);
    TaskPool pool;
    Machine lazy(0, 0.5, /*trackTail=*/true, /*lazyTailRebuild=*/true);
    Machine eager(0, 0.5, /*trackTail=*/true, /*lazyTailRebuild=*/false);
    for (Machine* m : {&lazy, &eager}) {
      m->dispatch(pool.create(1, 0.0, 100.0), 0.0, pool, model);  // runs
      m->dispatch(pool.create(0, 0.0, 100.0), 0.0, pool, model);
      m->dispatch(pool.create(2, 0.0, 100.0), 0.0, pool, model);
      m->finishRunning(now, pool, model);
      (void)m->tailPctRef(pool, model);  // the idle tail, built at `now`
      // A lazy append after the build rides along either way.
      if (c % 3 == 0) m->dispatch(pool.create(1, now, 100.0), now, pool, model);
    }
    const std::uint64_t epoch = lazy.queueEpoch();
    const std::uint64_t acquires = arena.stats().acquires;
    ASSERT_NE(lazy.startNextIfIdle(now, pool, model), kInvalidTask);
    const DiscretePmf& got = lazy.tailPctRef(pool, model);
    const bool rebuilt = arena.stats().acquires != acquires;
    ASSERT_NE(eager.startNextIfIdle(now, pool, model), kInvalidTask);
    const DiscretePmf& want = eager.tailPctRef(pool, model);
    EXPECT_GT(lazy.queueEpoch(), epoch);
    ASSERT_EQ(got.firstBin(), want.firstBin()) << "case " << c;
    ASSERT_EQ(got.size(), want.size()) << "case " << c;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(std::memcmp(&got.probs()[i], &want.probs()[i], sizeof(double)),
                0)
          << "case " << c << " bin " << i;
    }
    if (zeroFirst) {
      EXPECT_TRUE(rebuilt) << "case " << c;
    } else if (c % 3 != 0) {
      // The start itself convolved nothing; only the pending append folds.
      EXPECT_FALSE(rebuilt) << "case " << c;
    }
    kept += zeroFirst ? 0 : 1;
  }
  EXPECT_GT(kept, 0);
}

// A later instant, or a tail built while busy, rebuilds as before.
TEST(MachinePctTest, StartAtALaterInstantRebuildsTheTail) {
  const FakeModel model({{DiscretePmf(2, {0.5, 0.5})},
                         {DiscretePmf(1, {0.25, 0.75})}});
  TaskPool pool;
  Machine lazy(0, 1.0);
  Machine eager(0, 1.0, /*trackTail=*/true, /*lazyTailRebuild=*/false);
  for (Machine* m : {&lazy, &eager}) {
    m->dispatch(pool.create(0, 0.0, 100.0), 0.0, pool, model);
    m->dispatch(pool.create(1, 0.0, 100.0), 0.0, pool, model);
    m->dispatch(pool.create(0, 0.0, 100.0), 0.0, pool, model);
    m->finishRunning(2.0, pool, model);
    (void)m->tailPctRef(pool, model);
    ASSERT_NE(m->startNextIfIdle(3.0, pool, model), kInvalidTask);
  }
  EXPECT_EQ(lazy.tailPctRef(pool, model), eager.tailPctRef(pool, model));
  EXPECT_EQ(lazy.tailPctRef(pool, model).firstBin(), 3 + 1 + 2);
}

TEST(MachinePctTest, IdleMachineAvailabilityIsPointMassAtNow) {
  TaskPool pool;
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  const DiscretePmf pct = m.availabilityPct(7.0, pool, model);
  EXPECT_EQ(pct.size(), 1u);
  EXPECT_DOUBLE_EQ(pct.minTime(), 7.0);
}

TEST(MachinePctTest, TailPctOfEmptyMachineIsNow) {
  TaskPool pool;
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  EXPECT_DOUBLE_EQ(m.tailPct(3.0, pool, model).mean(), 3.0);
}

TEST(MachinePctTest, TailPctAccumulatesQueuedWork) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);  // 4 units
  const auto b = pool.create(1, 0.0, 100.0);  // 2 units
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  // Deterministic model: completion of b at 4 + 2 = 6.
  const DiscretePmf tail = m.tailPct(0.0, pool, model);
  EXPECT_DOUBLE_EQ(tail.mean(), 6.0);
}

TEST(MachinePctTest, StochasticTailMatchesEq1Convolution) {
  // Type 0: P(2)=0.5, P(4)=0.5.  Two queued tasks of type 0 dispatched at
  // t=0: completion of the second is the two-fold convolution.
  std::vector<std::vector<DiscretePmf>> pets;
  pets.push_back({DiscretePmf(2, {0.5, 0.0, 0.5})});
  const FakeModel model{std::move(pets)};
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(0, 0.0, 100.0);
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  const DiscretePmf tail = m.tailPct(0.0, pool, model);
  // Sum of two {2 w.p. .5, 4 w.p. .5}: 4 w.p .25, 6 w.p .5, 8 w.p .25.
  EXPECT_EQ(tail.firstBin(), 4);
  EXPECT_EQ(tail.lastBin(), 8);
  EXPECT_NEAR(tail.probs()[0], 0.25, 1e-12);
  EXPECT_NEAR(tail.probs()[2], 0.50, 1e-12);
  EXPECT_NEAR(tail.probs()[4], 0.25, 1e-12);
}

TEST(MachinePctTest, TailBoundsBracketTailPct) {
  std::vector<std::vector<DiscretePmf>> pets;
  pets.push_back({DiscretePmf(2, {0.5, 0.0, 0.5})});
  const FakeModel model{std::move(pets)};
  for (bool trackTail : {true, false}) {
    TaskPool pool;
    const auto a = pool.create(0, 0.0, 100.0);
    const auto b = pool.create(0, 0.0, 100.0);
    const auto c = pool.create(0, 0.0, 100.0);
    Machine m(0, 1.0, trackTail);
    // Empty machine: bounds collapse to the availability point mass.
    EXPECT_EQ(m.tailBounds(3.0, pool, model),
              (std::pair<std::int64_t, std::int64_t>{3, 3}));
    m.dispatch(a, 0.0, pool, model);
    m.dispatch(b, 0.0, pool, model);
    m.dispatch(c, 0.0, pool, model);
    const DiscretePmf tail = m.tailPct(0.0, pool, model);
    auto [lo, hi] = m.tailBounds(0.0, pool, model);
    EXPECT_EQ(lo, tail.firstBin());
    EXPECT_EQ(hi, tail.lastBin());
    // After a completion (dirty tail in the lazy regime), the bounds must
    // still bracket what tailPct would materialize — without forcing the
    // rebuild first.
    m.completeRunning(2.0, pool, model);
    auto [lo2, hi2] = m.tailBounds(2.0, pool, model);
    const DiscretePmf rebuilt = m.tailPct(2.0, pool, model);
    EXPECT_LE(lo2, rebuilt.firstBin());
    EXPECT_GE(hi2, rebuilt.lastBin());
  }
}

TEST(MachinePctTest, RunningTaskAvailabilityIsConditionedOnElapsed) {
  // Type 0: P(2)=0.5, P(4)=0.5.  At t=3 (3 units elapsed) the running task
  // can only be the 4-unit outcome: remaining = 1 unit, so the machine is
  // free at exactly t=4.
  std::vector<std::vector<DiscretePmf>> pets;
  pets.push_back({DiscretePmf(2, {0.5, 0.0, 0.5})});
  const FakeModel model{std::move(pets)};
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  const DiscretePmf avail = m.availabilityPct(3.0, pool, model);
  EXPECT_EQ(avail.size(), 1u);
  EXPECT_DOUBLE_EQ(avail.minTime(), 4.0);
}

TEST(MachinePctTest, DropReducesCompoundUncertainty) {
  // Section II: removing a queued task shortens the convolution chain and
  // tightens the completion distribution of tasks behind it.
  std::vector<std::vector<DiscretePmf>> pets;
  pets.push_back({DiscretePmf(1, {0.25, 0.25, 0.25, 0.25})});
  const FakeModel model{std::move(pets)};
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);
  const auto b = pool.create(0, 0.0, 100.0);
  const auto c = pool.create(0, 0.0, 100.0);
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  m.dispatch(c, 0.0, pool, model);
  const double varBefore = m.tailPct(0.0, pool, model).variance();
  m.removeQueued(b, 0.0, pool, model);
  const double varAfter = m.tailPct(0.0, pool, model).variance();
  EXPECT_LT(varAfter, varBefore);
}

TEST(MachinePctTest, UntrackedTailMatchesTrackedTail) {
  std::vector<std::vector<DiscretePmf>> pets1, pets2;
  pets1.push_back({DiscretePmf(1, {0.5, 0.3, 0.2})});
  pets2.push_back({DiscretePmf(1, {0.5, 0.3, 0.2})});
  const FakeModel model1{std::move(pets1)};
  TaskPool pool1, pool2;
  Machine tracked(0, 1.0, /*trackTail=*/true);
  Machine lazy(0, 1.0, /*trackTail=*/false);
  for (int i = 0; i < 3; ++i) {
    const auto t1 = pool1.create(0, 0.0, 100.0);
    const auto t2 = pool2.create(0, 0.0, 100.0);
    tracked.dispatch(t1, 0.0, pool1, model1);
    lazy.dispatch(t2, 0.0, pool2, model1);
  }
  EXPECT_EQ(tracked.tailPct(0.0, pool1, model1),
            lazy.tailPct(0.0, pool2, model1));
}

TEST(MachinePctTest, ExpectedReadyCombinesRunningAndQueued) {
  TaskPool pool;
  const auto a = pool.create(0, 0.0, 100.0);  // 4 units
  const auto b = pool.create(1, 0.0, 100.0);  // 2 units
  const FakeModel model = twoTypeModel();
  Machine m(0, 1.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);
  EXPECT_DOUBLE_EQ(m.expectedReady(0.0, pool, model), 6.0);
  // At t=1 the running task has 3 units left.
  EXPECT_DOUBLE_EQ(m.expectedReady(1.0, pool, model), 6.0);
  // Idle machine is ready now.
  Machine idle(1, 1.0);
  EXPECT_DOUBLE_EQ(idle.expectedReady(5.0, pool, model), 5.0);
}

TEST(MachineTest, RejectsNonPositiveBinWidth) {
  EXPECT_THROW(Machine(0, 0.0), std::invalid_argument);
  EXPECT_THROW(Machine(0, -1.0), std::invalid_argument);
}

// --- Metrics ------------------------------------------------------------------

Task makeTerminal(hcs::sim::TaskId id, hcs::sim::TaskType type,
                  TaskStatus status) {
  Task t;
  t.id = id;
  t.type = type;
  t.status = status;
  return t;
}

TEST(MetricsTest, CountsTerminalOutcomes) {
  Metrics metrics(2);
  metrics.recordTerminal(makeTerminal(0, 0, TaskStatus::CompletedOnTime));
  metrics.recordTerminal(makeTerminal(1, 0, TaskStatus::CompletedLate));
  metrics.recordTerminal(makeTerminal(2, 1, TaskStatus::DroppedReactive));
  metrics.recordTerminal(makeTerminal(3, 1, TaskStatus::DroppedProactive));
  EXPECT_EQ(metrics.completedOnTime(), 1u);
  EXPECT_EQ(metrics.completedLate(), 1u);
  EXPECT_EQ(metrics.droppedReactive(), 1u);
  EXPECT_EQ(metrics.droppedProactive(), 1u);
  EXPECT_EQ(metrics.countedTasks(), 4u);
  EXPECT_DOUBLE_EQ(metrics.robustnessPercent(), 25.0);
  EXPECT_EQ(metrics.perType()[0].completedOnTime, 1u);
  EXPECT_EQ(metrics.perType()[1].droppedProactive, 1u);
}

TEST(MetricsTest, RejectsNonTerminalTasks) {
  Metrics metrics(1);
  EXPECT_THROW(metrics.recordTerminal(makeTerminal(0, 0, TaskStatus::Running)),
               std::logic_error);
}

TEST(MetricsTest, OnlineCountingExcludesWarmupTasks) {
  // Margin 1 over four arrivals: ordinal 0 is warm-up, 3 is cool-down.
  std::uint64_t created = 4;
  Metrics metrics(1);
  metrics.enableOnlineCounting(1, &created);
  Task t = makeTerminal(0, 0, TaskStatus::CompletedOnTime);
  metrics.recordTerminal(t);
  t = makeTerminal(1, 0, TaskStatus::CompletedOnTime);
  t.ordinal = 1;
  metrics.recordTerminal(t);
  t = makeTerminal(2, 0, TaskStatus::DroppedReactive);
  t.ordinal = 2;
  metrics.recordTerminal(t);
  metrics.endStreamCounting();
  EXPECT_EQ(metrics.terminalCount(), 3u);
  EXPECT_EQ(metrics.countedTasks(), 2u);
  EXPECT_DOUBLE_EQ(metrics.robustnessPercent(), 50.0);
}

TEST(MetricsTest, WeightedRobustnessCountsValues) {
  Metrics metrics(1);
  Task cheap = makeTerminal(0, 0, TaskStatus::DroppedReactive);
  cheap.value = 1.0;
  Task premium = makeTerminal(1, 0, TaskStatus::CompletedOnTime);
  premium.value = 4.0;
  metrics.recordTerminal(cheap);
  metrics.recordTerminal(premium);
  EXPECT_DOUBLE_EQ(metrics.robustnessPercent(), 50.0);
  EXPECT_DOUBLE_EQ(metrics.weightedRobustnessPercent(), 80.0);
}

/// Whether a lone terminal with `ordinal` counts in a trial of `total`
/// arrivals under warm-up margin `margin`.
bool countedAlone(std::uint64_t ordinal, std::uint64_t total,
                  std::size_t margin) {
  std::uint64_t created = total;
  Metrics metrics(1);
  metrics.enableOnlineCounting(margin, &created);
  Task t = makeTerminal(static_cast<hcs::sim::TaskId>(ordinal), 0,
                        TaskStatus::CompletedOnTime);
  t.ordinal = ordinal;
  metrics.recordTerminal(t);
  metrics.endStreamCounting();
  return metrics.countedTasks() == 1;
}

TEST(MetricsTest, OnlineCountingTrimsBothEnds) {
  EXPECT_FALSE(countedAlone(0, 50, 5));
  EXPECT_FALSE(countedAlone(4, 50, 5));
  EXPECT_TRUE(countedAlone(5, 50, 5));
  EXPECT_TRUE(countedAlone(44, 50, 5));
  EXPECT_FALSE(countedAlone(45, 50, 5));
  EXPECT_FALSE(countedAlone(49, 50, 5));
}

TEST(MetricsTest, OnlineCountingOfAShortTrialCountsNothing) {
  // A trial of at most 2 x margin arrivals is all warm-up and cool-down.
  for (std::uint64_t total : {10u, 9u}) {
    for (std::uint64_t ordinal = 0; ordinal < total; ++ordinal) {
      EXPECT_FALSE(countedAlone(ordinal, total, 5))
          << ordinal << " of " << total;
    }
  }
  EXPECT_TRUE(countedAlone(5, 11, 5));
}

TEST(MetricsTest, EmptyMetricsHasZeroRobustness) {
  Metrics metrics(1);
  EXPECT_DOUBLE_EQ(metrics.robustnessPercent(), 0.0);
  EXPECT_THROW(Metrics(0), std::invalid_argument);
}

}  // namespace
