// Tests for the PCT cache: memoized append convolutions, lazy queue-chain
// prefixes, hit/invalidate-on-epoch-bump semantics, certified Eq. 2
// decisions, the remaining-mean table, and end-to-end equivalence of cached
// vs uncached simulation on one cluster and on a federation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "core/simulation.h"
#include "exp/experiment.h"
#include "exp/scenario.h"
#include "exp/scenario_spec.h"
#include "heuristics/context.h"
#include "heuristics/pct_cache.h"
#include "prob/pmf.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "test_util.h"
#include "trial_compare.h"
#include "util/json.h"

namespace {

using hcs::heuristics::PctCache;
using hcs::prob::DiscretePmf;
using hcs::sim::Machine;
using hcs::sim::TaskPool;
using hcs::testutil::FakeModel;
using hcs::testutil::expectIdenticalTrials;

FakeModel twoTypeModel() {
  // Two task types, one machine; PMFs with some spread so convolutions are
  // non-trivial.
  return FakeModel({
      {DiscretePmf(2, {0.5, 0.5})},
      {DiscretePmf(3, {0.25, 0.5, 0.25})},
  });
}

// --- Machine queue epoch -----------------------------------------------------

TEST(QueueEpochTest, BumpsOnEveryMutation) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  const auto e0 = m.queueEpoch();

  const auto a = pool.create(0, 0.0, 50.0);
  const auto b = pool.create(1, 0.0, 50.0);
  const auto c = pool.create(0, 0.0, 50.0);
  m.dispatch(a, 0.0, pool, model);
  const auto e1 = m.queueEpoch();
  EXPECT_GT(e1, e0);

  m.dispatch(b, 1.0, pool, model);
  m.dispatch(c, 1.0, pool, model);
  const auto e2 = m.queueEpoch();
  EXPECT_GT(e2, e1);

  m.removeQueued(c, 2.0, pool, model);
  const auto e3 = m.queueEpoch();
  EXPECT_GT(e3, e2);

  m.finishRunning(3.0, pool, model);
  const auto e4 = m.queueEpoch();
  EXPECT_GT(e4, e3);

  m.startNextIfIdle(3.0, pool, model);
  const auto e5 = m.queueEpoch();
  EXPECT_GT(e5, e4);

  m.abortRunning(4.0, pool, model);
  EXPECT_GT(m.queueEpoch(), e5);
}

/// `expected` as the cache answers it: `chanceAt(t)` equals expected's CDF
/// at every bin edge of expected's support and one bin past it — the PMF
/// equality, asked the way the pruning passes ask it.
template <class ChanceAt>
void expectSameCdf(const ChanceAt& chanceAt, const DiscretePmf& expected) {
  for (std::int64_t b = expected.firstBin(); b <= expected.lastBin() + 1;
       ++b) {
    const double t = static_cast<double>(b) * expected.binWidth();
    EXPECT_EQ(chanceAt(t), expected.cdf(t)) << "bin edge " << t;
  }
}

// --- appendChance ------------------------------------------------------------

TEST(PctCacheTest, AppendChanceMatchesUncachedComputation) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  const auto a = pool.create(0, 0.0, 50.0);
  const auto b = pool.create(1, 0.0, 50.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);

  for (hcs::sim::TaskType type : {0, 1}) {
    const DiscretePmf expected =
        m.tailPct(5.0, pool, model).convolve(model.pet(type, 0));
    expectSameCdf(
        [&](double t) {
          return cache.appendChance(m, 5.0, pool, model, type, t);
        },
        expected);
    EXPECT_DOUBLE_EQ(cache.appendChance(m, 5.0, pool, model, type, 9.0),
                     expected.successProbability(9.0));
  }
}

TEST(PctCacheTest, SecondLookupIsAHit) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);

  cache.appendChance(m, 1.0, pool, model, 0, 50.0);
  EXPECT_EQ(cache.stats().appendMisses, 1u);
  EXPECT_EQ(cache.stats().appendHits, 0u);

  cache.appendChance(m, 1.0, pool, model, 0, 50.0);
  EXPECT_EQ(cache.stats().appendMisses, 1u);
  EXPECT_EQ(cache.stats().appendHits, 1u);

  // A different type misses (separate convolution), then hits.
  cache.appendChance(m, 1.0, pool, model, 1, 50.0);
  cache.appendChance(m, 1.0, pool, model, 1, 50.0);
  EXPECT_EQ(cache.stats().appendMisses, 2u);
  EXPECT_EQ(cache.stats().appendHits, 2u);
}

TEST(PctCacheTest, EpochBumpInvalidates) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);
  cache.appendChance(m, 1.0, pool, model, 0, 50.0);
  cache.appendChance(m, 1.0, pool, model, 0, 50.0);
  EXPECT_EQ(cache.stats().appendHits, 1u);

  // Mutating the machine bumps the epoch; the next lookup must recompute
  // against the new queue state.
  m.dispatch(pool.create(1, 0.0, 50.0), 1.0, pool, model);
  const DiscretePmf expected =
      m.tailPct(1.0, pool, model).convolve(model.pet(0, 0));
  cache.appendChance(m, 1.0, pool, model, 0, 50.0);
  EXPECT_EQ(cache.stats().appendMisses, 2u);
  EXPECT_EQ(cache.stats().appendHits, 1u);
  expectSameCdf(
      [&](double t) { return cache.appendChance(m, 1.0, pool, model, 0, t); },
      expected);
}

TEST(PctCacheTest, UntrackedMachineUsesElapsedBinKey) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  // trackTail off — the immediate-mode configuration.
  Machine m(0, 1.0, /*trackTail=*/false);
  PctCache cache;

  const auto a = pool.create(0, 0.0, 50.0);
  const auto b = pool.create(1, 0.0, 50.0);
  m.dispatch(a, 0.0, pool, model);
  m.dispatch(b, 0.0, pool, model);

  const DiscretePmf atOne =
      m.tailPct(1.0, pool, model).convolve(model.pet(0, 0));
  cache.appendChance(m, 1.0, pool, model, 0, 50.0);

  // Same elapsed bin, same epoch: hit even though `now` moved within the
  // bin... (bin width 1.0, so 1.4 stays in elapsed bin 1).
  cache.appendChance(m, 1.4, pool, model, 0, 50.0);
  EXPECT_EQ(cache.stats().appendHits, 1u);
  expectSameCdf(
      [&](double t) { return cache.appendChance(m, 1.0, pool, model, 0, t); },
      atOne);

  // Crossing into the next elapsed bin re-conditions the chain.
  const DiscretePmf atTwo =
      m.tailPct(2.0, pool, model).convolve(model.pet(0, 0));
  cache.appendChance(m, 2.0, pool, model, 0, 50.0);
  EXPECT_EQ(cache.stats().appendMisses, 2u);
  expectSameCdf(
      [&](double t) { return cache.appendChance(m, 2.0, pool, model, 0, t); },
      atTwo);
}

// --- chainPrefix -------------------------------------------------------------

TEST(PctCacheTest, ChainPrefixesMatchManualChain) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);  // runs
  m.dispatch(pool.create(1, 0.0, 50.0), 0.0, pool, model);  // queued
  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);  // queued
  const std::int64_t anchor = PctCache::anchorBin(m, 2.0);

  // The prefix through queued task i is queued task i's PCT (copies: a
  // prefix reference lives only until the next call).
  const DiscretePmf first = cache.chainPrefix(m, 2.0, pool, model, 1);
  const DiscretePmf second = cache.chainPrefix(m, 2.0, pool, model, 2);
  ASSERT_EQ(m.queueLength(), 2u);

  DiscretePmf acc = m.availabilityPct(2.0, pool, model);
  acc = acc.convolve(model.pet(1, 0));
  expectSameCdf([&](double t) { return first.cdfShiftedBy(anchor, t); }, acc);
  acc = acc.convolve(model.pet(0, 0));
  expectSameCdf([&](double t) { return second.cdfShiftedBy(anchor, t); },
                acc);

  // One prefix lookup per queued task; each first lookup extends the chain.
  EXPECT_EQ(cache.stats().chainHits, 0u);
  EXPECT_EQ(cache.stats().chainMisses, 2u);

  // Same epoch + elapsed bin: both prefixes hit.
  cache.chainPrefix(m, 2.0, pool, model, 1);
  cache.chainPrefix(m, 2.0, pool, model, 2);
  EXPECT_EQ(cache.stats().chainHits, 2u);
  EXPECT_EQ(cache.stats().chainMisses, 2u);

  // Queue mutation invalidates.
  m.removeQueued(2, 2.0, pool, model);  // drops the type-0 task at the back
  ASSERT_EQ(m.queueLength(), 1u);
  const DiscretePmf after = cache.chainPrefix(m, 2.0, pool, model, 1);
  expectSameCdf([&](double t) { return after.cdfShiftedBy(anchor, t); },
                m.availabilityPct(2.0, pool, model).convolve(model.pet(1, 0)));
  EXPECT_EQ(cache.stats().chainMisses, 3u);
}

// Position n's prefix is the PCT of the task n-1 places behind the running
// one; position 0 is the running task's availability PCT.
TEST(PctCacheTest, ChainPrefixesAlignWithQueuePositions) {
  std::vector<std::vector<DiscretePmf>> pets;
  pets.push_back({DiscretePmf::pointMass(3.0)});
  const FakeModel model{std::move(pets)};
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;
  for (int i = 0; i < 3; ++i) {
    m.dispatch(pool.create(0, 0.0, 100.0), 0.0, pool, model);
  }
  // [running, q0, q1]: completions at 3, 6, 9.
  ASSERT_EQ(m.queueLength() + (m.busy() ? 1u : 0u), 3u);
  EXPECT_DOUBLE_EQ(m.availabilityPct(0.0, pool, model).mean(), 3.0);
  const std::int64_t anchor = PctCache::anchorBin(m, 0.0);
  const auto prefixMean = [&](std::size_t n) {
    return cache.chainPrefix(m, 0.0, pool, model, n).shifted(anchor).mean();
  };
  EXPECT_DOUBLE_EQ(prefixMean(0), 3.0);
  EXPECT_DOUBLE_EQ(prefixMean(1), 6.0);
  EXPECT_DOUBLE_EQ(prefixMean(2), 9.0);
}

TEST(PctCacheTest, ChainPrefixIsLazyAndSurvivesAnAppend) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);  // runs
  m.dispatch(pool.create(1, 0.0, 50.0), 0.0, pool, model);  // queued

  // Position 0's base is the availability PCT, on the grid relative to now.
  const std::int64_t anchor = PctCache::anchorBin(m, 2.0);
  EXPECT_EQ(cache.chainPrefix(m, 2.0, pool, model, 0).shifted(anchor),
            m.availabilityPct(2.0, pool, model));
  EXPECT_EQ(cache.stats().chainMisses, 1u);

  // A dispatch that appends leaves every prefix valid: the memo adopts the
  // new epoch and the next lookups only extend it.
  const std::uint64_t preEpoch = m.queueEpoch();
  m.dispatch(pool.create(0, 0.0, 50.0), 2.0, pool, model);  // queued
  cache.noteAppend(m, preEpoch);
  cache.chainPrefix(m, 2.0, pool, model, 0);
  EXPECT_EQ(cache.stats().chainHits, 1u);
  const DiscretePmf expected = m.availabilityPct(2.0, pool, model)
                                   .convolve(model.pet(1, 0))
                                   .convolve(model.pet(0, 0));
  EXPECT_EQ(cache.chainPrefix(m, 2.0, pool, model, 2).shifted(anchor),
            expected);
  EXPECT_EQ(cache.stats().chainMisses, 2u);
  cache.chainPrefix(m, 2.0, pool, model, 1);
  EXPECT_EQ(cache.stats().chainHits, 2u);
}

// --- certified Eq. 2 decisions -----------------------------------------------

TEST(PctCacheTest, AppendBelowBarFallsBackOnTheBar) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  Machine m(0, 1.0);
  PctCache cache;

  // Idle machine: appending type 0 gives mass 0.5 at t=2 and 0.5 at t=3,
  // so the chance at deadline 2 is exactly the 0.5 bar — inside the slack.
  ASSERT_EQ(cache.appendChance(m, 0.0, pool, model, 0, 2.0), 0.5);
  cache.resetStats();
  EXPECT_EQ(cache.appendBelowBar(m, 0.0, pool, model, 0, 2.0, 0.5),
            cache.appendChance(m, 0.0, pool, model, 0, 2.0) <= 0.5);
  EXPECT_TRUE(cache.appendBelowBar(m, 0.0, pool, model, 0, 2.0, 0.5));
  EXPECT_EQ(cache.stats().exactFallbacks, 2u);
  EXPECT_EQ(cache.stats().certified, 0u);

  // Away from the bar the estimate decides, with no convolution.
  cache.resetStats();
  EXPECT_FALSE(cache.appendBelowBar(m, 0.0, pool, model, 0, 2.0, 0.4));
  EXPECT_TRUE(cache.appendBelowBar(m, 0.0, pool, model, 0, 1.0, 0.4));
  EXPECT_EQ(cache.stats().certified, 2u);
  EXPECT_EQ(cache.stats().exactFallbacks, 0u);
  EXPECT_EQ(cache.stats().appendMisses + cache.stats().appendHits, 0u);
}

TEST(PctCacheTest, AppendBelowBarMatchesTheExactComparison) {
  FakeModel model = twoTypeModel();
  for (const bool track : {true, false}) {
    TaskPool pool;
    Machine m(0, 1.0, track);
    PctCache cache;
    m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);  // runs
    m.dispatch(pool.create(1, 0.0, 50.0), 0.0, pool, model);  // queued
    m.dispatch(pool.create(0, 0.0, 50.0), 0.0, pool, model);  // queued
    for (hcs::sim::TaskType type : {0, 1}) {
      for (double deadline = 0.0; deadline <= 14.0; deadline += 0.5) {
        const double chance =
            cache.appendChance(m, 1.0, pool, model, type, deadline);
        for (double bar : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, chance}) {
          EXPECT_EQ(cache.appendBelowBar(m, 1.0, pool, model, type, deadline,
                                         bar),
                    chance <= bar)
              << "track=" << track << " type=" << type
              << " deadline=" << deadline << " bar=" << bar;
        }
      }
    }
    EXPECT_GT(cache.stats().certified, 0u);
    EXPECT_GT(cache.stats().exactFallbacks, 0u);
  }
}

// --- deferral verdict memo ---------------------------------------------------

TEST(PctCacheTest, DeferralMemoNeedsTheSameEpochTaskAndNoLowerBar) {
  FakeModel model = twoTypeModel();
  TaskPool pool;
  std::vector<Machine> machines;
  machines.emplace_back(0, 1.0);
  machines.emplace_back(1, 1.0);
  Machine& m = machines[0];
  PctCache cache;
  const hcs::sim::TaskId task = pool.create(0, 0.0, 3.0);

  // An empty machine's tail is conditioned at `now`: nothing is recorded.
  cache.noteDeferred(pool[task], m, 0.5);
  EXPECT_FALSE(cache.deferredBefore(pool[task], m, 0.5));

  m.dispatch(pool.create(1, 0.0, 50.0), 0.0, pool, model);  // runs
  ASSERT_TRUE(m.tailTracked());
  cache.noteDeferred(pool[task], m, 0.5);
  EXPECT_TRUE(cache.deferredBefore(pool[task], m, 0.5));
  EXPECT_TRUE(cache.deferredBefore(pool[task], m, 0.75));  // any higher bar
  EXPECT_FALSE(cache.deferredBefore(pool[task], m, 0.25));
  EXPECT_FALSE(cache.deferredBefore(pool[task], machines[1], 0.5));
  EXPECT_EQ(cache.stats().deferMemoHits, 2u);

  // Another cluster's cache knows nothing of this one's verdicts, even for
  // the same slot, ordinal, machine id and epoch.
  PctCache otherCluster;
  EXPECT_FALSE(otherCluster.deferredBefore(pool[task], m, 0.5));

  // Any queue mutation moves the epoch and retires the verdict.
  const hcs::sim::TaskId queued = pool.create(1, 0.0, 50.0);
  m.dispatch(queued, 0.0, pool, model);
  EXPECT_FALSE(cache.deferredBefore(pool[task], m, 0.5));
  cache.noteDeferred(pool[task], m, 0.5);
  EXPECT_TRUE(cache.deferredBefore(pool[task], m, 0.5));

  // A recycled slot holds a new task: the ordinal guards the verdict.
  pool[task].status = hcs::sim::TaskStatus::DroppedReactive;
  pool.retire(task);
  const hcs::sim::TaskId reused = pool.create(0, 0.0, 3.0);
  ASSERT_EQ(reused, task);
  EXPECT_FALSE(cache.deferredBefore(pool[reused], m, 0.5));
}

// --- scalar memo helpers -----------------------------------------------------

TEST(PctCacheTest, RemainingMeanMatchesPmfMean) {
  // Two task types on two machines, PETs of different lengths and offsets
  // (one with a zero bin inside its support).
  const FakeModel model({
      {DiscretePmf(2, {0.5, 0.5}), DiscretePmf(0, {0.1, 0.2, 0.3, 0.4})},
      {DiscretePmf(3, {0.25, 0.5, 0.25}), DiscretePmf(1, {0.3, 0.0, 0.7})},
  });
  PctCache cache;
  TaskPool pool;
  // Every elapsed bin up to three past the PET's last, at fractional
  // offsets inside each bin; returns how many lookups it made.
  const auto sweep = [&](Machine& m, hcs::sim::TaskType type,
                         std::int64_t fromBin, std::int64_t toBin) {
    const DiscretePmf& pet = model.pet(type, m.id());
    std::size_t lookups = 0;
    for (std::int64_t k = fromBin; k <= toBin; ++k) {
      for (const double offset : {0.0, 0.3, 1.0 - 1e-12}) {
        const double elapsed = static_cast<double>(k) + offset;
        EXPECT_EQ(cache.remainingMean(m, elapsed, pool, model),
                  pet.conditionalRemainingMean(elapsed))
            << "machine " << m.id() << " type " << type << " elapsed "
            << elapsed;
        ++lookups;
      }
    }
    return lookups;
  };
  std::vector<Machine> machines;
  std::vector<hcs::sim::TaskType> types;
  machines.reserve(4);
  for (const hcs::sim::MachineId id : {0, 1}) {
    for (const hcs::sim::TaskType type : {0, 1}) {
      machines.emplace_back(id, 1.0);
      types.push_back(type);
      machines.back().dispatch(pool.create(type, 0.0, 1e9), 0.0, pool,
                               model);
    }
  }
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const std::int64_t last = model.pet(types[i], machines[i].id()).lastBin();
    sweep(machines[i], types[i], 0, last + 3);
  }
  EXPECT_GT(cache.stats().meanMisses, 0u);

  // A second pass reads the table only.
  cache.resetStats();
  std::size_t lookups = 0;
  for (std::size_t i = 0; i < machines.size(); ++i) {
    const std::int64_t last = model.pet(types[i], machines[i].id()).lastBin();
    lookups += sweep(machines[i], types[i], 0, last + 3);
  }
  EXPECT_EQ(cache.stats().meanMisses, 0u);
  EXPECT_EQ(cache.stats().meanHits, lookups);

  // An idle machine has no remaining work and touches no table.
  const Machine idle(0, 1.0);
  EXPECT_EQ(cache.remainingMean(idle, 5.0, pool, model), 0.0);
  EXPECT_EQ(cache.stats().meanHits, lookups);

  // After clear() the next lookup computes again.
  cache.clear();
  cache.resetStats();
  EXPECT_EQ(cache.remainingMean(machines[0], 1.3, pool, model),
            model.pet(types[0], 0).conditionalRemainingMean(1.3));
  EXPECT_EQ(cache.stats().meanMisses, 1u);
  EXPECT_EQ(cache.stats().meanHits, 0u);

  // lastBin = 4199: a table row keeps the first 4096 bins, and the means
  // still change past it, so bins beyond the row are computed uncached.
  std::vector<double> probs(300);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    probs[i] = 1.0 + static_cast<double>(i % 7);
  }
  const FakeModel longModel({{DiscretePmf(3900, probs)}});
  const DiscretePmf& longPet = longModel.pet(0, 0);
  ASSERT_GT(static_cast<std::size_t>(longPet.lastBin()) + 1,
            DiscretePmf::kDefaultMaxBins);
  Machine longRun(0, 1.0);
  longRun.dispatch(pool.create(0, 0.0, 1e9), 0.0, pool, longModel);
  PctCache longCache;
  const auto longSweep = [&] {
    for (std::int64_t k = 0; k <= longPet.lastBin() + 3; ++k) {
      const double elapsed = static_cast<double>(k) + 0.3;
      ASSERT_EQ(longCache.remainingMean(longRun, elapsed, pool, longModel),
                longPet.conditionalRemainingMean(elapsed))
          << "elapsed " << elapsed;
    }
  };
  longSweep();
  longCache.resetStats();
  longSweep();
  EXPECT_EQ(longCache.stats().meanHits, DiscretePmf::kDefaultMaxBins);
  EXPECT_EQ(longCache.stats().meanMisses,
            static_cast<std::uint64_t>(longPet.lastBin() + 4) -
                DiscretePmf::kDefaultMaxBins);
}

TEST(DiscretePmfFastPathTest, ScalarShortcutsMatchMaterializedPmfs) {
  const DiscretePmf pet(3, {0.1, 0.0, 0.4, 0.3, 0.2}, 0.5);
  for (double elapsed : {0.0, 0.4, 1.1, 1.6, 2.9, 5.0}) {
    const DiscretePmf remaining = pet.conditionalRemaining(elapsed);
    EXPECT_EQ(remaining.mean(), pet.conditionalRemainingMean(elapsed))
        << "elapsed=" << elapsed;
    const auto [lo, hi] = pet.conditionalRemainingBounds(elapsed);
    EXPECT_EQ(lo, remaining.firstBin()) << "elapsed=" << elapsed;
    EXPECT_EQ(hi, remaining.lastBin()) << "elapsed=" << elapsed;
  }
  // cdfShiftedBy == shifted().cdf().
  for (double t : {0.0, 1.5, 2.0, 3.7}) {
    EXPECT_EQ(pet.cdfShiftedBy(4, t), pet.shifted(4).cdf(t));
  }
}

// --- end-to-end equivalence --------------------------------------------------

// The proactive walk's uncertified comparisons, before and after the first
// drop.  A chance exactly on the bar drops, one a hair above it stays — both
// inside the estimate's slack band, so only the exact fallback can tell.
TEST(PctCacheTest, ProactiveWalkDecidesNearTheBarExactly) {
  using hcs::sim::TaskStatus;
  // Type 0 runs 2 or 3 time units, type 1 exactly 1.
  const FakeModel model(
      {{DiscretePmf(2, {0.5, 0.5})}, {DiscretePmf(1, {1.0})}});
  struct Queued {
    hcs::sim::Time deadline;
    TaskStatus want;
  };
  struct Case {
    double threshold;
    std::vector<Queued> queue;  // type-1 tasks behind a running type-0 task
    std::uint64_t fallbacks;
  };
  // Completion PCTs behind the running task: {3, 4} for the first kept
  // queued task, {4, 5} for the second.
  const std::vector<Case> cases = {
      // On the bar: the pre-drop and the post-drop fallback both drop.
      {0.5,
       {{3.0, TaskStatus::DroppedProactive},
        {4.0, TaskStatus::Queued},
        {4.0, TaskStatus::DroppedProactive}},
       2},
      // Just above the bar: after a hopeless head drops, both fallbacks
      // keep, and the second reads the chain the first one kept.
      {0.5 - 1e-10,
       {{1.0, TaskStatus::DroppedProactive},
        {3.0, TaskStatus::Queued},
        {4.0, TaskStatus::Queued}},
       2},
  };
  for (const Case& c : cases) {
    for (const bool cached : {true, false}) {
      hcs::core::SimulationConfig config;
      config.heuristic = "MM";
      config.pctCacheEnabled = cached;
      config.pruning.threshold = c.threshold;
      config.pruning.toggle = hcs::pruning::ToggleMode::AlwaysDropping;
      config.pruning.fairnessFactor = 0.0;
      config.warmupMargin = 0;
      TaskPool pool;
      std::vector<Machine> machines;
      machines.emplace_back(0, 1.0, /*trackTail=*/true,
                            /*lazyTailRebuild=*/cached);
      hcs::sim::EventQueue events;
      hcs::sim::Metrics metrics(model.numTaskTypes());
      hcs::prob::Rng rng(1);
      hcs::core::World world{pool, machines, events, metrics, rng, model};
      hcs::core::Scheduler scheduler(config, model.numTaskTypes());

      Machine& m = machines[0];
      m.dispatch(pool.create(0, 0.0, 100.0), 0.0, pool, model);  // runs
      std::vector<hcs::sim::TaskId> ids;
      for (const Queued& q : c.queue) {
        ids.push_back(pool.create(1, 0.0, q.deadline));
        m.dispatch(ids.back(), 0.0, pool, model);
      }
      scheduler.handleCapacityChanged(world, 0.0);  // a mapping event
      for (std::size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(pool[ids[i]].status, c.queue[i].want)
            << "threshold " << c.threshold << " cached " << cached
            << " position " << i;
      }
      if (cached) {
        EXPECT_EQ(scheduler.pctCache()->stats().exactFallbacks, c.fallbacks)
            << "threshold " << c.threshold;
      }
    }
  }
}

// --- Eq. 2 against sampling ----------------------------------------------------

/// Draws one value from `pmf` by its own normalized bins (independent of
/// DiscretePmf::sample).
double draw(const DiscretePmf& pmf, std::mt19937_64& rng) {
  double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const std::span<const double> p = pmf.probs();
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    if (u < p[i]) return pmf.timeAt(i);
    u -= p[i];
  }
  return pmf.maxTime();
}

// Eq. 2 is P[running remainder + queued PETs + the new task's PET <=
// deadline], the running task's PET conditioned on exceeding its elapsed
// time.  For hand-built machines — untracked tails (conditioned at `now`)
// and tracked ones, lazy and eager, re-conditioned at `now` by a queue
// removal — MappingContext::successChance, with and without a PctCache,
// must equal that probability as sampled from the same PMFs, within 4
// standard errors, for every task type and every deadline across the
// support.
TEST(PctCacheTest, SuccessChanceMatchesMonteCarloSampling) {
  const std::vector<DiscretePmf> pets = {
      DiscretePmf(2, {0.1, 0.3, 0.2, 0.0, 0.25, 0.15}),
      DiscretePmf(1, {0.5, 0.5}),
      DiscretePmf(3, {0.05, 0.1, 0.2, 0.3, 0.2, 0.1, 0.05}),
      DiscretePmf(4, {1.0}),
  };
  struct Shape {
    bool trackTail;
    bool lazy;
    hcs::sim::TaskType running;
    double runStart;
    std::vector<hcs::sim::TaskType> queued;
  };
  const std::vector<Shape> shapes = {
      {false, true, 0, 0.0, {1, 2}},        // elapsed 4: only bins 6, 7 left
      {false, true, 2, 1.0, {0, 3, 1, 2}},  // elapsed 3
      {true, true, 0, 2.0, {2}},            // elapsed 2
      {true, false, 2, 0.0, {3, 0, 1}},     // elapsed 4
  };
  std::vector<std::vector<DiscretePmf>> byType(pets.size());
  for (std::size_t k = 0; k < pets.size(); ++k) {
    byType[k].assign(shapes.size(), pets[k]);
  }
  const FakeModel model(byType);
  constexpr double kNow = 4.0;
  TaskPool pool;
  std::vector<Machine> machines;
  for (std::size_t j = 0; j < shapes.size(); ++j) {
    const Shape& s = shapes[j];
    machines.emplace_back(static_cast<hcs::sim::MachineId>(j), 1.0,
                          s.trackTail, s.lazy);
    Machine& m = machines.back();
    m.dispatch(pool.create(s.running, s.runStart, 1e9), s.runStart, pool,
               model);
    for (const hcs::sim::TaskType type : s.queued) {
      m.dispatch(pool.create(type, s.runStart, 1e9), s.runStart, pool,
                 model);
    }
    if (s.trackTail) {
      // A removal at `now` re-conditions the tracked chain at `now`.
      const hcs::sim::TaskId extra = pool.create(1, kNow, 1e9);
      m.dispatch(extra, kNow, pool, model);
      m.removeQueued(extra, kNow, pool, model);
    }
  }
  const hcs::heuristics::MappingContext plain(
      kNow, pool, machines, model, hcs::heuristics::MappingContext::kUnbounded);
  PctCache cache;
  const hcs::heuristics::MappingContext cached(
      kNow, pool, machines, model, hcs::heuristics::MappingContext::kUnbounded,
      &cache);

  constexpr std::size_t kSamples = 200000;
  std::mt19937_64 rng(0xe92);
  std::size_t compared = 0;
  for (std::size_t j = 0; j < shapes.size(); ++j) {
    const Shape& s = shapes[j];
    const double elapsed = kNow - s.runStart;
    std::vector<double> tails(kSamples);
    for (double& t : tails) {
      double x = 0.0;
      do {
        x = draw(pets[static_cast<std::size_t>(s.running)], rng);
      } while (x <= elapsed);
      t = s.runStart + x;
      for (const hcs::sim::TaskType type : s.queued) {
        t += draw(pets[static_cast<std::size_t>(type)], rng);
      }
    }
    for (std::size_t k = 0; k < pets.size(); ++k) {
      std::vector<double> completions(kSamples);
      for (std::size_t i = 0; i < kSamples; ++i) {
        completions[i] = tails[i] + draw(pets[k], rng);
      }
      const auto [lo, hi] =
          std::minmax_element(completions.begin(), completions.end());
      for (double deadline = *lo - 1.0; deadline <= *hi + 1.0;
           deadline += 1.0) {
        const hcs::sim::TaskId t = pool.create(
            static_cast<hcs::sim::TaskType>(k), kNow, deadline);
        const auto id = static_cast<hcs::sim::MachineId>(j);
        const double chance = plain.successChance(t, id);
        EXPECT_EQ(cached.successChance(t, id), chance)
            << "machine " << j << " type " << k << " deadline " << deadline;
        const double hits = static_cast<double>(
            std::count_if(completions.begin(), completions.end(),
                          [deadline](double c) { return c <= deadline; }));
        const double n = static_cast<double>(kSamples);
        const double sigma = std::sqrt(chance * (1.0 - chance) / n);
        EXPECT_NEAR(hits / n, chance, 4.0 * sigma + 1e-12)
            << "machine " << j << " type " << k << " deadline " << deadline;
        ++compared;
      }
    }
  }
  EXPECT_GT(compared, 100u);
}

// The oracle for the cache's certified decisions: at the 25k spiky rate the
// Toggle engages proactive dropping and the deferring check fires, so both
// the point-CDF chain walk and the certified deferring check must reproduce
// the pct_cache = false reference path trial for trial, field for field.
TEST(PctCacheTest, CachedSimulationMatchesUncachedExactly) {
  hcs::exp::PaperScenario::Options options;
  options.scale = 0.02;
  const hcs::exp::PaperScenario scenario(options);

  std::size_t proactiveDrops = 0;
  std::size_t deferrals = 0;
  std::uint64_t deferMemoHits = 0;
  std::uint64_t keepBoundHits = 0;
  for (const char* heuristic : {"MM", "MSD", "MMU", "MCT"}) {
    hcs::exp::ExperimentSpec spec = scenario.experimentSpec(
        hcs::exp::PaperScenario::kRate25k,
        hcs::workload::ArrivalPattern::Spiky);
    spec.trials = 2;
    spec.sim.heuristic = heuristic;
    hcs::exp::ExperimentSpec uncachedSpec = spec;
    spec.sim.pctCacheEnabled = true;
    uncachedSpec.sim.pctCacheEnabled = false;
    const hcs::exp::TrialRunner cached(scenario.hetero(), spec);
    const hcs::exp::TrialRunner uncached(scenario.hetero(), uncachedSpec);
    for (std::size_t trial = 0; trial < spec.trials; ++trial) {
      const hcs::core::TrialResult got = cached.runTrial(trial);
      expectIdenticalTrials(got, uncached.runTrial(trial),
                            std::string(heuristic) + " trial " +
                                std::to_string(trial));
      proactiveDrops += got.metrics.droppedProactive();
      deferrals += got.metrics.deferrals();
      deferMemoHits += got.pctCache.deferMemoHits;
      keepBoundHits += got.pctCache.keepBoundHits;
    }
  }
  // Both decision paths must actually have been exercised, and so must the
  // memos that skip them.
  EXPECT_GT(proactiveDrops, 0u);
  EXPECT_GT(deferrals, 0u);
  EXPECT_GT(deferMemoHits, 0u);
  EXPECT_GT(keepBoundHits, 0u);
}

// The federated leg: fed_churn's shape at a small scale.  The least_ect
// gateway prices every cluster's machines per arrival through each
// cluster's ready memo and remaining-mean table, under churn with retries
// and an elastic pool, so those must reproduce the pct_cache = false
// reference path trial for trial, field for field.  Each cluster defers
// against its own deferral memo; machine ids and task slots repeat across
// clusters, and a retried task re-enters through the gateway into any of
// them, so a memo shared across clusters would answer for the wrong
// machine and break the identity.  The queue_bound thresholds are lowered
// (as in free_set_test) because fed_churn's defaults never scale at this
// scale; the test asserts that the pool boots and drains machines.
TEST(PctCacheTest, CachedFederatedSimulationMatchesUncachedExactly) {
  const hcs::exp::ScenarioSpec scenario =
      hcs::exp::parseScenarioSpec(hcs::util::parseJson(R"({
    "workload": {"rate": 25000, "pattern": "spiky"},
    "stream": {"enabled": true},
    "faults": {"enabled": true, "mtbf": 50.0, "mttr": 8.0,
               "max_attempts": 3,
               "backoff": {"base": 0.5, "factor": 2.0, "jitter": 0.1}},
    "federation": {"enabled": true, "clusters": 4, "routing": "least_ect",
                   "dispatch_latency": 0.5},
    "elasticity": {"enabled": true, "policy": "queue_bound",
                   "scale_up_queue": 1.0, "scale_down_queue": 0.5, "pool": [
      {"machine_type": 0, "min": 1, "max": 2},
      {"machine_type": 1, "min": 1, "max": 2},
      {"machine_type": 2, "min": 1, "max": 2},
      {"machine_type": 3, "min": 1, "max": 2},
      {"machine_type": 4, "min": 1, "max": 2},
      {"machine_type": 5, "min": 1, "max": 2},
      {"machine_type": 6, "min": 1, "max": 2},
      {"machine_type": 7, "min": 1, "max": 2}
    ]},
    "run": {"trials": 2, "scale": 0.02}
  })"));
  const hcs::exp::BoundScenario bound = hcs::exp::bindScenario(scenario);
  ASSERT_TRUE(bound.federated);
  hcs::exp::ExperimentSpec cachedSpec = bound.experiment;
  hcs::exp::ExperimentSpec uncachedSpec = bound.experiment;
  cachedSpec.sim.pctCacheEnabled = true;
  uncachedSpec.sim.pctCacheEnabled = false;
  const hcs::exp::TrialRunner cached(bound.fedModels, cachedSpec,
                                     bound.federation);
  const hcs::exp::TrialRunner uncached(bound.fedModels, uncachedSpec,
                                       bound.federation);
  std::size_t retries = 0;
  std::size_t deferrals = 0;
  std::uint64_t deferMemoHits = 0;
  std::size_t scalings = 0;
  for (std::size_t trial = 0; trial < cachedSpec.trials; ++trial) {
    const hcs::core::TrialResult got = cached.runTrial(trial);
    expectIdenticalTrials(got, uncached.runTrial(trial),
                          "federated trial " + std::to_string(trial));
    retries += got.metrics.retries();
    deferrals += got.metrics.deferrals();
    deferMemoHits += got.pctCache.deferMemoHits;
    scalings += got.metrics.scaleUps() + got.metrics.scaleDowns();
  }
  EXPECT_GT(retries, 0u);
  EXPECT_GT(deferrals, 0u);
  EXPECT_GT(deferMemoHits, 0u);
  EXPECT_GT(scalings, 0u);
}

}  // namespace
