// Streaming-engine contracts (workload/stream.h + the bounded-memory path
// through core::Simulation and fed::FederatedSimulation):
//  - GeneratedTaskStream reproduces Workload::generate EXACTLY — bit-for-bit
//    TaskSpec sequences, deadlines included — for all three arrival
//    patterns.
//  - ORACLE: a streamed trial is result- and trace-identical to the
//    materialized trial across mapping engines (incremental and
//    reference — whose streamed digests must also agree with EACH
//    OTHER), immediate and batch heuristics (the
//    homogeneous ones included), warm-up trimming, active machine churn +
//    retry, an acting elastic controller, and the federation (1 and 3
//    clusters).
//  - The experiment layer produces identical aggregates when stream.enabled
//    flips, single-cluster and federated.
//  - Bounded memory: task slots recycle, the event queue's position window
//    compacts, online metrics keep only the undecided margin pending, and a
//    multi-hundred-thousand-task streamed trial stays inside a flat RSS
//    envelope no materialized run could fit.

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "exp/experiment.h"
#include "exp/scenario.h"
#include "fed/federation.h"
#include "heuristics/registry.h"
#include "sim/batch_queue.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/stream.h"
#include "workload/workload.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define HCS_HAVE_RUSAGE 1
#endif

namespace {

using namespace hcs;

std::vector<workload::TaskSpec> drain(workload::TaskStream& stream) {
  std::vector<workload::TaskSpec> specs;
  while (stream.peek() != nullptr) specs.push_back(stream.pop());
  return specs;
}

/// Everything a trial reports, plus its full trace (events label tasks by
/// arrival ordinal), for exact streamed == materialized checks.
struct ResultDigest {
  double robustness = 0.0;
  std::size_t mappingEvents = 0;
  double makespan = 0.0;
  std::size_t onTime = 0, late = 0, reactive = 0, proactive = 0, defers = 0;
  std::size_t abandoned = 0, rejected = 0, retries = 0, failedThenMet = 0;
  std::size_t machineFailures = 0, scaleUps = 0, scaleDowns = 0;
  std::size_t counted = 0;
  double utilizationPct = 0.0, machineSeconds = 0.0;
  std::vector<double> utilization;
  std::vector<double> fairness;
  std::vector<sim::TraceEvent> trace;

  bool operator==(const ResultDigest&) const = default;
};

ResultDigest digestOf(const core::TrialResult& r, const sim::TraceLog& log) {
  ResultDigest d;
  d.trace = log.events();
  d.robustness = r.robustnessPercent;
  d.mappingEvents = r.mappingEvents;
  d.makespan = r.makespan;
  d.onTime = r.metrics.completedOnTime();
  d.late = r.metrics.completedLate();
  d.reactive = r.metrics.droppedReactive();
  d.proactive = r.metrics.droppedProactive();
  d.defers = r.metrics.deferrals();
  d.abandoned = r.metrics.abandoned();
  d.rejected = r.metrics.rejected();
  d.retries = r.metrics.retries();
  d.failedThenMet = r.metrics.failedThenMet();
  d.machineFailures = r.metrics.machineFailures();
  d.scaleUps = r.metrics.scaleUps();
  d.scaleDowns = r.metrics.scaleDowns();
  d.counted = r.metrics.countedTasks();
  d.utilizationPct = r.metrics.utilizationPercent();
  d.machineSeconds = r.metrics.onlineMachineSeconds();
  d.utilization = r.machineUtilization;
  d.fairness = r.fairnessScores;
  return d;
}

/// Trace events label tasks by arrival ordinal, never by recycled pool
/// slot: the first Arrival of each label runs 0, 1, 2, ... over every task.
void expectOrdinalLabels(const sim::TraceLog& log, std::size_t tasks) {
  std::vector<sim::TaskId> firsts;
  std::vector<bool> seen(tasks, false);
  for (const sim::TraceEvent& e : log.ofKind(sim::TraceEventKind::Arrival)) {
    ASSERT_GE(e.task, 0);
    ASSERT_LT(static_cast<std::size_t>(e.task), tasks);
    if (seen[static_cast<std::size_t>(e.task)]) continue;  // a retry
    seen[static_cast<std::size_t>(e.task)] = true;
    firsts.push_back(e.task);
  }
  ASSERT_EQ(firsts.size(), tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    ASSERT_EQ(firsts[i], static_cast<sim::TaskId>(i));
  }
}

/// Runs the same trial twice — materialized and streamed off the identical
/// generator state — and returns both digests.
std::pair<ResultDigest, ResultDigest> runBothWays(
    const exp::PaperScenario& scenario, const sim::ExecutionModel& model,
    const workload::ArrivalSpec& arrival, core::SimulationConfig config,
    std::uint64_t seed) {
  sim::TraceLog materializedLog;
  config.traceSink = materializedLog.sink();
  const workload::Workload wl =
      workload::Workload::generate(*scenario.pet(), arrival, {}, seed);
  const core::TrialResult materialized =
      core::Simulation(model, wl, config).run();
  expectOrdinalLabels(materializedLog, wl.size());
  sim::TraceLog streamedLog;
  config.traceSink = streamedLog.sink();
  workload::GeneratedTaskStream stream(*scenario.pet(), arrival, {}, seed);
  const core::TrialResult streamed =
      core::Simulation(model, stream, config).run();
  return {digestOf(materialized, materializedLog),
          digestOf(streamed, streamedLog)};
}

// --- Entry validation -------------------------------------------------------

/// Yields one fixed task spec.
class OneTaskStream final : public workload::TaskStream {
 public:
  explicit OneTaskStream(workload::TaskSpec spec)
      : TaskStream(1), spec_(spec) {}

 private:
  bool produce(workload::TaskSpec& out) override {
    if (done_) return false;
    done_ = true;
    out = spec_;
    return true;
  }

  workload::TaskSpec spec_;
  bool done_ = false;
};

TEST(TaskStreamValidationTest, RejectsNonFiniteFieldsByName) {
  const auto rejection = [](const workload::TaskSpec& t) -> std::string {
    OneTaskStream stream(t);
    try {
      (void)stream.peek();
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(rejection({0, bad, 5.0, 1.0}),
              "TaskStream: task arrival must be finite");
    EXPECT_EQ(rejection({0, 0.0, bad, 1.0}),
              "TaskStream: task deadline must be finite");
    EXPECT_EQ(rejection({0, 0.0, 5.0, bad}),
              "TaskStream: task value must be finite");
  }
  EXPECT_EQ(rejection({0, 0.0, 5.0, 1.0}), "accepted");
}

// --- GeneratedTaskStream == Workload::generate ------------------------------

class GeneratedStreamExactness
    : public ::testing::TestWithParam<workload::ArrivalPattern> {};

TEST_P(GeneratedStreamExactness, StreamsTheEagerSequenceBitForBit) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);

  workload::ArrivalSpec arrival;
  if (GetParam() == workload::ArrivalPattern::Bursty) {
    arrival.pattern = workload::ArrivalPattern::Bursty;
    arrival.span = 200;
    arrival.totalTasks = 0;
    arrival.numTaskTypes = scenario.pet()->numTaskTypes();
    arrival.burstBaseRate = 2.0;
    arrival.burstPeakRate = 10.0;
    arrival.burstWidth = 4.0;
    arrival.burstPeriod = 40.0;
  } else {
    arrival = scenario.arrivalSpec(exp::PaperScenario::kRate20k, GetParam());
  }

  for (const std::uint64_t seed : {2019ULL, 7ULL, 123456789ULL}) {
    const workload::Workload wl =
        workload::Workload::generate(*scenario.pet(), arrival, {}, seed);
    workload::GeneratedTaskStream stream(*scenario.pet(), arrival, {}, seed);
    EXPECT_EQ(stream.numTaskTypes(), wl.numTaskTypes());
    const auto specs = drain(stream);
    ASSERT_EQ(specs.size(), wl.size()) << "seed " << seed;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(specs[i].type, wl.tasks()[i].type) << i;
      ASSERT_EQ(specs[i].arrival, wl.tasks()[i].arrival) << i;
      ASSERT_EQ(specs[i].deadline, wl.tasks()[i].deadline) << i;
      ASSERT_EQ(specs[i].value, wl.tasks()[i].value) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, GeneratedStreamExactness,
                         ::testing::Values(workload::ArrivalPattern::Spiky,
                                           workload::ArrivalPattern::Constant,
                                           workload::ArrivalPattern::Bursty));

// --- The oracle: streamed trial == materialized trial -----------------------

class StreamedTrialOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamedTrialOracle, MatchesMaterializedAcrossEngineConfigs) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);

  struct EngineConfig {
    const char* label;
    bool incremental;
    bool pctCache;
    bool abortOverdue;
    std::size_t warmup;
  };
  // The first two legs differ only in digest-preserving engine switches,
  // so beyond each one's materialized == streamed oracle, their *streamed*
  // digests must also agree with each other — the cross-engine leg of the
  // byte-identity oracle (a streamed reference run is the paper's reading;
  // a streamed incremental run must not drift from it).
  bool haveCrossEngine = false;
  ResultDigest crossEngine;
  for (const EngineConfig& ec :
       {EngineConfig{"incremental", true, true, false, 0},
        EngineConfig{"reference", false, false, false, 0},
        EngineConfig{"abort+warmup", true, true, true, 50}}) {
    core::SimulationConfig config;
    config.heuristic = GetParam();
    config.incrementalMappingEnabled = ec.incremental;
    config.pctCacheEnabled = ec.pctCache;
    config.abortRunningAtDeadline = ec.abortOverdue;
    config.warmupMargin = ec.warmup;
    const auto [materialized, streamed] =
        runBothWays(scenario, scenario.hetero(), arrival, config, 7);
    EXPECT_EQ(materialized, streamed)
        << GetParam() << " diverged when streamed (" << ec.label << ")";
    if (!ec.abortOverdue && ec.warmup == 0) {
      if (!haveCrossEngine) {
        crossEngine = streamed;
        haveCrossEngine = true;
      } else {
        EXPECT_EQ(crossEngine, streamed)
            << GetParam() << " streamed engines diverged from each other ("
            << ec.label << " vs incremental)";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HeuristicsTimesEngines, StreamedTrialOracle,
                         ::testing::Values("MM", "MSD", "MaxMin", "MCT",
                                           "KPB", "MaxChance"));

// The homogeneous batch heuristics sort their batch; ties must fall to
// arrival order, not to task ids, which are slot handles once the streamed
// pool recycles.
class StreamedHomogeneousOracle
    : public ::testing::TestWithParam<const char*> {};

TEST_P(StreamedHomogeneousOracle, MatchesMaterializedWithAndWithoutChurn) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);
  for (const bool churn : {false, true}) {
    core::SimulationConfig config;
    config.heuristic = GetParam();
    config.faults.enabled = churn;
    config.faults.mtbf = 50.0;
    config.faults.mttr = 8.0;
    for (const std::uint64_t seed : {7ULL, 2019ULL}) {
      const auto [materialized, streamed] =
          runBothWays(scenario, scenario.homo(), arrival, config, seed);
      EXPECT_EQ(materialized, streamed)
          << GetParam() << " diverged when streamed (seed " << seed
          << (churn ? ", churn)" : ")");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HomogeneousHeuristics, StreamedHomogeneousOracle,
                         ::testing::Values("FCFS-RR", "EDF", "SJF"));

TEST(StreamedTrialOracleTest, MatchesMaterializedUnderMachineChurn) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate20k, workload::ArrivalPattern::Spiky);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.faults.enabled = true;
  config.faults.mtbf = 40.0;
  config.faults.mttr = 6.0;
  const auto [materialized, streamed] =
      runBothWays(scenario, scenario.hetero(), arrival, config, 13);
  ASSERT_GT(materialized.machineFailures, 0u)
      << "churn config injected nothing; the oracle would be vacuous";
  EXPECT_EQ(materialized, streamed);
}

TEST(StreamedTrialOracleTest, MatchesMaterializedUnderActiveElasticity) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);

  // Base cluster plus two parked machines of the base's first type; the
  // queue-bound controller may genuinely boot and retire them mid-trial.
  const sim::ExecutionModel& base = scenario.hetero();
  std::vector<int> types;
  for (int j = 0; j < base.numMachines(); ++j) {
    types.push_back(base.machineTypeOf(j));
  }
  const std::size_t baseMachines = types.size();
  const int elasticType = types.front();
  int baseCount = 0;
  for (int t : types) {
    if (t == elasticType) ++baseCount;
  }
  types.push_back(elasticType);
  types.push_back(elasticType);
  const workload::BoundExecutionModel expanded(scenario.pet(), types);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.elasticity.enabled = true;
  config.elasticity.policy = sim::ElasticityPolicy::QueueBound;
  config.elasticity.period = 3.0;
  config.elasticity.bootLatency = 1.5;
  config.elasticity.baseMachines = baseMachines;
  config.elasticity.pool.push_back({elasticType, baseCount, baseCount + 2});

  const auto [materialized, streamed] =
      runBothWays(scenario, expanded, arrival, config, 11);
  ASSERT_GT(materialized.scaleUps, 0u)
      << "the controller never acted; the oracle would be vacuous";
  EXPECT_EQ(materialized, streamed);
}

TEST(StreamedTrialOracleTest, MatchesMaterializedThroughTheFederation) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate20k, workload::ArrivalPattern::Spiky);
  const workload::Workload wl =
      workload::Workload::generate(*scenario.pet(), arrival, {}, 5);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 50;

  for (const std::size_t clusters : {std::size_t{1}, std::size_t{3}}) {
    fed::FederationSpec spec;
    spec.clusters = clusters;
    std::vector<const sim::ExecutionModel*> models(clusters,
                                                   &scenario.hetero());
    sim::TraceLog materializedLog;
    config.traceSink = materializedLog.sink();
    const fed::FederatedTrialResult materialized =
        fed::FederatedSimulation(models, wl, config, spec).run();
    expectOrdinalLabels(materializedLog, wl.size());
    sim::TraceLog streamedLog;
    config.traceSink = streamedLog.sink();
    workload::GeneratedTaskStream stream(*scenario.pet(), arrival, {}, 5);
    const fed::FederatedTrialResult streamed =
        fed::FederatedSimulation(models, stream, config, spec).run();
    EXPECT_EQ(digestOf(materialized.total, materializedLog),
              digestOf(streamed.total, streamedLog))
        << clusters << "-cluster federation diverged when streamed";
    ASSERT_EQ(materialized.clusters.size(), streamed.clusters.size());
    for (std::size_t c = 0; c < materialized.clusters.size(); ++c) {
      EXPECT_EQ(materialized.clusters[c].tasksRouted,
                streamed.clusters[c].tasksRouted);
      EXPECT_EQ(materialized.clusters[c].metrics.completedOnTime(),
                streamed.clusters[c].metrics.completedOnTime());
    }
  }
}

TEST(StreamedExperimentTest, AggregatesMatchWhenStreamingFlips) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);

  exp::ExperimentSpec spec = scenario.experimentSpec(
      exp::PaperScenario::kRate20k, workload::ArrivalPattern::Spiky);
  spec.trials = 3;
  spec.sim.heuristic = "MM";
  const exp::ExperimentResult materialized =
      exp::runExperiment(scenario.hetero(), spec);
  spec.stream.enabled = true;
  const exp::ExperimentResult streamed =
      exp::runExperiment(scenario.hetero(), spec);
  EXPECT_EQ(materialized.perTrialRobustness, streamed.perTrialRobustness);
  EXPECT_EQ(materialized.robustnessCi.mean, streamed.robustnessCi.mean);
  EXPECT_EQ(materialized.robustnessCi.halfWidth,
            streamed.robustnessCi.halfWidth);

  fed::FederationSpec fedSpec;
  fedSpec.clusters = 2;
  spec.stream.enabled = false;
  const exp::ExperimentResult fedMaterialized = exp::runExperiment(
      {&scenario.hetero(), &scenario.hetero()}, spec, fedSpec);
  spec.stream.enabled = true;
  const exp::ExperimentResult fedStreamed = exp::runExperiment(
      {&scenario.hetero(), &scenario.hetero()}, spec, fedSpec);
  EXPECT_EQ(fedMaterialized.perTrialRobustness,
            fedStreamed.perTrialRobustness);
}

// --- Bounded-memory structure ----------------------------------------------

TEST(BoundedMemoryTest, TaskPoolRecyclesSlotsAndKeepsOrdinals) {
  sim::TaskPool pool;
  std::uint64_t created = 0;
  for (int round = 0; round < 10000; ++round) {
    const sim::TaskId id = pool.create(0, static_cast<double>(round),
                                       static_cast<double>(round) + 5, 1.0);
    EXPECT_EQ(pool[id].ordinal, created);
    ++created;
    pool[id].status = sim::TaskStatus::CompletedOnTime;
    pool.retire(id);
  }
  EXPECT_EQ(pool.createdCount(), created);
  // Ten thousand tasks, a handful of live slots.
  EXPECT_LE(pool.slotCount(), 4u);
}

TEST(BoundedMemoryTest, RetireRejectsALiveTask) {
  sim::TaskPool pool;
  const sim::TaskId id = pool.create(0, 0.0, 5.0);
  for (const sim::TaskStatus live :
       {sim::TaskStatus::Created, sim::TaskStatus::Batched,
        sim::TaskStatus::Queued, sim::TaskStatus::Running}) {
    pool[id].status = live;
    EXPECT_THROW(pool.retire(id), std::logic_error) << sim::toString(live);
  }
  // The refused retire freed nothing: the next task gets a fresh slot.
  EXPECT_NE(pool.create(0, 1.0, 6.0), id);
}

TEST(BoundedMemoryTest, RetireRejectsASecondRetire) {
  sim::TaskPool pool;
  const sim::TaskId id = pool.create(0, 0.0, 5.0);
  pool[id].status = sim::TaskStatus::DroppedReactive;
  pool.retire(id);
  EXPECT_THROW(pool.retire(id), std::logic_error);
  // One slot freed once: exactly one later task reuses it.
  EXPECT_EQ(pool.create(0, 1.0, 6.0), id);
  EXPECT_NE(pool.create(0, 2.0, 7.0), id);
}

TEST(BoundedMemoryTest, EventQueuePositionWindowCompacts) {
  sim::EventQueue events;
  // A long push/pop churn with a small live set: the seq-indexed position
  // window must stay near the live span instead of growing with total
  // pushes.
  double t = 0.0;
  for (int i = 0; i < 200000; ++i) {
    events.push(t + 1.0, sim::EventKind::TaskCompletion, 0, 0);
    events.push(t + 2.0, sim::EventKind::TaskArrival, 1, 0);
    events.tryPop();
    events.tryPop();
    t += 1.0;
  }
  EXPECT_LE(events.posWindow(), 4096u);
}

TEST(BoundedMemoryTest, OnlineMetricsKeepOnlyTheUndecidedMargin) {
  // Warm-up margin 100: a terminal task stays pending until 100 more tasks
  // have been created (its cool-down verdict), then folds into the counters
  // the masked accounting would have produced.
  std::uint64_t clock = 0;
  sim::Metrics online(1);
  online.enableOnlineCounting(100, &clock);
  sim::Task task;
  for (int i = 0; i < 5000; ++i) {
    task.id = 0;
    task.ordinal = static_cast<std::uint64_t>(i);
    task.type = 0;
    task.status = sim::TaskStatus::CompletedOnTime;
    clock = static_cast<std::uint64_t>(i) + 1;
    online.recordTerminal(task);
    EXPECT_LE(online.pendingTerminalCount(), 101u);
  }
  online.endStreamCounting();
  // 5000 tasks minus 100 warm-up minus 100 cool-down.
  EXPECT_EQ(online.countedTasks(), 4800u);
  EXPECT_EQ(online.completedOnTime(), 4800u);
  EXPECT_EQ(online.terminalCount(), 5000u);
}

/// Passes every call to a registered batch heuristic and watches the batch
/// queue's retained mutation journal on the way.
class JournalWatch final : public heuristics::BatchHeuristic {
 public:
  struct Stats {
    std::size_t calls = 0;
    std::size_t overBound = 0;
    std::size_t maxJournal = 0;
    std::size_t maxLive = 0;
    std::uint64_t firstResetGen = 0;
    std::uint64_t lastResetGen = 0;
  };

  JournalWatch(std::unique_ptr<heuristics::BatchHeuristic> inner,
               Stats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string_view name() const override { return inner_->name(); }
  bool consumesBatchQueue() const override {
    return inner_->consumesBatchQueue();
  }

  std::vector<heuristics::Assignment> map(
      const heuristics::MappingContext& ctx,
      std::span<const sim::TaskId> batch) override {
    if (const sim::BatchQueue* queue = ctx.batchQueue()) {
      if (stats_.calls == 0) stats_.firstResetGen = queue->resetGeneration();
      stats_.lastResetGen = queue->resetGeneration();
      const std::size_t bound =
          std::max(sim::BatchQueue::kJournalFloor, 2 * queue->size());
      if (queue->journalSize() > bound) ++stats_.overBound;
      stats_.maxJournal = std::max(stats_.maxJournal, queue->journalSize());
      stats_.maxLive = std::max(stats_.maxLive, queue->size());
    }
    ++stats_.calls;
    return inner_->map(ctx, batch);
  }

 private:
  std::unique_ptr<heuristics::BatchHeuristic> inner_;
  Stats& stats_;
};

TEST(BoundedMemoryTest, BatchQueueJournalStaysBoundedInAStreamedTrial) {
  // A streamed MM trial of 50k paper-scale tasks makes about 100k queue
  // mutations.  The journal the incremental engine replays must keep only
  // recent history - at most max(kJournalFloor, 2 x live tasks) entries -
  // instead of every mutation since the trial began.
  exp::PaperScenario::Options options;
  options.scale = 2.0;
  const exp::PaperScenario scenario(options);
  const workload::ArrivalSpec arrival = scenario.arrivalSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);
  core::SimulationConfig config;
  config.heuristic = "MM";
  JournalWatch::Stats stats;
  config.customBatchHeuristic = [&stats] {
    return std::make_unique<JournalWatch>(heuristics::makeBatch("MM"),
                                          stats);
  };
  workload::GeneratedTaskStream stream(*scenario.pet(), arrival, {}, 7);
  const core::TrialResult result =
      core::Simulation(scenario.hetero(), stream, config).run();
  ASSERT_GT(result.metrics.terminalCount(), 40000u);
  ASSERT_GT(stats.calls, 0u);
  EXPECT_EQ(stats.overBound, 0u);
  EXPECT_LE(stats.maxJournal,
            std::max(sim::BatchQueue::kJournalFloor, 2 * stats.maxLive));
  // The history really was dropped (and the buckets rebuilt) many times.
  EXPECT_GT(stats.lastResetGen - stats.firstResetGen, 40u);
}

TEST(BoundedMemoryTest, StreamedTrialRunsInFlatRss) {
#if !defined(HCS_HAVE_RUSAGE)
  GTEST_SKIP() << "no getrusage on this platform";
#else
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "RSS bounds are meaningless under sanitizers";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
  GTEST_SKIP() << "RSS bounds are meaningless under sanitizers";
#endif
#endif
  // Enough tasks that materializing them (specs + a task pool entry each)
  // would need hundreds of MB; the streamed trial must stay in a flat
  // envelope.  HCS_STREAM_TASKS overrides the CI default.
  std::size_t totalTasks = 2000000;
  if (const char* env = std::getenv("HCS_STREAM_TASKS")) {
    const unsigned long long n = std::strtoull(env, nullptr, 10);
    if (n > 0) totalTasks = static_cast<std::size_t>(n);
  }

  const testutil::FakeModel model = testutil::FakeModel::deterministic(
      {{1.0, 1.2, 1.4, 1.6}, {0.8, 1.0, 1.2, 1.4}});
  workload::ArrivalSpec arrival;
  arrival.pattern = workload::ArrivalPattern::Constant;
  arrival.totalTasks = totalTasks;
  arrival.numTaskTypes = 2;
  // ~8 arrivals per time unit against ~3.3 tasks/unit of capacity: the
  // overload exercises drops and retirement, and the in-flight window stays
  // small.
  arrival.span = static_cast<double>(totalTasks) / 8.0;

  struct rusage before {};
  getrusage(RUSAGE_SELF, &before);

  const workload::PetMatrix pet = workload::PetMatrix::fromMeans(
      {{1.0, 1.2, 1.4, 1.6}, {0.8, 1.0, 1.2, 1.4}}, 4.0, 99);
  workload::GeneratedTaskStream stream(pet, arrival, {}, 17);
  core::SimulationConfig config;
  config.heuristic = "MCT";
  const core::TrialResult result =
      core::Simulation(model, stream, config).run();
  EXPECT_GT(result.metrics.terminalCount(), totalTasks / 2);

  struct rusage after {};
  getrusage(RUSAGE_SELF, &after);
#if defined(__APPLE__)
  const long deltaKb = (after.ru_maxrss - before.ru_maxrss) / 1024;
#else
  const long deltaKb = after.ru_maxrss - before.ru_maxrss;
#endif
  EXPECT_LT(deltaKb, 160 * 1024)
      << "streamed trial of " << totalTasks
      << " tasks grew the high-water RSS by " << deltaKb
      << " KB - the bounded-memory path is leaking task state";
#endif
}

}  // namespace
