// The federation tier's contracts:
//  - Routing policies distribute the stream deterministically (ties toward
//    cluster 0), dispatch latency shifts cluster-side arrivals, per-cluster
//    RNG streams split reproducibly, and per-cluster metrics sum to the
//    aggregate.
//  - The scenario schema's `federation` block round-trips and rejects
//    malformed input with line numbers.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/simulation.h"
#include "exp/scenario.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "fed/federation.h"
#include "fed/routing.h"
#include "heuristics/context.h"
#include "sim/machine.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

/// Full lifecycle trace + result digest of one trial.
struct TrialDigest {
  std::vector<sim::TraceEvent> trace;
  double robustness = 0.0;
  std::size_t mappingEvents = 0;
  double makespan = 0.0;
  std::size_t onTime = 0, late = 0, reactive = 0, proactive = 0, defers = 0;
  std::vector<double> utilization;
  std::vector<double> fairness;

  bool operator==(const TrialDigest&) const = default;
};

TrialDigest digestOf(const core::TrialResult& r,
                     std::vector<sim::TraceEvent> trace) {
  TrialDigest d;
  d.trace = std::move(trace);
  d.robustness = r.robustnessPercent;
  d.mappingEvents = r.mappingEvents;
  d.makespan = r.makespan;
  d.onTime = r.metrics.completedOnTime();
  d.late = r.metrics.completedLate();
  d.reactive = r.metrics.droppedReactive();
  d.proactive = r.metrics.droppedProactive();
  d.defers = r.metrics.deferrals();
  d.utilization = r.machineUtilization;
  d.fairness = r.fairnessScores;
  return d;
}

fed::FederatedTrialResult runFederatedRaw(
    const core::SimulationConfig& base,
    std::vector<const sim::ExecutionModel*> models,
    const workload::Workload& wl, const fed::FederationSpec& spec,
    std::vector<sim::TraceEvent>* trace = nullptr) {
  core::SimulationConfig config = base;
  if (trace != nullptr) {
    config.traceSink = [trace](const sim::TraceEvent& e) {
      trace->push_back(e);
    };
  }
  return fed::FederatedSimulation(std::move(models), wl, config, spec).run();
}

TrialDigest runFederated(const core::SimulationConfig& base,
                         std::vector<const sim::ExecutionModel*> models,
                         const workload::Workload& wl,
                         fed::FederationSpec spec) {
  std::vector<sim::TraceEvent> trace;
  const fed::FederatedTrialResult r =
      runFederatedRaw(base, std::move(models), wl, spec, &trace);
  return digestOf(r.total, std::move(trace));
}

workload::Workload makeWorkload(const exp::PaperScenario& scenario,
                                std::size_t rate, std::uint64_t seed) {
  return workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(rate, workload::ArrivalPattern::Spiky), {}, seed);
}

// --- Multi-cluster behavior -------------------------------------------------

TEST(FederationTest, RoundRobinDistributesCyclically) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 3);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.clusters = 3;
  spec.routing = fed::RoutingPolicyKind::RoundRobin;
  const auto& model = scenario.hetero();
  const fed::FederatedTrialResult r =
      runFederatedRaw(config, {&model, &model, &model}, wl, spec);
  ASSERT_EQ(r.clusters.size(), 3u);
  std::size_t routed = 0;
  for (const fed::ClusterOutcome& c : r.clusters) routed += c.tasksRouted;
  EXPECT_EQ(routed, wl.size());
  // Cyclic assignment: per-cluster counts differ by at most one.
  const auto [lo, hi] = std::minmax(
      {r.clusters[0].tasksRouted, r.clusters[1].tasksRouted,
       r.clusters[2].tasksRouted});
  EXPECT_LE(hi - lo, 1u);
  // Every task terminates exactly once, somewhere in the federation.
  EXPECT_EQ(r.total.metrics.totals().total(), wl.size());
}

TEST(FederationTest, StatefulPoliciesUseEveryClusterAndImproveOnOverload) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  // 25k-equivalent on ONE cluster is oversubscribed; across 2 clusters the
  // stateful policies must spread it.
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 5);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const auto& model = scenario.hetero();
  for (const fed::RoutingPolicyKind kind :
       {fed::RoutingPolicyKind::LeastQueueDepth,
        fed::RoutingPolicyKind::LeastExpectedCompletion,
        fed::RoutingPolicyKind::MaxChance}) {
    fed::FederationSpec spec;
    spec.clusters = 2;
    spec.routing = kind;
    const fed::FederatedTrialResult r =
        runFederatedRaw(config, {&model, &model}, wl, spec);
    EXPECT_GT(r.clusters[0].tasksRouted, 0u) << toString(kind);
    EXPECT_GT(r.clusters[1].tasksRouted, 0u) << toString(kind);
    EXPECT_EQ(r.total.metrics.totals().total(), wl.size()) << toString(kind);

    // Doubling the capacity behind the gateway must not hurt robustness
    // relative to forcing everything through one cluster.
    fed::FederationSpec one;
    const fed::FederatedTrialResult single =
        runFederatedRaw(config, {&model}, wl, one);
    EXPECT_GE(r.total.robustnessPercent, single.total.robustnessPercent)
        << toString(kind);
  }
}

TEST(FederationTest, DispatchLatencyShiftsClusterSideArrivals) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 9);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.dispatchLatency = 2.5;
  std::vector<sim::TraceEvent> trace;
  (void)runFederatedRaw(config, {&scenario.hetero()}, wl, spec, &trace);

  std::size_t arrivals = 0;
  for (const sim::TraceEvent& e : trace) {
    if (e.kind != sim::TraceEventKind::Arrival) continue;
    ++arrivals;
    const sim::Task expected{};  // silence unused warnings on some gccs
    (void)expected;
    EXPECT_DOUBLE_EQ(
        e.time, wl.tasks()[static_cast<std::size_t>(e.task)].arrival + 2.5);
  }
  EXPECT_EQ(arrivals, wl.size());
}

TEST(FederationTest, PerClusterMetricsSumToAggregate) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 21);

  core::SimulationConfig config;
  config.heuristic = "MSD";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.clusters = 4;
  spec.routing = fed::RoutingPolicyKind::LeastQueueDepth;
  const auto& model = scenario.hetero();
  const fed::FederatedTrialResult r =
      runFederatedRaw(config, {&model, &model, &model, &model}, wl, spec);

  std::size_t onTime = 0, counted = 0, defers = 0, events = 0;
  for (const fed::ClusterOutcome& c : r.clusters) {
    onTime += c.metrics.completedOnTime();
    counted += c.metrics.countedTasks();
    defers += c.metrics.deferrals();
    events += c.mappingEvents;
  }
  EXPECT_EQ(onTime, r.total.metrics.completedOnTime());
  EXPECT_EQ(counted, r.total.metrics.countedTasks());
  EXPECT_EQ(defers, r.total.metrics.deferrals());
  EXPECT_EQ(events, r.total.mappingEvents);
  EXPECT_EQ(r.total.machineUtilization.size(),
            4u * static_cast<std::size_t>(model.numMachines()));
}

TEST(FederationTest, RunsAreDeterministic) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate20k, 17);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  fed::FederationSpec spec;
  spec.clusters = 3;
  spec.routing = fed::RoutingPolicyKind::MaxChance;
  const auto& model = scenario.hetero();
  const TrialDigest first =
      runFederated(config, {&model, &model, &model}, wl, spec);
  const TrialDigest second =
      runFederated(config, {&model, &model, &model}, wl, spec);
  EXPECT_EQ(first, second);
}

// One sink sees every cluster: each event carries the cluster it happened
// on.  Four clusters of different sizes, churn with retries, dispatch
// latency, and a refusing gateway, so every trace site of the loop fires.
TEST(FederationTest, TraceEventsCarryTheirCluster) {
  exp::ScenarioSpec scenario;
  scenario.pet.scale = testutil::testScale();
  scenario.federationEnabled = true;
  scenario.federation.clusters = 4;
  scenario.fedClusterShapes = {
      {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2}, {4, 5, 6, 7, 0, 1}, {2, 3}};
  const exp::BoundScenario bound = exp::bindScenario(scenario);
  const workload::Workload wl =
      makeWorkload(*bound.paper, exp::PaperScenario::kRate25k, 13);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.faults.enabled = true;
  config.faults.mtbf = 30.0;
  config.faults.mttr = 6.0;
  config.faults.backoffBase = 0.5;
  fed::FederationSpec spec;
  spec.clusters = 4;
  spec.routing = fed::RoutingPolicyKind::RoundRobin;
  spec.dispatchLatency = 1.5;
  spec.admission.policy = fed::AdmissionPolicyKind::QueueBound;
  spec.admission.queueBound = 10;
  spec.admission.spillover = false;
  std::vector<sim::TraceEvent> trace;
  const fed::FederatedTrialResult r = runFederatedRaw(
      config, {bound.fedModels.begin(), bound.fedModels.end()}, wl, spec,
      &trace);
  ASSERT_GT(r.total.metrics.retries(), 0u) << "churn must retry work";
  ASSERT_GT(r.total.metrics.rejected(), 0u) << "the gateway must refuse";

  std::vector<std::size_t> arrivals(4, 0), rejected(4, 0);
  for (const sim::TraceEvent& e : trace) {
    ASSERT_LT(e.cluster, 4u);
    if (e.machine != sim::kInvalidMachine) {
      EXPECT_LT(e.machine, bound.fedModels[e.cluster]->numMachines())
          << toString(e.kind) << " on cluster " << e.cluster;
    }
    if (e.kind == sim::TraceEventKind::Arrival) ++arrivals[e.cluster];
    if (e.kind == sim::TraceEventKind::Rejected) ++rejected[e.cluster];
  }
  // Round-robin hands gateway entry i (stream arrivals and retries alike)
  // to cluster i % 4, and without spillover each entry either arrives
  // there or is rejected there.
  const std::size_t entries = wl.size() + r.total.metrics.retries();
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(arrivals[c], r.clusters[c].tasksRouted) << "cluster " << c;
    EXPECT_EQ(arrivals[c] + rejected[c], (entries + 3 - c) / 4)
        << "cluster " << c;
  }
}

// A cluster whose every machine is offline offers no chance at all, so it
// must lose even to a live cluster where the task's best chance is 0.
TEST(RoutingTest, MaxChanceSkipsAClusterWithNoAcceptingMachine) {
  const auto model = testutil::FakeModel::deterministic({{5.0}});
  sim::TaskPool pool;
  const sim::TaskId task = pool.create(0, 0.0, /*deadline=*/1.0);  // hopeless
  std::vector<sim::Machine> dead, live;
  dead.emplace_back(0, 1.0);
  live.emplace_back(0, 1.0);
  std::vector<sim::TaskId> orphans;
  dead[0].goOffline(0.0, pool, model, orphans);
  heuristics::MappingContext deadCtx(0.0, pool, dead, model, 4);
  heuristics::MappingContext liveCtx(0.0, pool, live, model, 4);
  ASSERT_EQ(liveCtx.successChance(task, 0), 0.0);
  const std::vector<fed::ClusterView> views{{&dead, 0, 0, &deadCtx},
                                            {&live, 0, 0, &liveCtx}};
  const auto policy = fed::makeRoutingPolicy(fed::RoutingPolicyKind::MaxChance);
  EXPECT_EQ(policy->route(views, pool[task], 0.0), 1u);
}

TEST(FederationTest, ClusterSeedsSplitFromTheBaseStream) {
  const std::uint64_t base = 0x5eed;
  EXPECT_EQ(fed::clusterExecutionSeed(base, 0), base);
  std::vector<std::uint64_t> seeds;
  for (std::size_t c = 0; c < 8; ++c) {
    seeds.push_back(fed::clusterExecutionSeed(base, c));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
      << "cluster seeds must be pairwise distinct";
}

TEST(FederationTest, RejectsMalformedConstruction) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 1);
  core::SimulationConfig config;
  config.heuristic = "MM";
  const auto& model = scenario.hetero();

  fed::FederationSpec twoClusters;
  twoClusters.clusters = 2;
  EXPECT_THROW(fed::FederatedSimulation({&model}, wl, config, twoClusters),
               std::invalid_argument);
  fed::FederationSpec negative;
  negative.dispatchLatency = -1.0;
  EXPECT_THROW(fed::FederatedSimulation({&model}, wl, config, negative),
               std::invalid_argument);
  fed::FederationSpec zero;
  zero.clusters = 0;
  EXPECT_THROW(
      fed::FederatedSimulation(std::vector<const sim::ExecutionModel*>{}, wl,
                               config, zero),
      std::invalid_argument);
}

// --- Scenario schema --------------------------------------------------------

TEST(FederationScenarioTest, BlockParsesAndRoundTrips) {
  const util::JsonValue json = util::parseJson(R"({
    "federation": {
      "enabled": true,
      "clusters": 3,
      "routing": "max_chance",
      "dispatch_latency": 1.5,
      "cluster_shapes": [[0, 1, 2], [3, 4], [5, 6, 7, 0]]
    }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  EXPECT_TRUE(spec.federationEnabled);
  EXPECT_EQ(spec.federation.clusters, 3u);
  EXPECT_EQ(spec.federation.routing, fed::RoutingPolicyKind::MaxChance);
  EXPECT_DOUBLE_EQ(spec.federation.dispatchLatency, 1.5);
  ASSERT_EQ(spec.fedClusterShapes.size(), 3u);
  EXPECT_EQ(spec.fedClusterShapes[1], (std::vector<int>{3, 4}));

  // parse -> serialize -> parse is the identity.
  const exp::ScenarioSpec again =
      exp::parseScenarioSpec(exp::scenarioSpecToJson(spec));
  EXPECT_EQ(again.federationEnabled, spec.federationEnabled);
  EXPECT_EQ(again.federation.clusters, spec.federation.clusters);
  EXPECT_EQ(again.federation.routing, spec.federation.routing);
  EXPECT_EQ(again.federation.dispatchLatency, spec.federation.dispatchLatency);
  EXPECT_EQ(again.fedClusterShapes, spec.fedClusterShapes);
  EXPECT_EQ(exp::scenarioSpecToJson(again), exp::scenarioSpecToJson(spec));
}

TEST(FederationScenarioTest, DefaultIsDisabledAndAbsentFromLegacyFiles) {
  const exp::ScenarioSpec spec =
      exp::parseScenarioSpec(util::parseJson("{}"));
  EXPECT_FALSE(spec.federationEnabled);
  EXPECT_EQ(spec.federation.clusters, 1u);
}

void expectRejected(const char* text, const char* needle) {
  try {
    (void)exp::parseScenarioSpec(util::parseJson(text));
    FAIL() << "expected rejection mentioning \"" << needle << "\"";
  } catch (const exp::ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FederationScenarioTest, RejectsMalformedBlocksWithLineNumbers) {
  expectRejected(R"({"federation": {"clusters": 0}})", "clusters");
  expectRejected(R"({"federation": {"routing": "best_effort"}})",
                 "unknown routing");
  expectRejected(R"({"federation": {"dispatch_latency": -2}})",
                 "dispatch_latency");
  expectRejected(R"({"federation": {"surprise": 1}})", "unknown key");
  expectRejected(
      R"({"federation": {"clusters": 2, "cluster_shapes": [[0]]}})",
      "cluster_shapes");
  expectRejected(R"({"federation": {"cluster_shapes": [[99]]}})",
                 "out of range");
}

TEST(FederationScenarioTest, BindBuildsOneModelPerCluster) {
  exp::ScenarioSpec spec;
  spec.pet.scale = testutil::testScale();
  spec.federationEnabled = true;
  spec.federation.clusters = 2;
  const exp::BoundScenario mirrored = exp::bindScenario(spec);
  EXPECT_TRUE(mirrored.federated);
  ASSERT_EQ(mirrored.fedModels.size(), 2u);
  EXPECT_EQ(mirrored.fedModels[0], mirrored.model);
  EXPECT_EQ(mirrored.fedModels[1], mirrored.model);

  spec.fedClusterShapes = {{0, 1, 2, 3}, {4, 5}};
  const exp::BoundScenario skewed = exp::bindScenario(spec);
  ASSERT_EQ(skewed.fedModels.size(), 2u);
  EXPECT_EQ(skewed.fedModels[0]->numMachines(), 4);
  EXPECT_EQ(skewed.fedModels[1]->numMachines(), 2);
  EXPECT_EQ(skewed.federation.clusters, 2u);
}

TEST(FederationScenarioTest, SweepRunsFederatedGridPoints) {
  // A 2-point sweep over cluster count through the real runSweep path, at a
  // tiny scale: locks the fed <-> sweep wiring without golden files.
  const std::string doc = R"({
    "workload": { "rate": 25000 },
    "run": { "trials": 1, "scale": 0.02 },
    "federation": { "enabled": true, "routing": "least_queue" },
    "sweep": [ { "field": "federation.clusters", "values": [1, 2] } ]
  })";
  const exp::ScenarioDoc parsed = exp::parseScenarioDoc(doc);
  const std::vector<exp::SweepOutcome> outcomes = exp::runSweep(parsed);
  ASSERT_EQ(outcomes.size(), 2u);
  // Two clusters absorb an oversubscribed stream at least as well as one.
  EXPECT_GE(outcomes[1].result.robustnessCi.mean,
            outcomes[0].result.robustnessCi.mean);
}

}  // namespace
