// The elastic capacity controller's contracts:
//  - ORACLE: elasticity disabled, or armed with min == max pinning every
//    group, is byte-identical — trace-for-trace, metric-for-metric — to the
//    fixed-capacity engine, across heuristic × pruning configurations, BOTH
//    mapping engines, and all three policies.
//  - Lifecycle: scale-up pays the boot latency before the machine accepts
//    work; scale-down drains gracefully (running/queued tasks finish, then
//    the machine retires) and never aborts work.
//  - Model check (randomized scale-down storms × churn): every task reaches
//    exactly one terminal state, and per-type provisioned capacity never
//    leaves [min, max] at any controller transition.
//  - utilization_pct is computed against *online* machine-seconds, not wall
//    clock: dead capacity does not dilute it.
//  - The scenario schema's `elasticity` block round-trips, rejects malformed
//    input with line numbers, and the bind layer expands the cluster with
//    parked surplus slots (base ids unchanged).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "exp/scenario.h"
#include "exp/scenario_spec.h"
#include "fed/federation.h"
#include "sim/elasticity.h"
#include "sim/trace.h"
#include "test_util.h"
#include "workload/workload.h"

namespace {

using namespace hcs;

double testScale() {
  if (const char* env = std::getenv("HCS_SCALE")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return std::min(s, 0.03);
  }
  return 0.03;
}

/// Full lifecycle trace + result digest of one trial.
struct TrialDigest {
  std::vector<sim::TraceEvent> trace;
  double robustness = 0.0;
  std::size_t mappingEvents = 0;
  double makespan = 0.0;
  std::size_t onTime = 0, late = 0, reactive = 0, proactive = 0, defers = 0;
  std::size_t scaleUps = 0, scaleDowns = 0;
  double machineSeconds = 0.0;
  std::vector<double> utilization;

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
  d.scaleUps = r.metrics.scaleUps();
  d.scaleDowns = r.metrics.scaleDowns();
  d.machineSeconds = r.metrics.onlineMachineSeconds();
  d.utilization = r.machineUtilization;
  return d;
}

TrialDigest runDirect(const core::SimulationConfig& base,
                      const sim::ExecutionModel& model,
                      const workload::Workload& wl) {
  core::SimulationConfig config = base;
  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r = core::Simulation(model, wl, config).run();
  return digestOf(r, log.events());
}

workload::Workload makeWorkload(const exp::PaperScenario& scenario,
                                std::size_t rate, std::uint64_t seed) {
  return workload::Workload::generate(
      *scenario.pet(),
      scenario.arrivalSpec(rate, workload::ArrivalPattern::Spiky), {}, seed);
}

/// min == max pool pinning every machine type at its base count: the armed
/// controller may tick but can never act.
sim::ElasticityConfig pinnedElasticity(const sim::ExecutionModel& model,
                                       sim::ElasticityPolicy policy) {
  sim::ElasticityConfig ec;
  ec.enabled = true;
  ec.policy = policy;
  ec.period = 3.0;
  ec.baseMachines = static_cast<std::size_t>(model.numMachines());
  std::map<int, int> counts;
  for (int j = 0; j < model.numMachines(); ++j) ++counts[model.machineTypeOf(j)];
  for (const auto& [type, count] : counts) {
    ec.pool.push_back({type, count, count});
  }
  return ec;
}

// --- Config validation -------------------------------------------------------

TEST(ElasticityConfigTest, RejectsMalformedConfig) {
  sim::ElasticityConfig ok;
  ok.enabled = true;
  ok.pool.push_back({0, 1, 2});
  EXPECT_NO_THROW(ok.validate());

  auto expectBad = [&](auto mutate) {
    sim::ElasticityConfig bad = ok;
    mutate(bad);
    EXPECT_THROW(bad.validate(), std::invalid_argument);
    bad.enabled = false;  // disabled configs are never validated further
    EXPECT_NO_THROW(bad.validate());
  };
  expectBad([](sim::ElasticityConfig& c) { c.period = 0.0; });
  expectBad([](sim::ElasticityConfig& c) { c.bootLatency = -1.0; });
  expectBad([](sim::ElasticityConfig& c) { c.step = 0; });
  expectBad([](sim::ElasticityConfig& c) {
    c.scaleUpQueue = 1.0;
    c.scaleDownQueue = 2.0;  // inverted hysteresis band
  });
  expectBad([](sim::ElasticityConfig& c) { c.setpoint = 1.5; });
  expectBad([](sim::ElasticityConfig& c) { c.ewmaAlpha = 0.0; });
  expectBad([](sim::ElasticityConfig& c) { c.deadband = 0.8; });
  expectBad([](sim::ElasticityConfig& c) { c.chanceThreshold = 2.0; });
  expectBad([](sim::ElasticityConfig& c) { c.pool[0].minMachines = 0; });
  expectBad([](sim::ElasticityConfig& c) { c.pool[0].maxMachines = 0; });
  expectBad([](sim::ElasticityConfig& c) { c.pool.push_back({0, 1, 1}); });
}

// --- The oracle: pinned (min == max) controller == fixed-capacity engine ----

class PinnedElasticityOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(PinnedElasticityOracle, ArmedButPinnedConfigIsTraceIdentical) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 61);

  for (const bool prune : {true, false}) {
    for (const bool incremental : {true, false}) {
      core::SimulationConfig config;
      config.heuristic = GetParam();
      config.pruning = prune ? pruning::PruningConfig{}
                             : pruning::PruningConfig::disabled();
      config.incrementalMappingEnabled = incremental;
      config.warmupMargin = 0;
      const TrialDigest plain = runDirect(config, scenario.hetero(), wl);

      core::SimulationConfig armed = config;
      armed.elasticity = pinnedElasticity(scenario.hetero(),
                                          sim::ElasticityPolicy::QueueBound);
      const TrialDigest pinned = runDirect(armed, scenario.hetero(), wl);
      EXPECT_EQ(plain, pinned)
          << GetParam() << " diverged with a pinned controller (prune="
          << prune << ", incremental=" << incremental << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HeuristicsTimesPruning, PinnedElasticityOracle,
                         ::testing::Values("MM", "MSD", "MMU", "MaxMin",
                                           "Sufferage", "MCT", "KPB",
                                           "MaxChance"));

TEST(PinnedElasticityOracleTest, AllThreePoliciesHoldTheIdentity) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate20k, 67);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const TrialDigest plain = runDirect(config, scenario.hetero(), wl);

  for (const sim::ElasticityPolicy policy :
       {sim::ElasticityPolicy::QueueBound,
        sim::ElasticityPolicy::TargetUtilization,
        sim::ElasticityPolicy::ChanceSlo}) {
    core::SimulationConfig armed = config;
    armed.elasticity = pinnedElasticity(scenario.hetero(), policy);
    const TrialDigest pinned = runDirect(armed, scenario.hetero(), wl);
    EXPECT_EQ(plain, pinned)
        << sim::toString(policy) << " pinned controller diverged";
  }
}

// --- Lifecycle: boot latency, graceful drain, retirement ---------------------

TEST(ElasticLifecycleTest, BootPaysLatencyAndIdleDrainRetires) {
  // One managed type, two machines (ids: 0 = base, 1 = parked surplus).
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{1.0, 1.0}});
  std::vector<workload::TaskSpec> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back({0, 0.1, 100.0, 1.0});
  }
  const workload::Workload wl(std::move(tasks), 1);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.machineQueueCapacity = 4;
  config.elasticity.enabled = true;
  config.elasticity.policy = sim::ElasticityPolicy::QueueBound;
  config.elasticity.period = 1.0;
  config.elasticity.bootLatency = 0.5;
  config.elasticity.scaleUpQueue = 2.0;
  config.elasticity.scaleDownQueue = 1.5;
  config.elasticity.baseMachines = 1;
  config.elasticity.pool.push_back({0, 1, 2});

  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r = core::Simulation(model, wl, config).run();

  // All six tasks completed on time; nothing was aborted by the drain.
  EXPECT_EQ(r.metrics.completedOnTime(), 6u);
  EXPECT_EQ(r.metrics.totals().total(), 6u);

  // Scale-up: exactly one boot, decided at the first tick (t = 1), online
  // after the provisioning delay (t = 1.5).
  const auto booting = log.ofKind(sim::TraceEventKind::MachineBooting);
  const auto booted = log.ofKind(sim::TraceEventKind::MachineBooted);
  ASSERT_EQ(booting.size(), 1u);
  ASSERT_EQ(booted.size(), 1u);
  EXPECT_EQ(booting[0].machine, 1);
  EXPECT_DOUBLE_EQ(booting[0].time, 1.0);
  EXPECT_EQ(booted[0].machine, 1);
  EXPECT_DOUBLE_EQ(booted[0].time, 1.5);
  EXPECT_EQ(r.metrics.scaleUps(), 1u);

  // Machine 1 starts nothing before its boot completed.
  for (const sim::TraceEvent& e : log.ofKind(sim::TraceEventKind::Started)) {
    if (e.machine == 1) EXPECT_GE(e.time, 1.5);
  }

  // Scale-down: the surplus machine drained and retired (idle drain
  // completes on the spot), and the drain never aborted anything.
  const auto draining = log.ofKind(sim::TraceEventKind::MachineDraining);
  const auto retired = log.ofKind(sim::TraceEventKind::MachineRetired);
  ASSERT_EQ(draining.size(), 1u);
  ASSERT_EQ(retired.size(), 1u);
  EXPECT_EQ(draining[0].machine, 1);
  EXPECT_EQ(retired[0].machine, 1);
  EXPECT_GE(r.metrics.scaleDowns(), 1u);

  // Cost accounting: machine 1 was online only from boot to retirement, so
  // total online machine-seconds sit strictly between one machine's
  // wall-clock and two machines' wall-clock.
  EXPECT_GT(r.metrics.onlineMachineSeconds(), r.makespan);
  EXPECT_LT(r.metrics.onlineMachineSeconds(), 2.0 * r.makespan);
  EXPECT_NEAR(r.metrics.utilizationPercent(),
              100.0 * r.metrics.busyMachineSeconds() /
                  r.metrics.onlineMachineSeconds(),
              1e-9);
}

TEST(ElasticLifecycleTest, DrainFinishesQueuedWorkBeforeRetiring) {
  // Force a drain while machine 1 still holds work: load collapses after a
  // front-loaded burst, so the scale-down decision lands while the surplus
  // machine is busy.  The drain must let it finish (no aborts, no orphans).
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{4.0, 4.0}});
  std::vector<workload::TaskSpec> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back({0, 0.1, 100.0, 1.0});
  }
  const workload::Workload wl(std::move(tasks), 1);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.machineQueueCapacity = 4;
  config.elasticity.enabled = true;
  config.elasticity.policy = sim::ElasticityPolicy::QueueBound;
  config.elasticity.period = 1.0;
  config.elasticity.bootLatency = 0.0;
  config.elasticity.scaleUpQueue = 1.5;
  config.elasticity.scaleDownQueue = 1.4;
  config.elasticity.baseMachines = 1;
  config.elasticity.pool.push_back({0, 1, 2});

  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r = core::Simulation(model, wl, config).run();

  EXPECT_EQ(r.metrics.totals().total(), 4u);
  EXPECT_EQ(r.metrics.completedOnTime() + r.metrics.completedLate(), 4u);
  EXPECT_TRUE(log.ofKind(sim::TraceEventKind::TaskFailed).empty());

  // If a drain began while the machine held work, retirement came strictly
  // after its last completion (graceful, not abort-and-orphan).
  const auto draining = log.ofKind(sim::TraceEventKind::MachineDraining);
  const auto retired = log.ofKind(sim::TraceEventKind::MachineRetired);
  ASSERT_FALSE(draining.empty());
  ASSERT_FALSE(retired.empty());
  double lastCompletionOnDrained = 0.0;
  for (const sim::TraceEvent& e : log.ofKind(sim::TraceEventKind::Completed)) {
    if (e.machine == retired.back().machine) {
      lastCompletionOnDrained = std::max(lastCompletionOnDrained, e.time);
    }
  }
  EXPECT_GE(retired.back().time, lastCompletionOnDrained);
}

// --- Model check: scale-down storms × churn ----------------------------------

TEST(ElasticDrainModelCheckTest, StormsKeepEveryInvariant) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);

  // Base cluster (one machine per type) + parked surplus of types 0 and 1.
  const int numTypes = scenario.hetero().numMachines();
  std::vector<int> types(static_cast<std::size_t>(numTypes));
  std::iota(types.begin(), types.end(), 0);
  types.insert(types.end(), {0, 0, 1, 1});
  const workload::BoundExecutionModel elastic(scenario.pet(), types);

  sim::ElasticityConfig storm;
  storm.enabled = true;
  storm.period = 0.4;       // aggressive cadence
  storm.bootLatency = 0.7;  // boots outlive a tick: cancel-boot reachable
  storm.step = 2;
  storm.scaleUpQueue = 1.2;  // razor-thin hysteresis: constant flip-flop
  storm.scaleDownQueue = 1.1;
  storm.setpoint = 0.5;
  storm.deadband = 0.05;
  storm.chanceThreshold = 0.95;
  storm.baseMachines = static_cast<std::size_t>(numTypes);
  storm.pool.push_back({0, 1, 3});
  storm.pool.push_back({1, 1, 3});

  std::size_t totalDrains = 0, totalReclaims = 0, totalBootCancels = 0;
  for (const std::uint64_t seed : {3u, 29u, 71u}) {
    for (const sim::ElasticityPolicy policy :
         {sim::ElasticityPolicy::QueueBound,
          sim::ElasticityPolicy::TargetUtilization,
          sim::ElasticityPolicy::ChanceSlo}) {
      for (const bool churn : {false, true}) {
        const workload::Workload wl =
            makeWorkload(scenario, exp::PaperScenario::kRate20k, seed);
        core::SimulationConfig config;
        config.heuristic = "MM";
        config.warmupMargin = 0;
        config.elasticity = storm;
        config.elasticity.policy = policy;
        config.elasticitySeed = seed * 31 + 7;
        if (churn) {
          // Drains race failures: a draining machine may fail mid-drain and
          // recover empty; the invariants must hold regardless.
          config.faults.enabled = true;
          config.faults.mtbf = 30.0;
          config.faults.mttr = 5.0;
          config.faultSeed = seed * 977 + 1;
        }

        sim::TraceLog log;
        config.traceSink = log.sink();
        const core::TrialResult r =
            core::Simulation(elastic, wl, config).run();

        // Every task reaches exactly one terminal state.
        EXPECT_EQ(r.metrics.totals().total(), wl.size())
            << "policy=" << sim::toString(policy) << " seed=" << seed
            << " churn=" << churn;
        std::map<sim::TaskId, std::size_t> terminals;
        // Per-type provisioned capacity (active-not-draining + booting):
        // replayed from the trace, checked after every controller action.
        std::map<int, int> provisioned;
        for (const sim::ElasticGroup& g : storm.pool) {
          provisioned[g.machineType] = 1;  // base cluster: one per type
        }
        const auto boundsOf = [&](int type) {
          for (const sim::ElasticGroup& g : storm.pool) {
            if (g.machineType == type) return g;
          }
          ADD_FAILURE() << "controller touched unmanaged type " << type;
          return sim::ElasticGroup{};
        };
        const auto checkBounds = [&](const sim::TraceEvent& e, int delta) {
          const int type = elastic.machineTypeOf(e.machine);
          const sim::ElasticGroup g = boundsOf(type);
          provisioned[type] += delta;
          EXPECT_GE(provisioned[type], g.minMachines)
              << "capacity fell under min at t=" << e.time;
          EXPECT_LE(provisioned[type], g.maxMachines)
              << "capacity exceeded max at t=" << e.time;
        };
        for (const sim::TraceEvent& e : log.events()) {
          switch (e.kind) {
            case sim::TraceEventKind::Completed:
            case sim::TraceEventKind::DroppedReactive:
            case sim::TraceEventKind::DroppedProactive:
            case sim::TraceEventKind::Abandoned:
              ++terminals[e.task];
              break;
            case sim::TraceEventKind::MachineBooting:
              checkBounds(e, +1);
              break;
            case sim::TraceEventKind::BootCancelled:
              checkBounds(e, -1);
              ++totalBootCancels;
              break;
            case sim::TraceEventKind::MachineDraining:
              checkBounds(e, -1);
              ++totalDrains;
              break;
            case sim::TraceEventKind::DrainCancelled:
              checkBounds(e, +1);
              ++totalReclaims;
              break;
            default:
              break;
          }
        }
        for (const auto& [task, count] : terminals) {
          EXPECT_EQ(count, 1u) << "task " << task << " terminated twice";
        }
        EXPECT_EQ(terminals.size(), wl.size());
      }
    }
  }
  // The sweep actually exercised the storm paths it claims to cover.
  EXPECT_GT(totalDrains, 0u) << "no drain ever happened";
  EXPECT_GT(totalReclaims + totalBootCancels, 0u)
      << "no drain/boot was ever reversed (storm too tame)";
}

TEST(ElasticDrainModelCheckTest, ElasticRunsAreDeterministic) {
  exp::PaperScenario::Options options;
  options.scale = testScale();
  const exp::PaperScenario scenario(options);

  const int numTypes = scenario.hetero().numMachines();
  std::vector<int> types(static_cast<std::size_t>(numTypes));
  std::iota(types.begin(), types.end(), 0);
  types.insert(types.end(), {0, 1});
  const workload::BoundExecutionModel elastic(scenario.pet(), types);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate20k, 83);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.elasticity.enabled = true;
  config.elasticity.period = 0.5;
  config.elasticity.bootLatency = 1.0;
  config.elasticity.scaleUpQueue = 2.0;
  config.elasticity.scaleDownQueue = 1.0;
  config.elasticity.baseMachines = static_cast<std::size_t>(numTypes);
  config.elasticity.pool.push_back({0, 1, 2});
  config.elasticity.pool.push_back({1, 1, 2});

  const TrialDigest first = runDirect(config, elastic, wl);
  const TrialDigest second = runDirect(config, elastic, wl);
  EXPECT_EQ(first, second);
  EXPECT_GT(first.scaleUps, 0u) << "storm config never scaled";
}

// --- utilization_pct: online time, not wall clock ----------------------------

TEST(UtilizationAccountingTest, DeadCapacityDoesNotDiluteUtilization) {
  const testutil::FakeModel model =
      testutil::FakeModel::deterministic({{1.0, 1.0}});
  std::vector<workload::TaskSpec> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back({0, static_cast<double>(i), 100.0, 1.0});
  }
  const workload::Workload wl(std::move(tasks), 1);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.faults.enabled = true;
  config.faults.initiallyOffline = {1};  // machine 1 never serves
  const core::TrialResult r = core::Simulation(model, wl, config).run();

  // Machine 0 is busy back-to-back for the whole trial; machine 1 logs zero
  // online seconds — utilization against online time is 100%, where a
  // wall-clock denominator would dilute it to 50%.
  EXPECT_EQ(r.metrics.completedOnTime(), 4u);
  EXPECT_DOUBLE_EQ(r.metrics.onlineMachineSeconds(), r.makespan);
  EXPECT_DOUBLE_EQ(r.metrics.utilizationPercent(), 100.0);
}

// --- Scenario schema ---------------------------------------------------------

TEST(ElasticityScenarioTest, BlockParsesAndRoundTrips) {
  const util::JsonValue json = util::parseJson(R"({
    "federation": { "enabled": true, "clusters": 2 },
    "elasticity": {
      "enabled": true,
      "policy": "target_utilization",
      "period": 2.5,
      "boot_latency": 4.0,
      "step": 2,
      "scale_up_queue": 6.0,
      "scale_down_queue": 2.0,
      "setpoint": 0.6,
      "ewma_alpha": 0.4,
      "deadband": 0.15,
      "chance_threshold": 0.8,
      "pool": [
        { "machine_type": 0, "min": 1, "max": 3 },
        { "machine_type": 2, "max": 2 }
      ],
      "cluster_overrides": [
        { "cluster": 1, "policy": "chance_slo", "boot_latency": 1.0 }
      ]
    }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  EXPECT_TRUE(spec.elasticity.enabled);
  EXPECT_EQ(spec.elasticity.policy, sim::ElasticityPolicy::TargetUtilization);
  EXPECT_DOUBLE_EQ(spec.elasticity.period, 2.5);
  EXPECT_DOUBLE_EQ(spec.elasticity.bootLatency, 4.0);
  EXPECT_EQ(spec.elasticity.step, 2);
  EXPECT_DOUBLE_EQ(spec.elasticity.scaleUpQueue, 6.0);
  EXPECT_DOUBLE_EQ(spec.elasticity.scaleDownQueue, 2.0);
  EXPECT_DOUBLE_EQ(spec.elasticity.setpoint, 0.6);
  EXPECT_DOUBLE_EQ(spec.elasticity.ewmaAlpha, 0.4);
  EXPECT_DOUBLE_EQ(spec.elasticity.deadband, 0.15);
  EXPECT_DOUBLE_EQ(spec.elasticity.chanceThreshold, 0.8);
  ASSERT_EQ(spec.elasticity.pool.size(), 2u);
  EXPECT_EQ(spec.elasticity.pool[0].machineType, 0);
  EXPECT_EQ(spec.elasticity.pool[0].minMachines, 1);
  EXPECT_EQ(spec.elasticity.pool[0].maxMachines, 3);
  EXPECT_EQ(spec.elasticity.pool[1].machineType, 2);
  EXPECT_EQ(spec.elasticity.pool[1].minMachines, 1);  // default
  EXPECT_EQ(spec.elasticity.pool[1].maxMachines, 2);
  // The override starts from the base block: every unset key is inherited.
  ASSERT_EQ(spec.elasticityOverrides.size(), 1u);
  EXPECT_EQ(spec.elasticityOverrides[0].cluster, 1u);
  EXPECT_EQ(spec.elasticityOverrides[0].config.policy,
            sim::ElasticityPolicy::ChanceSlo);
  EXPECT_DOUBLE_EQ(spec.elasticityOverrides[0].config.bootLatency, 1.0);
  EXPECT_DOUBLE_EQ(spec.elasticityOverrides[0].config.period, 2.5);
  EXPECT_EQ(spec.elasticityOverrides[0].config.pool.size(), 2u);

  // parse -> serialize -> parse is the identity.
  const exp::ScenarioSpec again =
      exp::parseScenarioSpec(exp::scenarioSpecToJson(spec));
  EXPECT_EQ(exp::scenarioSpecToJson(again), exp::scenarioSpecToJson(spec));
}

TEST(ElasticityScenarioTest, DefaultIsDisabledAndAbsentFromLegacyFiles) {
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(util::parseJson("{}"));
  EXPECT_FALSE(spec.elasticity.enabled);
  EXPECT_FALSE(spec.elasticity.active());
  EXPECT_TRUE(spec.elasticityOverrides.empty());
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

TEST(ElasticityScenarioTest, RejectsMalformedBlocksWithLineNumbers) {
  expectRejected(R"({"elasticity": {"period": 0}})", "period");
  expectRejected(R"({"elasticity": {"policy": "magic"}})", "policy");
  expectRejected(R"({"elasticity": {"step": 0}})", "step");
  expectRejected(R"({"elasticity": {"boot_latency": -1}})", "boot_latency");
  expectRejected(R"({"elasticity": {"setpoint": 1.5}})", "setpoint");
  expectRejected(R"({"elasticity": {"ewma_alpha": 0}})", "ewma_alpha");
  expectRejected(R"({"elasticity": {"deadband": 0.9}})", "deadband");
  expectRejected(
      R"({"elasticity": {"scale_up_queue": 1.0, "scale_down_queue": 2.0}})",
      "hysteresis");
  expectRejected(R"({"elasticity": {"enabled": true}})", "pool");
  expectRejected(R"({"elasticity": {"pool": [{"max": 2}]}})", "machine_type");
  expectRejected(R"({"elasticity": {"pool": [{"machine_type": 0}]}})", "max");
  expectRejected(
      R"({"elasticity": {"pool": [{"machine_type": 99, "max": 2}]}})",
      "out of range");
  expectRejected(R"({"elasticity": {"pool": [
                   {"machine_type": 0, "max": 2},
                   {"machine_type": 0, "max": 3}]}})", "duplicate");
  expectRejected(R"({"elasticity": {"surprise": 1}})", "unknown key");
  // Overrides are per federation cluster: no federation, no overrides.
  expectRejected(R"({"elasticity": {"cluster_overrides": [{"cluster": 0}]}})",
                 "federation.enabled");
  expectRejected(R"({
    "federation": { "enabled": true, "clusters": 2 },
    "elasticity": { "cluster_overrides": [{"cluster": 5}] }
  })", "out of range");
  expectRejected(R"({
    "federation": { "enabled": true, "clusters": 2 },
    "elasticity": { "cluster_overrides": [{"cluster": 1}, {"cluster": 1}] }
  })", "duplicate");
}

TEST(ElasticityScenarioTest, BindExpandsClusterWithParkedSurplus) {
  const util::JsonValue json = util::parseJson(R"({
    "elasticity": {
      "enabled": true,
      "pool": [{ "machine_type": 0, "min": 1, "max": 3 }]
    },
    "run": { "scale": 0.02, "trials": 1 }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  const exp::BoundScenario bound = exp::bindScenario(spec);

  const int base = spec.synthesis.numMachineTypes;  // hetero: one per type
  ASSERT_EQ(bound.model->numMachines(), base + 2);
  // Base ids unchanged; surplus slots appended after them.
  for (int j = 0; j < base; ++j) {
    EXPECT_EQ(bound.model->machineTypeOf(j), j);
  }
  EXPECT_EQ(bound.model->machineTypeOf(base), 0);
  EXPECT_EQ(bound.model->machineTypeOf(base + 1), 0);
  EXPECT_EQ(bound.experiment.sim.elasticity.baseMachines,
            static_cast<std::size_t>(base));
  EXPECT_TRUE(bound.experiment.sim.elasticity.active());
}

TEST(ElasticityScenarioTest, BindRejectsBaseCountOutsidePoolBounds) {
  const util::JsonValue json = util::parseJson(R"({
    "elasticity": {
      "enabled": true,
      "pool": [{ "machine_type": 0, "min": 2, "max": 3 }]
    },
    "run": { "scale": 0.02, "trials": 1 }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  EXPECT_THROW((void)exp::bindScenario(spec), exp::ScenarioError);
}

TEST(ElasticityScenarioTest, FederatedBindResolvesPerClusterConfigs) {
  const util::JsonValue json = util::parseJson(R"({
    "federation": { "enabled": true, "clusters": 2 },
    "elasticity": {
      "enabled": true,
      "pool": [{ "machine_type": 0, "min": 1, "max": 3 }],
      "cluster_overrides": [
        { "cluster": 1, "pool": [{ "machine_type": 1, "min": 1, "max": 2 }] }
      ]
    },
    "run": { "scale": 0.02, "trials": 1 }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  const exp::BoundScenario bound = exp::bindScenario(spec);

  ASSERT_TRUE(bound.federated);
  ASSERT_EQ(bound.federation.clusterElasticity.size(), 2u);
  const int base = spec.synthesis.numMachineTypes;
  // Cluster 0: base pool (type 0, max 3) -> two surplus slots of type 0.
  EXPECT_EQ(bound.fedModels[0]->numMachines(), base + 2);
  EXPECT_EQ(bound.fedModels[0]->machineTypeOf(base), 0);
  // Cluster 1: override pool (type 1, max 2) -> one surplus slot of type 1.
  EXPECT_EQ(bound.fedModels[1]->numMachines(), base + 1);
  EXPECT_EQ(bound.fedModels[1]->machineTypeOf(base), 1);
  EXPECT_EQ(bound.federation.clusterElasticity[0].baseMachines,
            static_cast<std::size_t>(base));
  EXPECT_EQ(bound.federation.clusterElasticity[1].pool[0].machineType, 1);
}

}  // namespace
