// The fault-injection layer's contracts:
//  - ORACLE: a fault-ENABLED config with zero failure rate and no scripted
//    events is byte-identical — trace-for-trace, metric-for-metric — to the
//    plain engine, across heuristic × pruning configurations and BOTH
//    mapping engines.
//  - Under ACTIVE churn the incremental mapping engine stays trace-identical
//    to the reference engine, incremental mapping off (machine-set edits are
//    handled, not just task edits).
//  - Model check: every injected machine failure produces a coherent
//    accounting trail — each TaskFailed is resolved by exactly one Retried
//    or Abandoned, the Metrics counters equal the trace counts, and every
//    task still terminates exactly once.
//  - Scripted events pin machines down/up at fixed times; initially-offline
//    machines execute nothing until recovered.
//  - Gateway admission control bounds cluster depth, spills refused work to
//    siblings, and rejections are terminal outcomes summing with the rest,
//    each traced as one Rejected event.
//  - The scenario schema's `faults` and `admission` blocks round-trip and
//    reject malformed input with line numbers.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "exp/scenario.h"
#include "exp/scenario_spec.h"
#include "fed/admission.h"
#include "fed/federation.h"
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
  std::size_t abandoned = 0, retries = 0, failures = 0;
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
  d.abandoned = r.metrics.abandoned();
  d.retries = r.metrics.retries();
  d.failures = r.metrics.machineFailures();
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

core::SimulationConfig zeroFaultConfig(const core::SimulationConfig& base) {
  core::SimulationConfig config = base;
  config.faults.enabled = true;  // armed, but nothing to inject
  config.faults.mtbf = 0.0;
  config.faults.mttr = 0.0;
  return config;
}

core::SimulationConfig churnConfig(const core::SimulationConfig& base,
                                   double mtbf = 40.0, double mttr = 6.0) {
  core::SimulationConfig config = base;
  config.faults.enabled = true;
  config.faults.mtbf = mtbf;
  config.faults.mttr = mttr;
  return config;
}

// --- The oracle: zero-fault armed config == plain engine --------------------

class ZeroFaultOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(ZeroFaultOracle, ArmedButSilentConfigIsTraceIdentical) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 7);

  for (const bool prune : {true, false}) {
    for (const bool incremental : {true, false}) {
      core::SimulationConfig config;
      config.heuristic = GetParam();
      config.pruning = prune ? pruning::PruningConfig{}
                             : pruning::PruningConfig::disabled();
      config.incrementalMappingEnabled = incremental;
      config.warmupMargin = 0;
      const TrialDigest plain = runDirect(config, scenario.hetero(), wl);
      const TrialDigest armed =
          runDirect(zeroFaultConfig(config), scenario.hetero(), wl);
      EXPECT_EQ(plain, armed)
          << GetParam() << " diverged with faults armed (prune=" << prune
          << ", incremental=" << incremental << ")";
    }
  }
}

// Batch two-phase, immediate, and chance-aware heuristics — the same roster
// the federation oracle covers.
INSTANTIATE_TEST_SUITE_P(HeuristicsTimesPruning, ZeroFaultOracle,
                         ::testing::Values("MM", "MSD", "MMU", "MaxMin",
                                           "Sufferage", "MCT", "KPB",
                                           "MaxChance"));

// --- Incremental engine == reference engine under active churn --------------

TEST(ChurnEngineIdentityTest, IncrementalMatchesReferenceUnderChurn) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 19);

  for (const char* heuristic : {"MM", "MSD", "MaxChance"}) {
    core::SimulationConfig config;
    config.heuristic = heuristic;
    config.warmupMargin = 0;
    const core::SimulationConfig churned = churnConfig(config);

    core::SimulationConfig incremental = churned;
    incremental.incrementalMappingEnabled = true;
    core::SimulationConfig reference = churned;
    reference.incrementalMappingEnabled = false;

    const TrialDigest a = runDirect(incremental, scenario.hetero(), wl);
    const TrialDigest b = runDirect(reference, scenario.hetero(), wl);
    EXPECT_GT(a.failures, 0u) << "churn config injected nothing";
    EXPECT_EQ(a, b) << heuristic
                    << ": mapping engines diverged under machine churn";
  }
}

TEST(ChurnEngineIdentityTest, ChurnRunsAreDeterministic) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate20k, 23);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const core::SimulationConfig churned = churnConfig(config);
  const TrialDigest first = runDirect(churned, scenario.hetero(), wl);
  const TrialDigest second = runDirect(churned, scenario.hetero(), wl);
  EXPECT_EQ(first, second);
}

// Regression: with a warm-up margin the trimmed tasks never enter totals(),
// so a termination check built on totals() spins forever once churn keeps
// the event queue populated.  The engines must key off the unconditional
// terminal count instead.
TEST(ChurnEngineIdentityTest, TerminatesWithWarmupMargin) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 11);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = scenario.warmupMargin(exp::PaperScenario::kRate25k);
  ASSERT_GT(config.warmupMargin, 0);
  const core::SimulationConfig churned = churnConfig(config);
  const core::TrialResult r =
      core::Simulation(scenario.hetero(), wl, churned).run();
  EXPECT_GT(r.metrics.machineFailures(), 0u) << "churn config injected nothing";
  EXPECT_EQ(r.metrics.terminalCount(), wl.size());
  EXPECT_EQ(r.metrics.totals().total(), r.metrics.countedTasks());
  EXPECT_LT(r.metrics.countedTasks(), wl.size());
}

// --- Model check: every failure leaves a coherent accounting trail ----------

TEST(ChurnModelCheckTest, EveryFailureResolvesToRetryOrAbandon) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);

  // Several seeds × churn intensities: a randomized sweep over fault
  // timelines, each checked against the invariants.
  for (const std::uint64_t seed : {3u, 29u, 71u}) {
    for (const double mtbf : {25.0, 60.0}) {
      const workload::Workload wl =
          makeWorkload(scenario, exp::PaperScenario::kRate20k, seed);
      core::SimulationConfig config;
      config.heuristic = "MM";
      config.warmupMargin = 0;
      config.faultSeed = seed * 977 + 1;
      const core::SimulationConfig churned =
          churnConfig(config, mtbf, /*mttr=*/5.0);

      sim::TraceLog log;
      core::SimulationConfig traced = churned;
      traced.traceSink = log.sink();
      const core::TrialResult r =
          core::Simulation(scenario.hetero(), wl, traced).run();

      std::size_t machineFailed = 0, machineRecovered = 0;
      std::size_t retried = 0, abandonedEvents = 0;
      std::map<sim::TaskId, std::size_t> taskFailed, taskResolved;
      std::map<sim::TaskId, std::size_t> terminals;
      for (const sim::TraceEvent& e : log.events()) {
        switch (e.kind) {
          case sim::TraceEventKind::MachineFailed:
            ++machineFailed;
            break;
          case sim::TraceEventKind::MachineRecovered:
            ++machineRecovered;
            break;
          case sim::TraceEventKind::TaskFailed:
            ++taskFailed[e.task];
            break;
          case sim::TraceEventKind::Retried:
            ++retried;
            ++taskResolved[e.task];
            break;
          case sim::TraceEventKind::Abandoned:
            ++abandonedEvents;
            ++taskResolved[e.task];
            ++terminals[e.task];
            break;
          case sim::TraceEventKind::Completed:
          case sim::TraceEventKind::DroppedReactive:
          case sim::TraceEventKind::DroppedProactive:
            ++terminals[e.task];
            break;
          default:
            break;
        }
      }

      ASSERT_GT(machineFailed, 0u) << "churn config injected nothing";
      // Metrics counters equal the trace counts.
      EXPECT_EQ(r.metrics.machineFailures(), machineFailed);
      EXPECT_EQ(r.metrics.retries(), retried);
      EXPECT_EQ(r.metrics.abandoned(), abandonedEvents);
      // A machine only recovers after a failure (repairs never outnumber
      // failures).
      EXPECT_LE(machineRecovered, machineFailed);
      // Each TaskFailed is resolved by exactly one Retried or Abandoned.
      for (const auto& [task, failed] : taskFailed) {
        EXPECT_EQ(taskResolved[task], failed)
            << "task " << task << " has unresolved failures";
      }
      for (const auto& [task, resolved] : taskResolved) {
        EXPECT_EQ(taskFailed.count(task), 1u)
            << "task " << task << " retried/abandoned without a failure";
      }
      // Every task terminates exactly once, and the terminal classes sum up.
      EXPECT_EQ(r.metrics.totals().total(), wl.size());
      for (const auto& [task, count] : terminals) {
        EXPECT_EQ(count, 1u) << "task " << task << " terminated twice";
      }
      // failedThenMet only counts tasks that failed at least once.
      EXPECT_LE(r.metrics.failedThenMet(), r.metrics.retries());
    }
  }
}

// --- Scripted events and initially-offline machines -------------------------

TEST(ScriptedFaultsTest, ScriptedFailAndRecoverPinTheMachine) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate20k, 31);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.faults.enabled = true;  // scripted only — no stochastic process
  config.faults.events.push_back({10.0, 2, /*fail=*/true});
  config.faults.events.push_back({50.0, 2, /*fail=*/false});

  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r =
      core::Simulation(scenario.hetero(), wl, config).run();

  const auto failures = log.ofKind(sim::TraceEventKind::MachineFailed);
  const auto recoveries = log.ofKind(sim::TraceEventKind::MachineRecovered);
  ASSERT_EQ(failures.size(), 1u);
  ASSERT_EQ(recoveries.size(), 1u);
  EXPECT_DOUBLE_EQ(failures[0].time, 10.0);
  EXPECT_EQ(failures[0].machine, 2);
  EXPECT_DOUBLE_EQ(recoveries[0].time, 50.0);
  EXPECT_EQ(recoveries[0].machine, 2);
  EXPECT_EQ(r.metrics.machineFailures(), 1u);

  // While pinned down, machine 2 starts nothing.
  for (const sim::TraceEvent& e : log.ofKind(sim::TraceEventKind::Started)) {
    if (e.machine == 2) {
      EXPECT_TRUE(e.time < 10.0 || e.time >= 50.0)
          << "task started on a failed machine at t=" << e.time;
    }
  }
  EXPECT_EQ(r.metrics.totals().total(), wl.size());
}

TEST(ScriptedFaultsTest, InitiallyOfflineMachineIsDeadCapacity) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate15k, 37);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  config.faults.enabled = true;
  config.faults.initiallyOffline = {0};

  sim::TraceLog log;
  config.traceSink = log.sink();
  const core::TrialResult r =
      core::Simulation(scenario.hetero(), wl, config).run();

  for (const sim::TraceEvent& e : log.ofKind(sim::TraceEventKind::Started)) {
    EXPECT_NE(e.machine, 0) << "initially-offline machine executed a task";
  }
  // Never up, never failed: dead capacity is not a churn event.
  EXPECT_EQ(r.metrics.machineFailures(), 0u);
  EXPECT_EQ(r.metrics.totals().total(), wl.size());
}

// --- Gateway admission control ----------------------------------------------

fed::FederatedTrialResult runFederation(const core::SimulationConfig& config,
                                        const sim::ExecutionModel& model,
                                        const workload::Workload& wl,
                                        std::size_t clusters,
                                        fed::FederationSpec spec) {
  spec.clusters = clusters;
  std::vector<const sim::ExecutionModel*> models(clusters, &model);
  return fed::FederatedSimulation(models, wl, config, spec).run();
}

TEST(AdmissionTest, QueueBoundCapsClusterDepthAndRejectsOverflow) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 41);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;

  fed::FederationSpec tight;
  tight.routing = fed::RoutingPolicyKind::LeastQueueDepth;
  tight.admission.policy = fed::AdmissionPolicyKind::QueueBound;
  tight.admission.queueBound = 8;
  tight.admission.spillover = false;
  const fed::FederatedTrialResult bounded =
      runFederation(config, scenario.hetero(), wl, 2, tight);
  EXPECT_GT(bounded.total.metrics.rejected(), 0u)
      << "an oversubscribed stream against a tight bound must reject";
  EXPECT_EQ(bounded.total.metrics.totals().total(), wl.size());
  EXPECT_EQ(bounded.total.metrics.spillovers(), 0u) << "spillover disabled";

  // Spillover recovers work a single cluster refused: same bound, siblings
  // allowed — strictly fewer rejections.
  fed::FederationSpec spill = tight;
  spill.admission.spillover = true;
  const fed::FederatedTrialResult spilled =
      runFederation(config, scenario.hetero(), wl, 2, spill);
  EXPECT_LE(spilled.total.metrics.rejected(),
            bounded.total.metrics.rejected());
  EXPECT_EQ(spilled.total.metrics.totals().total(), wl.size());
}

TEST(AdmissionTest, RejectionsAreTracedOnTheRoutedCluster) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 41);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;

  fed::FederationSpec spec;
  spec.routing = fed::RoutingPolicyKind::RoundRobin;
  spec.admission.policy = fed::AdmissionPolicyKind::QueueBound;
  spec.admission.queueBound = 8;
  spec.admission.spillover = false;
  std::vector<sim::TraceEvent> rejected;
  config.traceSink = [&](const sim::TraceEvent& e) {
    if (e.kind == sim::TraceEventKind::Rejected) rejected.push_back(e);
  };
  const fed::FederatedTrialResult r =
      runFederation(config, scenario.hetero(), wl, 2, spec);
  ASSERT_GT(r.total.metrics.rejected(), 0u)
      << "an oversubscribed stream against a tight bound must reject";
  EXPECT_EQ(rejected.size(), r.total.metrics.rejected());
  for (const sim::TraceEvent& e : rejected) {
    EXPECT_EQ(e.machine, sim::kInvalidMachine);
    // Round-robin over two clusters routes arrival i to cluster i % 2 (no
    // retries without churn), and no spillover moved it elsewhere.
    EXPECT_EQ(e.cluster, static_cast<std::size_t>(e.task) % 2);
    EXPECT_DOUBLE_EQ(e.time,
                     wl.tasks()[static_cast<std::size_t>(e.task)].arrival);
  }
}

TEST(AdmissionTest, AcceptAllNeverRejects) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 43);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const fed::FederatedTrialResult r =
      runFederation(config, scenario.hetero(), wl, 2, fed::FederationSpec{});
  EXPECT_EQ(r.total.metrics.rejected(), 0u);
  EXPECT_EQ(r.total.metrics.spillovers(), 0u);
  EXPECT_EQ(r.total.metrics.totals().total(), wl.size());
}

TEST(AdmissionTest, ChanceThresholdShedsHopelessWorkUnderChurn) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 47);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const core::SimulationConfig churned = churnConfig(config, 30.0, 8.0);

  fed::FederationSpec spec;
  spec.routing = fed::RoutingPolicyKind::MaxChance;
  spec.admission.policy = fed::AdmissionPolicyKind::ChanceThreshold;
  spec.admission.chanceThreshold = 0.25;
  const fed::FederatedTrialResult r =
      runFederation(churned, scenario.hetero(), wl, 2, spec);
  // Every task still terminates exactly once, whatever the gate decides.
  EXPECT_EQ(r.total.metrics.totals().total(), wl.size());
  EXPECT_GT(r.total.metrics.machineFailures(), 0u);
}

TEST(AdmissionTest, FederatedChurnRunsAreDeterministic) {
  exp::PaperScenario::Options options;
  options.scale = testutil::testScale();
  const exp::PaperScenario scenario(options);
  const workload::Workload wl =
      makeWorkload(scenario, exp::PaperScenario::kRate25k, 53);

  core::SimulationConfig config;
  config.heuristic = "MM";
  config.warmupMargin = 0;
  const core::SimulationConfig churned = churnConfig(config);

  fed::FederationSpec spec;
  spec.routing = fed::RoutingPolicyKind::LeastQueueDepth;
  spec.admission.policy = fed::AdmissionPolicyKind::QueueBound;
  spec.admission.queueBound = 16;
  auto digest = [&](const fed::FederatedTrialResult& r) {
    return std::tuple(r.total.robustnessPercent,
                      r.total.metrics.rejected(),
                      r.total.metrics.spillovers(),
                      r.total.metrics.retries(),
                      r.total.metrics.machineFailures());
  };
  const auto first =
      digest(runFederation(churned, scenario.hetero(), wl, 3, spec));
  const auto second =
      digest(runFederation(churned, scenario.hetero(), wl, 3, spec));
  EXPECT_EQ(first, second);
}

TEST(AdmissionTest, RejectsMalformedConfig) {
  fed::AdmissionConfig zeroBound;
  zeroBound.policy = fed::AdmissionPolicyKind::QueueBound;
  zeroBound.queueBound = 0;
  EXPECT_THROW(zeroBound.validate(), std::invalid_argument);

  fed::AdmissionConfig badChance;
  badChance.policy = fed::AdmissionPolicyKind::ChanceThreshold;
  badChance.chanceThreshold = 1.5;
  EXPECT_THROW(badChance.validate(), std::invalid_argument);

  EXPECT_EQ(fed::toString(fed::AdmissionPolicyKind::ChanceThreshold),
            "chance_threshold");
}

// --- Scenario schema --------------------------------------------------------

TEST(FaultsScenarioTest, BlocksParseAndRoundTrip) {
  const util::JsonValue json = util::parseJson(R"({
    "faults": {
      "enabled": true,
      "mtbf": 120.0,
      "mttr": 15.0,
      "max_attempts": 4,
      "backoff": { "base": 0.5, "factor": 3.0, "jitter": 0.2 },
      "events": [
        { "at": 10.0, "machine": 1, "kind": "fail" },
        { "at": 40.0, "machine": 1, "kind": "join" }
      ],
      "initially_offline": [3]
    },
    "federation": { "enabled": true, "clusters": 2 },
    "admission": {
      "policy": "queue_bound",
      "queue_bound": 12,
      "spillover": false
    }
  })");
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(json);
  const sim::FaultConfig& faults = spec.experiment.sim.faults;
  const fed::AdmissionConfig& admission = spec.federation.admission;
  EXPECT_TRUE(faults.enabled);
  EXPECT_DOUBLE_EQ(faults.mtbf, 120.0);
  EXPECT_DOUBLE_EQ(faults.mttr, 15.0);
  EXPECT_EQ(faults.maxAttempts, 4);
  EXPECT_DOUBLE_EQ(faults.backoffBase, 0.5);
  EXPECT_DOUBLE_EQ(faults.backoffFactor, 3.0);
  EXPECT_DOUBLE_EQ(faults.backoffJitter, 0.2);
  ASSERT_EQ(faults.events.size(), 2u);
  EXPECT_TRUE(faults.events[0].fail);
  EXPECT_FALSE(faults.events[1].fail);
  EXPECT_EQ(faults.initiallyOffline, (std::vector<int>{3}));
  EXPECT_EQ(admission.policy, fed::AdmissionPolicyKind::QueueBound);
  EXPECT_EQ(admission.queueBound, 12u);
  EXPECT_FALSE(admission.spillover);

  // parse -> serialize -> parse is the identity.
  const exp::ScenarioSpec again =
      exp::parseScenarioSpec(exp::scenarioSpecToJson(spec));
  EXPECT_EQ(exp::scenarioSpecToJson(again), exp::scenarioSpecToJson(spec));
  EXPECT_EQ(again.experiment.sim.faults.events.size(), faults.events.size());
  EXPECT_EQ(again.federation.admission.policy, admission.policy);
}

TEST(FaultsScenarioTest, DefaultIsDisabledAndAbsentFromLegacyFiles) {
  const exp::ScenarioSpec spec =
      exp::parseScenarioSpec(util::parseJson("{}"));
  EXPECT_FALSE(spec.experiment.sim.faults.enabled);
  EXPECT_FALSE(spec.experiment.sim.faults.active());
  EXPECT_EQ(spec.federation.admission.policy,
            fed::AdmissionPolicyKind::AcceptAll);
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

TEST(FaultsScenarioTest, RejectsMalformedBlocksWithLineNumbers) {
  expectRejected(R"({"faults": {"mtbf": -1}})", "mtbf");
  expectRejected(R"({"faults": {"enabled": true, "mtbf": 10}})", "mttr");
  expectRejected(R"({"faults": {"max_attempts": 0}})", "max_attempts");
  expectRejected(R"({"faults": {"backoff": {"factor": 0.5}}})", "factor");
  expectRejected(R"({"faults": {"events": [{"at": 1}]}})", "machine");
  expectRejected(R"({"faults": {"events": [
                   {"at": 1, "machine": 0, "kind": "explode"}]}})", "kind");
  expectRejected(R"({"faults": {"surprise": 1}})", "unknown key");
  expectRejected(R"({"admission": {"policy": "open_door"}})", "policy");
  expectRejected(R"({"admission": {"queue_bound": 0}})", "queue_bound");
  expectRejected(R"({"admission": {"chance_threshold": 2}})",
                 "chance_threshold");
  // Admission control lives in the gateway: no federation, no gateway.
  expectRejected(R"({"admission": {"policy": "queue_bound"}})", "federation");
}

}  // namespace
