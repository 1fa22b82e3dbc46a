// Scenario subsystem: schema parsing (round-trip over the committed
// scenarios, strict rejection with line numbers, the schema docs against
// the description), sweep grid expansion (counts, ordering, seed pairing),
// and bench-equivalence of the bound ExperimentSpec.

#include "exp/scenario_spec.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/sweep.h"
#include "util/json.h"

namespace {

using namespace hcs;
using exp::ScenarioDoc;
using exp::ScenarioError;
using exp::ScenarioSpec;
using util::JsonValue;

ScenarioSpec parseSpec(const std::string& text) {
  return exp::parseScenarioSpec(util::parseJson(text));
}

void expectErrorContains(const std::string& text, const std::string& needle) {
  try {
    (void)parseSpec(text);
    FAIL() << "expected ScenarioError for: " << text;
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

/// Parsing `text` as a scenario document fails at `line` with `needle`.
void expectDocErrorAt(const std::string& text, int line,
                      const std::string& needle) {
  try {
    (void)exp::parseScenarioDoc(text);
    FAIL() << "expected ScenarioError for: " << text;
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line " + std::to_string(line) + ":"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(needle), std::string::npos) << what;
  }
}

TEST(ScenarioSpec, EmptyObjectIsPaperDefaults) {
  const ScenarioSpec spec = parseSpec("{}");
  const exp::ExperimentSpec& e = spec.experiment;
  EXPECT_EQ(e.sim.heuristic, "MM");
  EXPECT_EQ(spec.rate, 15000u);
  EXPECT_EQ(spec.pattern, workload::ArrivalPattern::Spiky);
  EXPECT_EQ(spec.clusterKind, ScenarioSpec::ClusterKind::Heterogeneous);
  EXPECT_EQ(e.trials, 8u);
  EXPECT_EQ(e.baseSeed, 2019u);
  EXPECT_DOUBLE_EQ(spec.pet.scale, 0.1);
  EXPECT_TRUE(e.sim.pruning.enabled);
  EXPECT_DOUBLE_EQ(e.sim.pruning.threshold, 0.5);
  EXPECT_EQ(spec.warmup, -1);
}

TEST(ScenarioSpec, ParseSerializeParseIsIdentity) {
  const char* doc = R"({
    "name": "rt",
    "pet": { "seed": 7, "synthesis": { "task_types": 5, "machine_types": 3 } },
    "cluster": { "kind": "custom", "machine_types": [0, 2, 2, 1] },
    "workload": { "rate": 25000, "pattern": "constant",
                  "deadline": { "beta": [1.0, 2.0] } },
    "sim": { "heuristic": "MSD", "queue_capacity": 7,
             "pruning": { "toggle": "always", "threshold": 0.75 } },
    "run": { "trials": 3, "seed": 11, "scale": 0.04, "warmup": 5 }
  })";
  const ScenarioSpec spec1 = parseSpec(doc);
  const JsonValue json1 = exp::scenarioSpecToJson(spec1);
  const ScenarioSpec spec2 = exp::parseScenarioSpec(json1);
  const JsonValue json2 = exp::scenarioSpecToJson(spec2);
  EXPECT_TRUE(json1 == json2);
  // Spot-check the canonical form carried everything through.
  EXPECT_EQ(spec2.name, "rt");
  EXPECT_EQ(spec2.pet.petSeed, 7u);
  EXPECT_EQ(spec2.pet.synthesis.numTaskTypes, 5);
  EXPECT_EQ(spec2.clusterKind, ScenarioSpec::ClusterKind::Custom);
  EXPECT_EQ(spec2.customMachineTypes, (std::vector<int>{0, 2, 2, 1}));
  EXPECT_EQ(spec2.pattern, workload::ArrivalPattern::Constant);
  const core::SimulationConfig& sim = spec2.experiment.sim;
  EXPECT_DOUBLE_EQ(spec2.experiment.deadline.betaLo, 1.0);
  EXPECT_EQ(sim.heuristic, "MSD");
  EXPECT_EQ(sim.machineQueueCapacity, 7u);
  EXPECT_EQ(sim.pruning.toggle, pruning::ToggleMode::AlwaysDropping);
  EXPECT_EQ(spec2.warmup, 5);
}

TEST(ScenarioSpec, BurstyRoundTrips) {
  const char* doc = R"({
    "workload": { "pattern": "bursty",
                  "burst": { "base_rate_factor": 1.5, "peak_rate_factor": 4,
                             "width": 2.5, "period": 50, "span": 300 } }
  })";
  const ScenarioSpec spec = parseSpec(doc);
  EXPECT_EQ(spec.pattern, workload::ArrivalPattern::Bursty);
  EXPECT_DOUBLE_EQ(spec.burstPeakFactor, 4.0);
  const ScenarioSpec again =
      exp::parseScenarioSpec(exp::scenarioSpecToJson(spec));
  EXPECT_DOUBLE_EQ(again.burstBaseFactor, 1.5);
  EXPECT_DOUBLE_EQ(again.burstWidth, 2.5);
  EXPECT_DOUBLE_EQ(again.burstSpan, 300.0);
  // Burst knobs written under a non-bursty pattern survive the canonical
  // form too (a sweep case may flip the pattern later).
  const ScenarioSpec spiky = parseSpec(
      R"({"workload": {"burst": {"width": 9}}})");
  const ScenarioSpec spikyAgain =
      exp::parseScenarioSpec(exp::scenarioSpecToJson(spiky));
  EXPECT_DOUBLE_EQ(spikyAgain.burstWidth, 9.0);
  // Thinning-regime sanity is validated at load.
  expectErrorContains(
      R"({"workload": {"pattern": "bursty",
          "burst": {"width": 10, "period": 5}}})",
      "width must not exceed period");
}

TEST(ScenarioSpec, RejectsUnknownKeysWithLineNumbers) {
  try {
    (void)parseSpec("{\n  \"workload\": {\n    \"ratee\": 5\n  }\n}");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown key \"ratee\""), std::string::npos) << what;
  }
  expectErrorContains(R"({"bogus_top": 1})", "unknown key \"bogus_top\"");
  expectErrorContains(R"({"sim": {"pruning": {"treshold": 0.5}}})",
                      "unknown key \"treshold\"");
}

// The mapping engine and the PCT cache are not model settings: the
// reference paths are test oracles (tests/engine_oracle_test.cpp), so the
// keys that once switched them are refused by name like any unknown key.
TEST(ScenarioSpec, RejectsRemovedEngineKeysByName) {
  for (const char* key :
       {"pct_cache", "incremental_mapping", "incremental_map_min_queue"}) {
    const std::string value =
        std::string(key) == "incremental_map_min_queue" ? "0" : "false";
    expectDocErrorAt("{\n  \"sim\": {\n    \"" + std::string(key) +
                         "\": " + value + "\n  }\n}",
                     3, "unknown key \"" + std::string(key) + "\"");
  }
}

TEST(ScenarioSpec, RejectsInvalidValues) {
  expectErrorContains(R"({"workload": {"pattern": "spikey"}})",
                      "unknown pattern");
  expectErrorContains(R"({"sim": {"heuristic": "NOPE"}})",
                      "unknown heuristic");
  expectErrorContains(R"({"sim": {"pruning": {"threshold": 1.5}}})",
                      "must be in [0, 1]");
  expectErrorContains(R"({"sim": {"pruning": {"toggle": "sometimes"}}})",
                      "unknown toggle");
  expectErrorContains(R"({"run": {"scale": 0}})", "must be positive");
  expectErrorContains(R"({"run": {"trials": 2.5}})", "integer");
  expectErrorContains(R"({"cluster": {"kind": "custom"}})",
                      "requires machine_types");
  expectErrorContains(
      R"({"cluster": {"machine_types": [0, 1]}})", "requires kind \"custom\"");
  expectErrorContains(R"({"workload": {"deadline": {"beta": [2, 1]}}})",
                      "hi must be >= lo");
  expectErrorContains(R"({"sweep": []})", "sweep");
  // Out-of-range numerics fail at parse (no UB casts, no silent wrap).
  expectErrorContains(R"({"run": {"seed": 18446744073709551615}})",
                      "2^53");
  expectErrorContains(R"({"pet": {"synthesis": {"task_types": 1e12}}})",
                      "out of int range");
  // Custom machine-type indices are range-checked against the PET at load.
  expectErrorContains(
      R"({"cluster": {"kind": "custom", "machine_types": [0, 99]}})",
      "out of range");
  // Type errors surface the line too.
  try {
    (void)parseSpec("{\n \"sim\": {\n  \"heuristic\": 3\n }\n}");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
  // pruning::Toggle aborts a run whose reactive toggle has alpha = 0, so
  // the parser rejects it at the key's line; other modes never read alpha.
  try {
    (void)parseSpec(
        "{\n \"sim\": {\n  \"pruning\": {\n   \"dropping_toggle\": 0\n"
        "  }\n }\n}");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("sim.pruning.dropping_toggle"), std::string::npos)
        << what;
  }
  EXPECT_NO_THROW(parseSpec(
      R"({"sim": {"pruning": {"toggle": "never", "dropping_toggle": 0}}})"));
  expectErrorContains(R"({"sim": {"pruning": {"priority_weight": -1}}})",
                      "sim.pruning.priority_weight: must be >= 0");
  // A scale that rounds a rate-based workload to no tasks names run.scale;
  // the bursty pattern takes its rate from the cluster instead.
  expectErrorContains(R"({"run": {"scale": 1e-9}})", "run.scale");
  EXPECT_NO_THROW(parseSpec(
      R"({"workload": {"pattern": "bursty"}, "run": {"scale": 1e-9}})"));
}

TEST(ScenarioSpec, ValueMixRoundTripsAndRejectsBadMixes) {
  const ScenarioSpec spec = parseSpec(R"({"workload": {"values": [
      {"value": 4, "share": 0.2}, {"value": 1, "share": 0.8}]}})");
  const std::vector<workload::ValueClass>& values =
      spec.experiment.arrival.values;
  ASSERT_EQ(values.size(), 2u);
  EXPECT_DOUBLE_EQ(values[0].value, 4.0);
  EXPECT_DOUBLE_EQ(values[1].share, 0.8);
  const JsonValue json = exp::scenarioSpecToJson(spec);
  EXPECT_TRUE(exp::scenarioSpecToJson(exp::parseScenarioSpec(json)) == json);
  // The bind keeps the mix for every pattern.
  for (const char* pattern : {"spiky", "bursty"}) {
    ScenarioSpec patterned = spec;
    patterned.pattern = std::string(pattern) == "bursty"
                            ? workload::ArrivalPattern::Bursty
                            : workload::ArrivalPattern::Spiky;
    patterned.pet.scale = 0.02;
    EXPECT_EQ(exp::bindScenario(patterned).experiment.arrival.values.size(),
              2u)
        << pattern;
  }
  // Absent: every task is worth 1, and the canonical form says nothing.
  EXPECT_TRUE(parseSpec("{}").experiment.arrival.values.empty());
  EXPECT_EQ(exp::scenarioSpecToJson(parseSpec("{}"))
                .find("workload")
                ->find("values"),
            nullptr);

  const auto expectAt = [](const std::string& classes, int line,
                           const std::string& needle) {
    expectDocErrorAt("{\n \"workload\": {\n  \"values\": [\n" + classes +
                         "\n  ]\n }\n}",
                     line, needle);
  };
  expectAt(R"({"value": 0, "share": 1})", 4,
           "workload.values.value: must be positive");
  expectAt(R"({"value": 2, "share": 0.5},
{"value": 1, "share": 0})", 5, "workload.values.share: must be positive");
  expectAt(R"({"value": 2, "share": 0.5},
{"value": 1, "share": 0.4})", 3, "shares must sum to 1, got 0.9");
  expectAt(R"({"value": 2})", 4, "missing \"share\"");
  EXPECT_NO_THROW(parseSpec(R"({"workload": {"values": [
      {"value": 2, "share": 0.3}, {"value": 1, "share": 0.7000000000001}]}})"));
}

std::vector<std::string> backticked(const std::string& text) {
  std::vector<std::string> tokens;
  static const std::regex code("`([^`]*)`");
  for (auto it = std::sregex_iterator(text.begin(), text.end(), code);
       it != std::sregex_iterator(); ++it) {
    tokens.push_back((*it)[1]);
  }
  return tokens;
}

/// A canonical leaf value as the docs' Default column spells it.
std::string docSpelling(const JsonValue& v) {
  switch (v.type()) {
    case JsonValue::Type::Bool: return v.asBool() ? "true" : "false";
    case JsonValue::Type::Number: return util::formatJsonNumber(v.asNumber());
    case JsonValue::Type::String: return "\"" + v.asString() + "\"";
    case JsonValue::Type::Array: {
      std::string out = "[";
      for (const JsonValue& item : v.array()) {
        out += (out.size() > 1 ? ", " : "") + docSpelling(item);
      }
      return out + "]";
    }
    default: return "?";
  }
}

/// Keys of one block, dotted below nested objects; lists are leaves.
void flattenKeys(const JsonValue& object, const std::string& prefix,
                 std::map<std::string, const JsonValue*>& keys) {
  for (const auto& [key, value] : object.object()) {
    if (value.isObject()) {
      flattenKeys(value, prefix + key + ".", keys);
    } else {
      keys[prefix + key] = &value;
    }
  }
}

TEST(ScenarioSpec, SchemaDocsMatchTheDescription) {
  // The keys: the canonical emit of the default spec, plus a spec whose
  // every list and optional key is populated (the emit omits them when
  // empty).  Defaults come from the default spec only.
  ScenarioSpec full;
  full.clusterKind = ScenarioSpec::ClusterKind::Custom;
  full.customMachineTypes = {0};
  full.experiment.stream.trace = "trace.csv";
  full.experiment.sim.faults.events = {sim::ScriptedFault{}};
  full.experiment.sim.faults.initiallyOffline = {0};
  full.fedClusterShapes = {{0}};
  full.experiment.sim.elasticity.pool = {sim::ElasticGroup{}};
  full.elasticityOverrides = {ScenarioSpec::ElasticityOverride{}};
  full.experiment.arrival.values = {workload::ValueClass{}};
  const JsonValue defaults = exp::scenarioSpecToJson(ScenarioSpec{});
  const JsonValue populated = exp::scenarioSpecToJson(full);

  // block ("" = top level) -> key -> canonical default (null if none).
  std::map<std::string, std::map<std::string, const JsonValue*>> schema;
  for (const JsonValue* root : {&populated, &defaults}) {
    for (const auto& [key, value] : root->object()) {
      schema[""][key] = value.isObject() ? nullptr : &value;
      if (!value.isObject()) continue;
      std::map<std::string, const JsonValue*> keys;
      flattenKeys(value, "", keys);
      for (const auto& [sub, leaf] : keys) {
        schema[key][sub] = root == &defaults ? leaf : nullptr;
      }
    }
  }
  // The document-level keys.
  schema[""]["sweep"] = nullptr;
  schema[""]["report"] = nullptr;
  schema["report"]["metrics"] = nullptr;

  std::ifstream in(std::string(HCS_SOURCE_DIR) + "/docs/scenario-schema.md");
  ASSERT_TRUE(in) << "cannot open docs/scenario-schema.md";
  // block -> keys that have a row.
  std::map<std::string, std::set<std::string>> documented;
  std::string line;
  std::string block;
  bool inBlock = false;
  while (std::getline(in, line)) {
    if (line.rfind("## ", 0) == 0) {
      const std::vector<std::string> names = backticked(line);
      block = line == "## Top level" ? ""
              : names.empty()        ? "-"
                                     : names[0];
      inBlock = schema.count(block) > 0;
      continue;
    }
    if (!inBlock || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells;
    std::stringstream row(line.substr(1));
    for (std::string cell; std::getline(row, cell, '|');) {
      cells.push_back(cell);
    }
    ASSERT_GE(cells.size(), 2u) << line;
    const std::vector<std::string> keys = backticked(cells[0]);
    for (const std::string& key : keys) {
      EXPECT_TRUE(schema[block].count(key) > 0)
          << "`" << block << "` table row names no schema key: " << key;
      documented[block].insert(key);
    }
    if (keys.size() == 1 && schema[block].count(keys[0]) > 0 &&
        schema[block][keys[0]] != nullptr) {
      const std::vector<std::string> cell = backticked(cells[1]);
      EXPECT_EQ(cell, std::vector<std::string>{
                          docSpelling(*schema[block][keys[0]])})
          << "Default of `" << block << "." << keys[0] << "`";
    }
  }
  for (const auto& [name, keys] : schema) {
    for (const auto& entry : keys) {
      EXPECT_TRUE(documented[name].count(entry.first) > 0)
          << "docs/scenario-schema.md has no row for `" << name
          << (name.empty() ? "" : ".") << entry.first << "`";
    }
  }
}

TEST(ScenarioSpec, CommittedScenariosRoundTripAtEveryGridPoint) {
  std::size_t files = 0;
  for (const char* dir : {"/scenarios", "/perfbench/scenarios"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(HCS_SOURCE_DIR) + dir)) {
      if (entry.path().extension() != ".json") continue;
      ++files;
      const ScenarioDoc doc = exp::loadScenarioDoc(entry.path().string());
      const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
      for (std::size_t i = 0; i < grid.size(); ++i) {
        const JsonValue canonical = exp::scenarioSpecToJson(grid[i].spec);
        EXPECT_EQ(util::writeJson(canonical),
                  util::writeJson(exp::scenarioSpecToJson(
                      exp::parseScenarioSpec(canonical))))
            << entry.path() << " grid point " << i;
      }
    }
  }
  EXPECT_GE(files, 21u);
}

TEST(ScenarioSpec, BoundExperimentMatchesPaperScenarioPath) {
  // The declarative path must bind to exactly the ExperimentSpec the
  // hand-written benches build — this is what makes scenario runs
  // byte-identical to the figures.
  const ScenarioSpec spec = parseSpec(R"({
    "workload": { "rate": 25000 },
    "sim": { "heuristic": "MSD" },
    "run": { "trials": 3, "scale": 0.04 }
  })");
  const exp::BoundScenario bound = exp::bindScenario(spec);

  exp::PaperScenario::Options options;
  options.scale = 0.04;
  const exp::PaperScenario paper(options);
  exp::ExperimentSpec expected = paper.experimentSpec(
      exp::PaperScenario::kRate25k, workload::ArrivalPattern::Spiky);
  expected.trials = 3;
  expected.sim.heuristic = "MSD";

  EXPECT_DOUBLE_EQ(bound.experiment.arrival.span, expected.arrival.span);
  EXPECT_EQ(bound.experiment.arrival.totalTasks,
            expected.arrival.totalTasks);
  EXPECT_EQ(bound.experiment.arrival.numTaskTypes,
            expected.arrival.numTaskTypes);
  EXPECT_EQ(bound.experiment.sim.warmupMargin, expected.sim.warmupMargin);
  EXPECT_EQ(bound.experiment.trials, expected.trials);
  EXPECT_EQ(bound.experiment.baseSeed, expected.baseSeed);
  EXPECT_EQ(bound.experiment.sim.heuristic, expected.sim.heuristic);
  EXPECT_EQ(bound.model, &bound.paper->hetero());  // hetero cluster selected
  EXPECT_EQ(bound.model->numMachines(), paper.hetero().numMachines());
}

// --- Sweep expansion --------------------------------------------------------

ScenarioDoc parseDoc(const std::string& text) {
  return exp::parseScenarioDoc(text);
}

TEST(Sweep, ExpandsValuesRangeAndCases) {
  const ScenarioDoc doc = parseDoc(R"({
    "run": { "trials": 2, "scale": 0.02 },
    "sweep": [
      { "field": "workload.rate", "values": [15000, 20000],
        "labels": ["15k", "20k"] },
      { "field": "sim.pruning.threshold",
        "range": { "from": 0.25, "to": 0.75, "step": 0.25 } },
      { "label": "overdue", "cases": [
        { "name": "run", "set": { "sim.abort_at_deadline": false } },
        { "name": "abort", "set": { "sim.abort_at_deadline": true } }
      ] }
    ]
  })");
  ASSERT_EQ(doc.axes.size(), 3u);
  EXPECT_EQ(doc.axes[0].size(), 2u);
  EXPECT_EQ(doc.axes[1].size(), 3u);  // 0.25, 0.5, 0.75
  EXPECT_EQ(doc.axes[2].size(), 2u);

  const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
  ASSERT_EQ(grid.size(), 12u);
  // Row-major with the last axis fastest.
  EXPECT_EQ(grid[0].labels,
            (std::vector<std::string>{"15k", "0.25", "run"}));
  EXPECT_EQ(grid[1].labels,
            (std::vector<std::string>{"15k", "0.25", "abort"}));
  EXPECT_EQ(grid[2].labels, (std::vector<std::string>{"15k", "0.5", "run"}));
  EXPECT_EQ(grid[11].labels,
            (std::vector<std::string>{"20k", "0.75", "abort"}));
  // Assignments landed in the specs.
  EXPECT_EQ(grid[0].spec.rate, 15000u);
  EXPECT_DOUBLE_EQ(grid[2].spec.experiment.sim.pruning.threshold, 0.5);
  EXPECT_FALSE(grid[0].spec.experiment.sim.abortRunningAtDeadline);
  EXPECT_TRUE(grid[1].spec.experiment.sim.abortRunningAtDeadline);
  EXPECT_EQ(grid[11].spec.rate, 20000u);
}

TEST(Sweep, GridPointsKeepThePairedSeed) {
  const ScenarioDoc doc = parseDoc(R"({
    "run": { "seed": 777 },
    "sweep": [
      { "field": "sim.heuristic", "values": ["MM", "MSD", "MMU"] },
      { "label": "p", "cases": [
        { "name": "off", "set": { "sim.pruning": { "enabled": false,
            "reactive_drop": false, "defer": false, "toggle": "never" } } },
        { "name": "on", "set": { "sim.pruning": {} } }
      ] }
    ]
  })");
  const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
  ASSERT_EQ(grid.size(), 6u);
  for (const exp::GridPoint& point : grid) {
    EXPECT_EQ(point.spec.experiment.baseSeed, 777u)
        << "paired-trials methodology: every grid point must see the same "
           "workload seeds";
    EXPECT_EQ(point.spec.experiment.trials, 8u);
  }
}

TEST(Sweep, CaseObjectAssignmentReplacesTheSubtree) {
  const ScenarioDoc doc = parseDoc(R"({
    "sim": { "pruning": { "threshold": 0.9 } },
    "sweep": [
      { "label": "p", "cases": [
        { "name": "paper", "set": { "sim.pruning": {} } }
      ] }
    ]
  })");
  const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
  ASSERT_EQ(grid.size(), 1u);
  // {} replaces the whole pruning object => paper defaults, not 0.9.
  EXPECT_DOUBLE_EQ(grid[0].spec.experiment.sim.pruning.threshold, 0.5);
}

TEST(Sweep, InvalidSweptValueFailsAtLoadWithContext) {
  try {
    (void)parseDoc(R"({
      "sweep": [
        { "field": "sim.heuristic", "values": ["MM", "NOPE"] }
      ]
    })");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("grid point [NOPE]"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown heuristic"), std::string::npos) << what;
  }
}

TEST(Sweep, RejectsMalformedAxes) {
  EXPECT_THROW(parseDoc(R"({"sweep": [{"values": [1]}]})"), ScenarioError);
  EXPECT_THROW(
      parseDoc(R"({"sweep": [{"field": "run.scale"}]})"), ScenarioError);
  EXPECT_THROW(parseDoc(R"({"sweep": [{"field": "run.scale",
      "values": [0.1], "range": {"from": 1, "to": 2, "step": 1}}]})"),
               ScenarioError);
  EXPECT_THROW(parseDoc(R"({"sweep": [{"field": "run.scale",
      "range": {"from": 1, "to": 2, "step": 0}}]})"),
               ScenarioError);
  EXPECT_THROW(parseDoc(R"({"sweep": [{"field": "run.scale",
      "values": [0.1, 0.2], "labels": ["only-one"]}]})"),
               ScenarioError);
  EXPECT_THROW(parseDoc(R"({"sweep": [{"cases": []}]})"), ScenarioError);
  EXPECT_THROW(parseDoc(R"({"sweep": [{"cases": [{"set": {}}]}]})"),
               ScenarioError);
}

TEST(Sweep, SetDirectiveParsesJsonValuesAndBareWords) {
  JsonValue root = util::parseJson(R"({"sim": {"heuristic": "MM"}})");
  exp::applySetDirective(root, "sim.heuristic=MSD");
  exp::applySetDirective(root, "run.scale=0.05");
  exp::applySetDirective(root, "sim.abort_at_deadline=true");
  exp::applySetDirective(root, "name=\"quoted name\"");
  EXPECT_EQ(root.find("sim")->find("heuristic")->asString(), "MSD");
  EXPECT_DOUBLE_EQ(root.find("run")->find("scale")->asNumber(), 0.05);
  EXPECT_EQ(root.find("sim")->find("abort_at_deadline")->asBool(), true);
  EXPECT_EQ(root.find("name")->asString(), "quoted name");
  EXPECT_THROW(exp::applySetDirective(root, "no-equals"), ScenarioError);
  EXPECT_THROW(exp::applySetDirective(root, "=5"), ScenarioError);
  // Traversing through a scalar is an error, not a silent overwrite.
  EXPECT_THROW(exp::applySetDirective(root, "sim.heuristic.x=1"),
               ScenarioError);
}

TEST(Sweep, DocRoundTripPreservesTheGrid) {
  const ScenarioDoc doc = parseDoc(R"({
    "workload": { "rate": 20000 },
    "sweep": [
      { "field": "sim.heuristic", "values": ["MM", "MSD"] },
      { "label": "p", "cases": [
        { "name": "on", "set": { "sim.pruning": {} } },
        { "name": "off", "set": { "sim.pruning": { "enabled": false,
            "reactive_drop": false, "defer": false, "toggle": "never" } } }
      ] }
    ]
  })");
  const ScenarioDoc again = exp::parseScenarioDoc(exp::writeScenarioDoc(doc));
  const auto grid1 = exp::expandGrid(doc);
  const auto grid2 = exp::expandGrid(again);
  ASSERT_EQ(grid1.size(), grid2.size());
  for (std::size_t i = 0; i < grid1.size(); ++i) {
    EXPECT_EQ(grid1[i].labels, grid2[i].labels);
    EXPECT_TRUE(exp::scenarioSpecToJson(grid1[i].spec) ==
                exp::scenarioSpecToJson(grid2[i].spec))
        << "grid point " << i;
  }
}

TEST(Sweep, ReportBlockBelongsToTheDocument) {
  const ScenarioDoc doc = parseDoc(R"({
    "report": { "metrics": ["type_spread_pp", "wasted_busy_pct"] },
    "sweep": [ { "field": "sim.heuristic", "values": ["MM", "MSD"] } ]
  })");
  EXPECT_EQ(doc.optInMetrics,
            (std::vector<std::string>{"type_spread_pp", "wasted_busy_pct"}));
  // parse -> emit -> parse is the identity, and emit is a fixed point.
  const std::string text = exp::writeScenarioDoc(doc);
  const ScenarioDoc again = exp::parseScenarioDoc(text);
  EXPECT_EQ(again.optInMetrics, doc.optInMetrics);
  EXPECT_EQ(exp::writeScenarioDoc(again), text);
  EXPECT_EQ(exp::expandGrid(again).size(), 2u);
  // An absent or empty block emits nothing.
  for (const char* empty : {R"({})", R"({"report": {}})",
                            R"({"report": {"metrics": []}})"}) {
    const ScenarioDoc none = parseDoc(empty);
    EXPECT_TRUE(none.optInMetrics.empty()) << empty;
    EXPECT_EQ(exp::writeScenarioDoc(none).find("report"), std::string::npos)
        << empty;
  }

  expectDocErrorAt("{\n \"report\": { \"metrics\": [\n  \"bogus\"] }\n}", 3,
                   "report.metrics: unknown opt-in row \"bogus\"");
  // A default row is always reported; naming it is an error too.
  expectDocErrorAt("{\n \"report\": { \"metrics\": [\"robustness_pct\"] }\n}",
                   2, "unknown opt-in row \"robustness_pct\"");
  expectDocErrorAt(
      "{\n \"report\": { \"metrics\": [\"cost_per_on_time\",\n"
      "  \"cost_per_on_time\"] }\n}",
      3, "duplicate row \"cost_per_on_time\"");
  expectDocErrorAt("{\n \"report\": {\n  \"metric\": [] }\n}", 3,
                   "report: unknown key \"metric\"");
  // Not inside a grid point: a sweep case, a swept field, a bare spec.
  expectDocErrorAt(
      "{\n \"sweep\": [ { \"cases\": [ { \"name\": \"a\", \"set\": {\n"
      "  \"report.metrics\": [\"type_spread_pp\"] } } ] } ]\n}",
      3, "belongs to the scenario document");
  expectDocErrorAt(
      "{\n \"sweep\": [ { \"cases\": [ { \"name\": \"a\", \"set\": {\n"
      "  \"report\": {} } } ] } ]\n}",
      3, "belongs to the scenario document");
  expectDocErrorAt(
      "{\n \"sweep\": [ {\n  \"field\": \"report.metrics\",\n"
      "  \"values\": [[]] } ]\n}",
      3, "belongs to the scenario document");
  try {
    (void)parseSpec("{\n \"report\": {}\n}");
    FAIL() << "expected ScenarioError";
  } catch (const ScenarioError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2: report: belongs to the "
                                         "scenario document"),
              std::string::npos)
        << e.what();
  }

  // --set reaches the report block and leaves it alone otherwise.
  const std::string file =
      std::string(HCS_SOURCE_DIR) + "/scenarios/ext_energy_cost.json";
  EXPECT_EQ(exp::loadScenarioDoc(file, {"run.trials=2"}).optInMetrics,
            exp::loadScenarioDoc(file).optInMetrics);
  EXPECT_EQ(
      exp::loadScenarioDoc(file, {"report.metrics=[\"type_spread_pp\"]"})
          .optInMetrics,
      std::vector<std::string>{"type_spread_pp"});
}

TEST(Sweep, RunSweepMatchesDirectExperiments) {
  // End-to-end: a 2x2 sweep at tiny scale must reproduce runExperiment on
  // the equivalent hand-built specs, byte for byte.
  const ScenarioDoc doc = parseDoc(R"({
    "run": { "trials": 2, "scale": 0.015 },
    "sweep": [
      { "field": "sim.heuristic", "values": ["MM", "MCT"] }
    ]
  })");
  const std::vector<exp::SweepOutcome> outcomes = exp::runSweep(doc);
  ASSERT_EQ(outcomes.size(), 2u);

  exp::PaperScenario::Options options;
  options.scale = 0.015;
  const exp::PaperScenario paper(options);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    exp::ExperimentSpec spec = paper.experimentSpec(
        exp::PaperScenario::kRate15k, workload::ArrivalPattern::Spiky);
    spec.trials = 2;
    spec.sim.heuristic = i == 0 ? "MM" : "MCT";
    const exp::ExperimentResult direct =
        exp::runExperiment(paper.hetero(), spec);
    EXPECT_EQ(outcomes[i].result.robustnessCi.mean,
              direct.robustnessCi.mean);
    EXPECT_EQ(outcomes[i].result.robustnessCi.halfWidth,
              direct.robustnessCi.halfWidth);
    EXPECT_EQ(outcomes[i].result.perTrialRobustness,
              direct.perTrialRobustness);
  }
}

/// A number leaf of a canonical scenario, with a change that keeps the
/// document valid: a span's low end moves down, every other number up.
struct NumberLeaf {
  std::string path;
  JsonValue* value;
  double step;
};

void numberLeaves(JsonValue& value, const std::string& path, double step,
                  std::vector<NumberLeaf>& leaves) {
  if (value.isNumber()) leaves.push_back({path, &value, step});
  if (value.isArray()) {
    for (std::size_t i = 0; i < value.array().size(); ++i) {
      numberLeaves(value.array()[i], path + "[" + std::to_string(i) + "]",
                   i == 0 ? -1.0 : 1.0, leaves);
    }
  }
  if (value.isObject()) {
    for (auto& [key, member] : value.object()) {
      numberLeaves(member, path + "." + key, 1.0, leaves);
    }
  }
}

TEST(Sweep, ModelCacheSharesThePaperScenario) {
  // Two grid points with identical PET/scale keys must reuse one
  // PaperScenario (the sweep runner's whole point); a swept pet seed must
  // not.
  const ScenarioDoc shared = parseDoc(R"({
    "run": { "trials": 1, "scale": 0.01 },
    "sweep": [ { "field": "sim.heuristic", "values": ["MM", "MSD"] },
               { "field": "workload.rate", "values": [15000, 20000] } ]
  })");
  const auto grid = exp::expandGrid(shared);
  ASSERT_EQ(grid.size(), 4u);
  for (const exp::GridPoint& point : grid) {
    EXPECT_EQ(exp::scenarioModelKey(point.spec),
              exp::scenarioModelKey(grid[0].spec));
  }

  const ScenarioDoc differing = parseDoc(R"({
    "run": { "trials": 1, "scale": 0.01 },
    "sweep": [ { "field": "pet.seed", "values": [1, 2] } ]
  })");
  const auto grid2 = exp::expandGrid(differing);
  EXPECT_NE(exp::scenarioModelKey(grid2[0].spec),
            exp::scenarioModelKey(grid2[1].spec));

  // Every leaf of the canonical pet block, and run.scale, is in the key:
  // changing any one of them changes it.
  const std::string base = exp::scenarioModelKey(ScenarioSpec{});
  JsonValue probe = exp::scenarioSpecToJson(ScenarioSpec{});
  std::vector<NumberLeaf> leaves;
  numberLeaves(*probe.find("pet"), "pet", 1.0, leaves);
  numberLeaves(*probe.find("run")->find("scale"), "run.scale", 1.0, leaves);
  EXPECT_GE(leaves.size(), 15u);
  for (const NumberLeaf& leaf : leaves) {
    const JsonValue saved = *leaf.value;
    *leaf.value = JsonValue(saved.asNumber() + leaf.step);
    EXPECT_NE(exp::scenarioModelKey(exp::parseScenarioSpec(probe)), base)
        << leaf.path;
    *leaf.value = saved;
  }
  EXPECT_EQ(exp::scenarioModelKey(exp::parseScenarioSpec(probe)), base);
}

}  // namespace
