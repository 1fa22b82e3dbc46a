// Report renderings: the ASCII and --csv tables and the --flat CSV of tiny
// 0-, 1- and 2-axis sweeps, checked header by header and cell by cell
// against the JSON report of the same outcomes, with and without the
// opt-in rows; the metric table against its spelling here and in
// docs/scenario-schema.md; and the opt-in rows against their definitions.

#include "exp/report.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "util/json.h"

namespace {

using namespace hcs;
using util::JsonValue;

/// The reported metrics as the renderings spell them, in report order.
struct Spelling {
  const char* key;
  const char* label;   ///< experiment-table row
  const char* column;  ///< one-axis sweep column ("" = not shown)
  int precision;
  bool optIn = false;  ///< shown only when `report.metrics` names it
};

constexpr Spelling kSpellings[] = {
    {"robustness_pct", "robustness (% on time)", "robustness %", 1},
    {"completed_late_pct", "completed late %", "late %", 1},
    {"dropped_reactive_pct", "dropped reactive %", "dropped reactive %", 1},
    {"dropped_proactive_pct", "dropped proactive %", "dropped proactive %",
     1},
    {"deferrals_per_task", "deferrals per task", "deferrals/task", 2},
    {"mean_utilization", "mean machine utilization", "utilization", 2},
    {"abandoned_pct", "abandoned %", "", 1},
    {"rejected_pct", "rejected %", "", 1},
    {"retries_per_task", "retries per task", "", 2},
    {"failed_then_met_pct", "failed-then-met %", "", 1},
    {"machine_failures", "machine failures per trial", "", 2},
    {"utilization_pct", "utilization % (of online)", "", 1},
    {"machine_seconds", "machine-seconds (online)", "", 1},
    {"scale_ups", "scale-ups per trial", "", 2},
    {"scale_downs", "scale-downs per trial", "", 2},
    {"wasted_busy_pct", "wasted busy time %", "wasted busy %", 1, true},
    {"cost_per_on_time", "machine-seconds per on-time task", "cost/on-time",
     2, true},
    {"type_spread_pp", "per-type on-time spread (pp)", "type spread (pp)", 1,
     true},
    {"weighted_robustness_pct", "value-weighted robustness %",
     "weighted robustness %", 1, true},
};

/// Every opt-in row key, as `report.metrics` names them.
constexpr const char* kAllOptIn =
    R"("report": { "metrics": ["wasted_busy_pct", "cost_per_on_time",
                               "type_spread_pp", "weighted_robustness_pct"] })";

using Rows = std::vector<std::vector<std::string>>;

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> cells;
  std::stringstream in(line);
  for (std::string cell; std::getline(in, cell, sep);) cells.push_back(cell);
  return cells;
}

/// "| a | b |" rows (the "|---|" rule dropped), cells trimmed.
Rows parseAscii(const std::string& text) {
  Rows rows;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    EXPECT_EQ(line.front(), '|') << line;
    if (line.rfind("|-", 0) == 0) continue;
    std::vector<std::string> cells = split(line.substr(1), '|');
    for (std::string& cell : cells) {
      EXPECT_GE(cell.size(), 2u) << line;
      cell = cell.substr(1, cell.find_last_not_of(' '));
    }
    rows.push_back(std::move(cells));
  }
  return rows;
}

Rows parseCsv(const std::string& text) {
  Rows rows;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    rows.push_back(split(line, ','));
  }
  return rows;
}

struct Rendered {
  exp::ScenarioDoc doc;
  std::vector<exp::SweepOutcome> outcomes;
  JsonValue report;

  explicit Rendered(const std::string& text)
      : doc(exp::parseScenarioDoc(text)),
        outcomes(exp::runSweep(doc)),
        report(exp::sweepReportJson(doc, outcomes)) {}

  const JsonValue& record(std::size_t point) const {
    return report.find("results")->array().at(point);
  }

  /// Whether the renderings carry `metric` (opt-in rows only when named).
  bool shows(const Spelling& metric) const {
    const std::vector<std::string>& named = doc.optInMetrics;
    return !metric.optIn ||
           std::find(named.begin(), named.end(), metric.key) != named.end();
  }

  /// The shown metrics, in report order.
  std::vector<Spelling> shown() const {
    std::vector<Spelling> out;
    for (const Spelling& metric : kSpellings) {
      if (shows(metric)) out.push_back(metric);
    }
    return out;
  }

  /// The report's mean ±CI of `key` at `point`, formatted as a table cell.
  std::string cell(std::size_t point, const Spelling& metric) const {
    const JsonValue& m = *record(point).find(metric.key);
    return exp::formatCi({m.find("mean")->asNumber(),
                          m.find("ci95")->asNumber()},
                         metric.precision);
  }

  std::string tables(bool csv) const {
    std::ostringstream out;
    exp::printSweepTables(out, doc, outcomes, csv);
    return out.str();
  }

  /// Both table renderings parse to `expected`.
  void expectTables(const Rows& expected) const {
    EXPECT_EQ(parseAscii(tables(false)), expected);
    EXPECT_EQ(parseCsv(tables(true)), expected);
  }

  /// The --flat CSV: axis labels, then each metric's mean and ci95 at full
  /// precision, one row per grid point.
  void expectFlatCsv() const {
    Rows expected(1);
    for (const exp::SweepAxis& axis : doc.axes) {
      expected[0].push_back(axis.label);
    }
    for (const Spelling& metric : shown()) {
      expected[0].push_back(std::string(metric.key) + "_mean");
      expected[0].push_back(std::string(metric.key) + "_ci95");
    }
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      std::vector<std::string> row = outcomes[p].point.labels;
      for (const Spelling& metric : shown()) {
        const JsonValue& m = *record(p).find(metric.key);
        row.push_back(util::formatJsonNumber(m.find("mean")->asNumber()));
        row.push_back(util::formatJsonNumber(m.find("ci95")->asNumber()));
      }
      expected.push_back(std::move(row));
    }
    std::ostringstream out;
    exp::printSweepCsv(out, doc, outcomes);
    EXPECT_EQ(parseCsv(out.str()), expected);
  }
};

TEST(ReportTest, JsonRecordsCarryEveryMetricInReportOrder) {
  // Without a report block the records carry the default rows; naming
  // every opt-in row (in any order) adds them at the end, in report order.
  for (const std::string report :
       {std::string(), std::string(kAllOptIn) + ",",
        std::string(R"("report": { "metrics": ["weighted_robustness_pct",
                                               "type_spread_pp"] },)")}) {
    const Rendered r("{" + report +
                     R"("run": { "trials": 2, "scale": 0.02 }})");
    std::vector<std::string> expected = {"labels"};
    for (const Spelling& metric : r.shown()) expected.push_back(metric.key);
    expected.push_back("per_trial_robustness");
    std::vector<std::string> keys;
    for (const auto& [key, value] : r.record(0).object()) keys.push_back(key);
    EXPECT_EQ(keys, expected) << report;
  }
}

TEST(ReportTest, NoAxisPrintsTheExperimentTable) {
  // Churn makes the fault rows non-zero.
  for (const std::string report :
       {std::string(), std::string(kAllOptIn) + ","}) {
    const Rendered r("{" + report + R"(
      "run": { "trials": 2, "scale": 0.02 },
      "faults": { "enabled": true, "mtbf": 50.0, "mttr": 8.0 }
    })");
    Rows expected = {{"metric", "mean ±95% CI"}};
    for (const Spelling& metric : r.shown()) {
      expected.push_back({metric.label, r.cell(0, metric)});
    }
    ASSERT_EQ(expected.size(),
              1 + std::size(kSpellings) - (report.empty() ? 4 : 0));
    r.expectTables(expected);
    r.expectFlatCsv();
  }
}

TEST(ReportTest, OneAxisPrintsOneRowPerPoint) {
  for (const std::string report :
       {std::string(), std::string(R"("report": { "metrics":
                                      ["cost_per_on_time"] },)")}) {
    const Rendered r("{" + report + R"(
      "run": { "trials": 2, "scale": 0.02 },
      "sweep": [ { "label": "pruning", "cases": [
        { "name": "off", "set": { "sim.pruning": { "enabled": false } } },
        { "name": "on", "set": { "sim.pruning": {} } } ] } ]
    })");
    Rows expected = {{"pruning"}};
    for (const Spelling& metric : r.shown()) {
      if (*metric.column != '\0') expected[0].push_back(metric.column);
    }
    for (std::size_t p = 0; p < r.outcomes.size(); ++p) {
      std::vector<std::string> row = {r.outcomes[p].point.labels[0]};
      for (const Spelling& metric : r.shown()) {
        if (*metric.column != '\0') row.push_back(r.cell(p, metric));
      }
      expected.push_back(std::move(row));
    }
    ASSERT_EQ(expected.size(), 3u);
    EXPECT_EQ(expected[0].back(),
              report.empty() ? "utilization" : "cost/on-time");
    r.expectTables(expected);
    r.expectFlatCsv();
  }
}

TEST(ReportTest, TwoAxesPivotRobustness) {
  const Rendered r(R"({
    "run": { "trials": 2, "scale": 0.02 },
    "sweep": [
      { "field": "workload.rate", "values": [15000, 25000],
        "labels": ["15k", "25k"] },
      { "field": "sim.heuristic", "label": "heuristic",
        "values": ["MM", "MSD", "MMU"] } ]
  })");
  const Spelling& robustness = kSpellings[0];
  const Rows expected = {
      {"workload.rate", "MM", "MSD", "MMU"},
      {"15k", r.cell(0, robustness), r.cell(1, robustness),
       r.cell(2, robustness)},
      {"25k", r.cell(3, robustness), r.cell(4, robustness),
       r.cell(5, robustness)},
  };
  r.expectTables(expected);
  r.expectFlatCsv();
}

TEST(ReportTest, MetricTableSpellsEveryMetricAsTheRenderingsDo) {
  const auto metrics = exp::reportMetrics();
  ASSERT_EQ(metrics.size(), std::size(kSpellings));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    EXPECT_EQ(metrics[i].key, kSpellings[i].key);
    EXPECT_EQ(metrics[i].label, kSpellings[i].label);
    EXPECT_EQ(metrics[i].column, kSpellings[i].column);
    EXPECT_EQ(metrics[i].precision, kSpellings[i].precision);
    EXPECT_EQ(metrics[i].optIn, kSpellings[i].optIn);
    // An opt-in row shows in one-axis tables, so it needs a column.
    if (metrics[i].optIn) EXPECT_FALSE(metrics[i].column.empty());
  }
  const exp::ExperimentResult empty;
  EXPECT_THROW((void)empty.metric("robustness"), std::out_of_range);
}

/// The per-trial value of the report row `key`.
std::optional<double> perTrial(std::string_view key,
                               const core::TrialResult& trial) {
  for (const exp::ReportMetric& metric : exp::reportMetrics()) {
    if (metric.key == key) return metric.perTrial(trial);
  }
  ADD_FAILURE() << "no report row " << key;
  return std::nullopt;
}

TEST(ReportTest, OptInRowsMatchTheirDefinitions) {
  const exp::ScenarioSpec spec = exp::parseScenarioSpec(
      util::parseJson(R"({ "run": { "trials": 3, "scale": 0.02 } })"));
  const exp::BoundScenario bound = exp::bindScenario(spec);
  const exp::TrialRunner runner(*bound.model, bound.experiment);
  const double machines = bound.model->numMachines();
  for (std::size_t t = 0; t < runner.trials(); ++t) {
    const core::TrialResult trial = runner.runTrial(t);
    const sim::Metrics& m = trial.metrics;
    ASSERT_GT(m.completedOnTime(), 0u);
    // On a fixed cluster every machine is online for the whole makespan,
    // so the cost per on-time task is the full-cluster rental over the
    // on-time completions.
    const double rental =
        machines * trial.makespan / static_cast<double>(m.completedOnTime());
    EXPECT_NEAR(*perTrial("cost_per_on_time", trial), rental, 1e-12 * rental);
    // Every task is worth 1 without a value mix.
    EXPECT_DOUBLE_EQ(*perTrial("weighted_robustness_pct", trial),
                     *perTrial("robustness_pct", trial));
    const double busy = m.usefulBusyTime() + m.wastedBusyTime();
    EXPECT_DOUBLE_EQ(*perTrial("wasted_busy_pct", trial),
                     100.0 * m.wastedBusyTime() / busy);
    const std::optional<double> spread = perTrial("type_spread_pp", trial);
    ASSERT_TRUE(spread.has_value());
    EXPECT_GE(*spread, 0.0);
    EXPECT_LE(*spread, 100.0);
  }
  // A trial with nothing on time and no task of any type is left out of
  // the cost and spread rows.
  const core::TrialResult empty;
  EXPECT_FALSE(perTrial("cost_per_on_time", empty).has_value());
  EXPECT_FALSE(perTrial("type_spread_pp", empty).has_value());
  EXPECT_EQ(perTrial("wasted_busy_pct", empty), 0.0);
}

TEST(ReportTest, SchemaDocsHaveOneRowPerReportMetric) {
  std::ifstream in(std::string(HCS_SOURCE_DIR) + "/docs/scenario-schema.md");
  ASSERT_TRUE(in) << "cannot open docs/scenario-schema.md";
  // "| `key` | label | column (— for none) | meaning |" rows of § Reports.
  Rows documented;
  bool inReports = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("## ", 0) == 0) inReports = line == "## Reports";
    if (!inReports || line.rfind("| `", 0) != 0) continue;
    std::vector<std::string> cells = parseAscii(line).at(0);
    ASSERT_GE(cells.size(), 3u) << line;
    cells.resize(3);
    cells[0] = cells[0].substr(1, cells[0].size() - 2);  // strip backticks
    if (cells[2] == "—") cells[2].clear();
    documented.push_back(std::move(cells));
  }
  Rows expected;
  for (const exp::ReportMetric& metric : exp::reportMetrics()) {
    expected.push_back({std::string(metric.key), std::string(metric.label),
                        std::string(metric.column)});
  }
  EXPECT_EQ(documented, expected);
}

}  // namespace
