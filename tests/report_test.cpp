// Report renderings: the ASCII and --csv tables and the --flat CSV of tiny
// 0-, 1- and 2-axis sweeps, checked header by header and cell by cell
// against the JSON report of the same outcomes; and the metric table
// against its spelling here and in docs/scenario-schema.md.

#include "exp/report.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
};

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
    for (const Spelling& metric : kSpellings) {
      expected[0].push_back(std::string(metric.key) + "_mean");
      expected[0].push_back(std::string(metric.key) + "_ci95");
    }
    for (std::size_t p = 0; p < outcomes.size(); ++p) {
      std::vector<std::string> row = outcomes[p].point.labels;
      for (const Spelling& metric : kSpellings) {
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
  const Rendered r(R"({ "run": { "trials": 2, "scale": 0.02 } })");
  std::vector<std::string> expected = {"labels"};
  for (const Spelling& metric : kSpellings) expected.push_back(metric.key);
  expected.push_back("per_trial_robustness");
  std::vector<std::string> keys;
  for (const auto& [key, value] : r.record(0).object()) keys.push_back(key);
  EXPECT_EQ(keys, expected);
}

TEST(ReportTest, NoAxisPrintsTheExperimentTable) {
  // Churn makes the fault rows non-zero.
  const Rendered r(R"({
    "run": { "trials": 2, "scale": 0.02 },
    "faults": { "enabled": true, "mtbf": 50.0, "mttr": 8.0 }
  })");
  Rows expected = {{"metric", "mean ±95% CI"}};
  for (const Spelling& metric : kSpellings) {
    expected.push_back({metric.label, r.cell(0, metric)});
  }
  r.expectTables(expected);
  r.expectFlatCsv();
}

TEST(ReportTest, OneAxisPrintsOneRowPerPoint) {
  const Rendered r(R"({
    "run": { "trials": 2, "scale": 0.02 },
    "sweep": [ { "label": "pruning", "cases": [
      { "name": "off", "set": { "sim.pruning": { "enabled": false } } },
      { "name": "on", "set": { "sim.pruning": {} } } ] } ]
  })");
  Rows expected = {{"pruning"}};
  for (const Spelling& metric : kSpellings) {
    if (*metric.column != '\0') expected[0].push_back(metric.column);
  }
  for (std::size_t p = 0; p < r.outcomes.size(); ++p) {
    std::vector<std::string> row = {r.outcomes[p].point.labels[0]};
    for (const Spelling& metric : kSpellings) {
      if (*metric.column != '\0') row.push_back(r.cell(p, metric));
    }
    expected.push_back(std::move(row));
  }
  ASSERT_EQ(expected.size(), 3u);
  r.expectTables(expected);
  r.expectFlatCsv();
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
  }
  const exp::ExperimentResult empty;
  EXPECT_THROW((void)empty.metric("robustness"), std::out_of_range);
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
