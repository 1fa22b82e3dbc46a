#include "exp/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hcs::exp {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("Table: empty header");
  }
}

void Table::addRow(std::vector<std::string> cells) {
  if (cells.size() != header_.size()) {
    throw std::invalid_argument("Table: row width does not match header");
  }
  rows_.push_back(std::move(cells));
}

namespace {

/// Terminal cells occupied by a UTF-8 string (counts code points, not
/// bytes; the tables only use single-width characters such as '±').
std::size_t displayWidth(const std::string& s) {
  std::size_t width = 0;
  for (unsigned char c : s) {
    if ((c & 0xC0) != 0x80) ++width;  // skip UTF-8 continuation bytes
  }
  return width;
}

}  // namespace

void Table::print(std::ostream& out) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    width[c] = displayWidth(header_[c]);
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], displayWidth(row[c]));
    }
  }
  auto printRow = [&](const std::vector<std::string>& row) {
    out << '|';
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << ' ' << row[c]
          << std::string(width[c] - displayWidth(row[c]), ' ') << " |";
    }
    out << '\n';
  };
  printRow(header_);
  out << '|';
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out << std::string(width[c] + 2, '-') << '|';
  }
  out << '\n';
  for (const auto& row : rows_) printRow(row);
}

void Table::printCsv(std::ostream& out) const {
  auto printRow = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out << ',';
      out << row[c];
    }
    out << '\n';
  };
  printRow(header_);
  for (const auto& row : rows_) printRow(row);
}

std::string formatValue(double value, int precision) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(precision) << value;
  return out.str();
}

std::string formatCi(const stats::ConfidenceInterval& ci, int precision) {
  return formatValue(ci.mean, precision) + " ±" +
         formatValue(ci.halfWidth, precision);
}

Table experimentMetricsTable(const ExperimentResult& result) {
  Table table({"metric", "mean ±95% CI"});
  for (const ReportMetric& metric : reportMetrics()) {
    table.addRow({std::string(metric.label),
                  formatCi(result.ci(metric.key), metric.precision)});
  }
  return table;
}

namespace {

void emitTable(std::ostream& out, const Table& table, bool csv) {
  if (csv) {
    table.printCsv(out);
  } else {
    table.print(out);
  }
}

}  // namespace

util::JsonValue sweepReportJson(const ScenarioDoc& doc,
                                const std::vector<SweepOutcome>& outcomes) {
  using util::JsonValue;
  const ScenarioSpec base = doc.baseSpec();
  JsonValue root = JsonValue::makeObject();
  root.set("schema", "hcs-scenario-report-v1");
  root.set("name", base.name);
  root.set("description", base.description);
  // The fully-resolved canonical config, so the golden report also locks
  // default resolution, not just the file's explicit keys.
  root.set("config", scenarioSpecToJson(base));

  JsonValue axes = JsonValue::makeArray();
  for (const SweepAxis& axis : doc.axes) {
    JsonValue a = JsonValue::makeObject();
    a.set("label", axis.label);
    if (!axis.field.empty()) a.set("field", axis.field);
    JsonValue points = JsonValue::makeArray();
    for (const std::string& l : axis.valueLabels) points.append(l);
    a.set("points", std::move(points));
    axes.append(std::move(a));
  }
  root.set("axes", std::move(axes));

  JsonValue results = JsonValue::makeArray();
  for (const SweepOutcome& outcome : outcomes) {
    JsonValue record = JsonValue::makeObject();
    JsonValue labels = JsonValue::makeArray();
    for (const std::string& l : outcome.point.labels) labels.append(l);
    record.set("labels", std::move(labels));
    for (const ReportMetric& metric : reportMetrics()) {
      const stats::ConfidenceInterval ci = outcome.result.ci(metric.key);
      JsonValue m = JsonValue::makeObject();
      m.set("mean", ci.mean);
      m.set("ci95", ci.halfWidth);
      record.set(std::string(metric.key), std::move(m));
    }
    JsonValue trials = JsonValue::makeArray();
    for (double r : outcome.result.perTrialRobustness) trials.append(r);
    record.set("per_trial_robustness", std::move(trials));
    results.append(std::move(record));
  }
  root.set("results", std::move(results));
  return root;
}

namespace {

/// RFC-4180 quoting for the flat CSV (axis labels like "no Toggle, no
/// dropping" contain commas).
void writeCsvField(std::ostream& out, const std::string& field) {
  if (field.find_first_of(",\"\n") == std::string::npos) {
    out << field;
    return;
  }
  out << '"';
  for (const char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace

void printSweepCsv(std::ostream& out, const ScenarioDoc& doc,
                   const std::vector<SweepOutcome>& outcomes) {
  const char* sep = "";
  for (const SweepAxis& axis : doc.axes) {
    out << sep;
    writeCsvField(out, axis.label);
    sep = ",";
  }
  for (const ReportMetric& metric : reportMetrics()) {
    out << sep << metric.key << "_mean," << metric.key << "_ci95";
    sep = ",";
  }
  out << '\n';
  for (const SweepOutcome& outcome : outcomes) {
    sep = "";
    for (const std::string& label : outcome.point.labels) {
      out << sep;
      writeCsvField(out, label);
      sep = ",";
    }
    for (const ReportMetric& metric : reportMetrics()) {
      const stats::ConfidenceInterval ci = outcome.result.ci(metric.key);
      out << sep << util::formatJsonNumber(ci.mean) << ','
          << util::formatJsonNumber(ci.halfWidth);
      sep = ",";
    }
    out << '\n';
  }
}

void printSweepTables(std::ostream& out, const ScenarioDoc& doc,
                      const std::vector<SweepOutcome>& outcomes, bool csv) {
  const std::size_t numAxes = doc.axes.size();
  if (numAxes == 0) {
    if (!outcomes.empty()) {
      emitTable(out, experimentMetricsTable(outcomes.front().result), csv);
    }
    return;
  }
  if (numAxes == 1) {
    std::vector<std::string> header = {doc.axes[0].label};
    for (const ReportMetric& metric : reportMetrics()) {
      if (!metric.column.empty()) header.emplace_back(metric.column);
    }
    Table table(std::move(header));
    for (const SweepOutcome& outcome : outcomes) {
      std::vector<std::string> row = {outcome.point.labels[0]};
      for (const ReportMetric& metric : reportMetrics()) {
        if (metric.column.empty()) continue;
        row.push_back(
            formatCi(outcome.result.ci(metric.key), metric.precision));
      }
      table.addRow(std::move(row));
    }
    emitTable(out, table, csv);
    return;
  }

  const SweepAxis& rowAxis = doc.axes[numAxes - 2];
  const SweepAxis& colAxis = doc.axes[numAxes - 1];
  const std::size_t cols = colAxis.size();
  const std::size_t rows = rowAxis.size();
  const std::size_t sectionSize = rows * cols;
  const std::size_t sections = outcomes.size() / sectionSize;
  for (std::size_t s = 0; s < sections; ++s) {
    if (!csv && numAxes > 2) {
      out << "--- ";
      for (std::size_t a = 0; a + 2 < numAxes; ++a) {
        if (a > 0) out << ", ";
        out << doc.axes[a].label << "="
            << outcomes[s * sectionSize].point.labels[a];
      }
      out << " ---\n";
    }
    std::vector<std::string> header = {rowAxis.label};
    header.insert(header.end(), colAxis.valueLabels.begin(),
                  colAxis.valueLabels.end());
    Table table(std::move(header));
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row = {rowAxis.valueLabels[r]};
      for (std::size_t c = 0; c < cols; ++c) {
        const SweepOutcome& outcome =
            outcomes[s * sectionSize + r * cols + c];
        row.push_back(formatCi(outcome.result.robustnessCi));
      }
      table.addRow(std::move(row));
    }
    emitTable(out, table, csv);
    if (!csv && s + 1 < sections) out << '\n';
  }
}

}  // namespace hcs::exp
