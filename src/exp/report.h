#pragma once
// Reporting: ASCII/CSV tables for bench binaries (the rows/series behind
// the paper's figures, mean +/- 95% CI as §V-A reports them) and the
// machine-readable JSON/CSV reports of scenario sweeps.

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "stats/confidence.h"

namespace hcs::exp {

/// Fixed-width ASCII table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void addRow(std::vector<std::string> cells);
  void print(std::ostream& out) const;
  void printCsv(std::ostream& out) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// "62.3 ±1.8" — the mean and 95% CI half-width.
std::string formatCi(const stats::ConfidenceInterval& ci, int precision = 1);

/// "62.3" with fixed precision.
std::string formatValue(double value, int precision = 1);

/// The single-experiment metric table hcs_sim prints (robustness, late %,
/// drop %, deferrals, utilization; mean ±95% CI rows).
Table experimentMetricsTable(const ExperimentResult& result);

/// Machine-readable sweep report: scenario name/description, the full
/// resolved config, the axes, and one record per grid point with every
/// aggregate metric (mean, 95% CI half-width, per-trial robustness).
/// Serialize with util::writeJson — the committed golden reports in
/// scenarios/golden/ are exactly this form.
util::JsonValue sweepReportJson(const ScenarioDoc& doc,
                                const std::vector<SweepOutcome>& outcomes);

/// Flat CSV: one row per grid point — axis labels, then the metric means
/// and CI half-widths (full precision, for spreadsheets/pandas).
void printSweepCsv(std::ostream& out, const ScenarioDoc& doc,
                   const std::vector<SweepOutcome>& outcomes);

/// Human-facing pivot rendering of `hcs_sim run`:
///  - 0 axes: the experimentMetricsTable
///  - 1 axis: rows = axis points, columns = metrics
///  - >=2 axes: rows = second-to-last axis, columns = last axis, one
///    sectioned table per combination of the leading axes; cells are
///    robustness mean ±95% CI, the paper's figure quantity.
/// `csv` switches every table to CSV (cells byte-identical either way).
void printSweepTables(std::ostream& out, const ScenarioDoc& doc,
                      const std::vector<SweepOutcome>& outcomes, bool csv);

}  // namespace hcs::exp
