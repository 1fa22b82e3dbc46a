#pragma once
// Parameter sweeps over scenario files: the "sweep" key of a scenario
// document is an ordered list of axes, each either
//
//   { "field": "workload.rate", "values": [15000, 20000, 25000],
//     "labels": ["15k", "20k", "25k"] }          // labels optional
//   { "field": "sim.pruning.threshold",
//     "range": { "from": 0.25, "to": 0.75, "step": 0.25 } }
//   { "label": "variant", "cases": [
//       { "name": "MM",   "set": { "sim.heuristic": "MM" } },
//       { "name": "MM-P", "set": { "sim.heuristic": "MM",
//                                  "sim.pruning": {} } } ] }
//
// A values/range axis sweeps one dotted-path field; a cases axis names
// arbitrary multi-field patches (each `set` entry assigns a JSON value at
// a dotted path — objects replace the whole subtree, so `"sim.pruning":
// {}` means "paper-default pruning").  The grid is the Cartesian product
// in declared order with the LAST axis varying fastest, every grid point
// keeps the document's base seed (the paper's paired-trials methodology),
// and each point's trials execute through the existing ParallelExecutor.
//
// The document may also carry a "report" block naming the opt-in report
// rows it prints (see ReportMetric::optIn):
//
//   "report": { "metrics": ["wasted_busy_pct", "cost_per_on_time"] }
//
// Like "sweep" it belongs to the document, not to a grid point.

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "exp/scenario_spec.h"
#include "util/json.h"

namespace hcs::exp {

struct SweepCase {
  std::string name;
  /// Dotted-path assignments applied to the base document.
  std::vector<std::pair<std::string, util::JsonValue>> sets;
};

struct SweepAxis {
  /// Swept field (values/range axes); empty for cases axes.
  std::string field;
  /// Axis display name: explicit "label", else the field path, else
  /// "cases".
  std::string label;
  /// Expanded values (values/range axes).
  std::vector<util::JsonValue> values;
  /// Per-value display labels (same length as values or cases).
  std::vector<std::string> valueLabels;
  /// Cases axes.
  std::vector<SweepCase> cases;

  bool isCases() const { return !cases.empty(); }
  std::size_t size() const {
    return isCases() ? cases.size() : values.size();
  }
};

/// A parsed scenario file: the base scenario JSON (sweep and report keys
/// removed), the sweep axes and the opt-in report rows.
struct ScenarioDoc {
  util::JsonValue base;  ///< scenario object, validated against the schema
  std::vector<SweepAxis> axes;
  /// `report.metrics`: the opt-in rows to report, in the file's order.
  std::vector<std::string> optInMetrics;
  std::string origin;  ///< file name for error messages ("" = inline)

  /// The base document parsed as a spec (grid point 0 of an empty sweep).
  ScenarioSpec baseSpec() const { return parseScenarioSpec(base); }

  /// Whether the reports carry `metric`: every default row, and an opt-in
  /// row when `report.metrics` names it.
  bool reports(const ReportMetric& metric) const;
};

/// Parses a scenario document from JSON text; validates the base scenario
/// and every axis (including that each grid point's patched document still
/// parses).  Throws ScenarioError / util::JsonError with line context.
ScenarioDoc parseScenarioDoc(const std::string& text,
                             const std::string& origin = "");

/// parseScenarioDoc over a file's contents.
ScenarioDoc loadScenarioDoc(const std::string& path);

/// loadScenarioDoc with `--set path=value` directives applied to the base
/// document, which is then re-parsed strictly; error lines then refer to
/// the canonical form (`hcs_sim print` shows it).  A directive that
/// targets "sweep" is refused; one that targets "report" sets the report
/// block.
ScenarioDoc loadScenarioDoc(const std::string& path,
                            const std::vector<std::string>& sets);

/// Canonical serialization of base + report + sweep; parse -> write ->
/// parse is the identity on the expanded grid and the report rows.
std::string writeScenarioDoc(const ScenarioDoc& doc);

/// Assigns `value` at dotted `path` inside `root`, creating intermediate
/// objects as needed.  Object values replace the whole subtree.  Throws
/// ScenarioError when the path traverses a non-object.
void setJsonPath(util::JsonValue& root, const std::string& path,
                 util::JsonValue value);

/// Parses "path=value" (value as JSON; bare words become strings) and
/// applies it — the CLI's --set and the sweep cases share this code path.
void applySetDirective(util::JsonValue& root, const std::string& directive);

/// One expanded grid point.
struct GridPoint {
  std::vector<std::size_t> index;       ///< per-axis selection
  std::vector<std::string> labels;      ///< per-axis display label
  util::JsonValue json;                 ///< patched scenario object
  ScenarioSpec spec;                    ///< parsed + validated
};

/// Expands the document's sweep axes into the full grid (row-major, last
/// axis fastest).  A document with no axes yields exactly one point.
std::vector<GridPoint> expandGrid(const ScenarioDoc& doc);

/// A grid point plus its experiment outcome.
struct SweepOutcome {
  GridPoint point;
  ExperimentResult result;
};

/// Runs every grid point (sequentially; each point's trials run on the
/// point's `run.jobs` ParallelExecutor threads) against models cached by
/// scenarioModelKey(), so a sweep that only varies heuristics synthesizes
/// the PET matrix once.  `progress` (optional) is invoked before each
/// point with (pointIndex, pointCount, label).
std::vector<SweepOutcome> runSweep(
    const ScenarioDoc& doc,
    const std::function<void(std::size_t, std::size_t, const std::string&)>&
        progress = {});

}  // namespace hcs::exp
