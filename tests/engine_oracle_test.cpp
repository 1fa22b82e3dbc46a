// The engines' reference oracles, run on committed scenario files: every
// grid cell of each scenario must give field-for-field identical trials
// with the default engines and with one reference path switched on.
//  - PCT cache: fig07b/fig08/fig09 at run.scale 0.1 against
//    pctCacheEnabled = false (every chance from the full convolution).
//    They sweep the deferring threshold (the bar) and every batch
//    heuristic.
//  - Mapping engine: fig07b, fig09, the queue-capacity ablation and the
//    deep_queue, paper_pruned and fed_churn benchmark shapes at run.scale
//    0.05 against incrementalMappingEnabled = false (a throwaway context
//    and a full two-phase re-evaluation every round, walking every
//    machine).  They cover Toggle, every batch heuristic, saturated
//    clusters, and churn with retries and an elastic pool.
// Every scenario runs 2 trials.  HCS_SCALE, when set below a case's scale,
// shrinks it (the coverage CI leg).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "trial_compare.h"

namespace {

using namespace hcs;

struct OracleCase {
  const char* file;  ///< relative to the source tree
  double scale;
  bool core::SimulationConfig::*oracle;
};

std::ostream& operator<<(std::ostream& os, const OracleCase& c) {
  return os << c.file << " @ " << c.scale;
}

/// The scenario's file name without directory or extension.
std::string caseName(const ::testing::TestParamInfo<OracleCase>& info) {
  std::string name = info.param.file;
  name = name.substr(name.rfind('/') + 1);
  return name.substr(0, name.find('.'));
}

double caseScale(double scale) {
  if (const char* env = std::getenv("HCS_SCALE")) {
    const double s = std::strtod(env, nullptr);
    if (s > 0.0) return std::min(s, scale);
  }
  return scale;
}

class EngineOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(EngineOracle, EveryGridCellMatchesTheReferencePath) {
  const OracleCase& c = GetParam();
  std::ostringstream scale;
  scale << "run.scale=" << caseScale(c.scale);
  const exp::ScenarioDoc doc =
      exp::loadScenarioDoc(std::string(HCS_SOURCE_DIR) + "/" + c.file,
                           {scale.str(), "run.trials=2"});
  std::map<std::string, std::shared_ptr<const exp::PaperScenario>> models;
  for (const exp::GridPoint& point : exp::expandGrid(doc)) {
    std::shared_ptr<const exp::PaperScenario>& cached =
        models[exp::scenarioModelKey(point.spec)];
    const exp::BoundScenario bound = exp::bindScenario(point.spec, cached);
    cached = bound.paper;
    std::string label = c.file;
    for (const std::string& l : point.labels) label += " " + l;
    testutil::expectEnginesAgree(bound, c.oracle, label);
  }
}

constexpr auto kPctCache = &core::SimulationConfig::pctCacheEnabled;
constexpr auto kMapping = &core::SimulationConfig::incrementalMappingEnabled;

INSTANTIATE_TEST_SUITE_P(
    PctCache, EngineOracle,
    ::testing::Values(
        OracleCase{"scenarios/fig07b_toggle_batch.json", 0.1, kPctCache},
        OracleCase{"scenarios/fig08_deferring_threshold.json", 0.1,
                   kPctCache},
        OracleCase{"scenarios/fig09_batch_pruning.json", 0.1, kPctCache}),
    caseName);

INSTANTIATE_TEST_SUITE_P(
    MappingEngine, EngineOracle,
    ::testing::Values(
        OracleCase{"scenarios/fig07b_toggle_batch.json", 0.05, kMapping},
        OracleCase{"scenarios/fig09_batch_pruning.json", 0.05, kMapping},
        OracleCase{"scenarios/ablation_queue_depth.json", 0.05, kMapping},
        OracleCase{"perfbench/scenarios/deep_queue.json", 0.05, kMapping},
        OracleCase{"perfbench/scenarios/paper_pruned.json", 0.05, kMapping},
        OracleCase{"perfbench/scenarios/fed_churn.json", 0.05, kMapping}),
    caseName);

}  // namespace
