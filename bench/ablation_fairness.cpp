// Ablation: the Fairness module (§IV-D).  Sweeps the fairness factor c and
// reports both robustness and the *spread* of per-type drop rates — the
// quantity fairness is supposed to compress.  c = 0 disables the module.

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "exp/scenario_spec.h"
#include "core/simulation.h"
#include "exp/experiment.h"

namespace {

using namespace hcs;

/// Max-minus-min per-type on-time completion rate over one experiment's
/// trials (lower = fairer).
struct FairnessProbe {
  stats::RunningStats robustness;
  stats::RunningStats spread;
};

FairnessProbe probe(const exp::PaperScenario& scenario, double factor,
                    const exp::ScenarioSpec& spec) {
  FairnessProbe out;
  for (std::size_t trial = 0; trial < spec.experiment.trials; ++trial) {
    const workload::Workload wl = workload::Workload::generate(
        *scenario.pet(),
        scenario.arrivalSpec(exp::PaperScenario::kRate25k,
                             workload::ArrivalPattern::Spiky),
        {}, spec.experiment.baseSeed + trial);
    core::SimulationConfig config;
    config.heuristic = "MM";
    config.pruning.fairnessFactor = factor;
    config.warmupMargin = scenario.warmupMargin(exp::PaperScenario::kRate25k);
    const core::TrialResult result =
        core::Simulation(scenario.hetero(), wl, config).run();
    out.robustness.add(result.robustnessPercent);

    double lo = 101.0, hi = -1.0;
    for (const auto& type : result.metrics.perType()) {
      if (type.total() == 0) continue;
      const double rate = 100.0 * static_cast<double>(type.completedOnTime) /
                          static_cast<double>(type.total());
      lo = std::min(lo, rate);
      hi = std::max(hi, rate);
    }
    if (hi >= lo) out.spread.add(hi - lo);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scenario run = bench::Scenario::loadPaper(argc, argv);
  const std::shared_ptr<const exp::PaperScenario> paper =
      exp::bindScenario(run.spec).paper;
  run.printHeader(
      "Ablation: fairness factor",
      "MM + full pruning at 25k-equivalent spiky load.  Spread = max-min "
      "per-type\non-time completion rate (lower = fairer).  c = 0 disables "
      "the Fairness module;\nthe paper default is c = 0.05.");

  exp::Table table({"fairness c", "robustness %", "per-type spread (pp)"});
  for (double c : {0.0, 0.025, 0.05, 0.1, 0.2, 0.4}) {
    const FairnessProbe result = probe(*paper, c, run.spec);
    table.addRow({exp::formatValue(c, 3),
                  exp::formatCi(stats::meanConfidenceInterval(
                      result.robustness)),
                  exp::formatCi(stats::meanConfidenceInterval(result.spread))});
  }
  run.emit(table);

  if (!run.csv) {
    std::cout
        << "\nFinding: with Eq. 4 deadlines (slack proportional to each "
           "type's own mean), the\nchance-based policy is already nearly "
           "type-neutral, so the Fairness module's score\nrarely leaves "
           "zero and c has little effect — the bias §IV-D guards against "
           "shows up\nonly when deadlines are type-blind.  The paper never "
           "evaluates fairness\nquantitatively; this ablation documents "
           "why.\n";
  }
  return 0;
}
