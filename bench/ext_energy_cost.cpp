// Extension (§VII future work): measuring the energy and cost improvements
// the paper conjectures.  Runs MM bare vs pruned across oversubscription
// levels and reports the fraction of busy machine-energy wasted on failing
// tasks and the cloud cost per on-time task.  Both come straight from the
// trial's metrics: with one busy power for every machine the wasted share
// of busy energy is the wasted share of busy time, and at one cost unit per
// machine-time-unit the cluster's rental is machines x makespan.

#include <iostream>
#include <memory>

#include "bench_util.h"
#include "exp/scenario_spec.h"
#include "stats/confidence.h"

int main(int argc, char** argv) {
  using namespace hcs;
  const bench::Scenario run = bench::Scenario::loadPaper(argc, argv);
  const std::shared_ptr<const exp::PaperScenario> paper =
      exp::bindScenario(run.spec).paper;
  run.printHeader(
      "Extension: energy & cost (§VII)",
      "MM bare vs pruned, spiky arrivals.  Wasted-energy = busy energy "
      "spent on tasks\nthat missed their deadline; cost/on-time = full-"
      "cluster rental divided by on-time\ncompletions (uniform 100W busy / "
      "30W idle, 1 cost-unit per machine-time-unit).");

  const double machines = paper->hetero().numMachines();

  exp::Table table({"rate", "config", "robustness %", "wasted busy energy %",
                    "cost per on-time task"});
  for (std::size_t rate :
       {exp::PaperScenario::kRate15k, exp::PaperScenario::kRate20k,
        exp::PaperScenario::kRate25k}) {
    for (bool prune : {false, true}) {
      stats::RunningStats robustness, wasted, costPer;
      for (std::size_t trial = 0; trial < run.spec.experiment.trials; ++trial) {
        const workload::Workload wl = workload::Workload::generate(
            *paper->pet(),
            paper->arrivalSpec(rate, workload::ArrivalPattern::Spiky), {},
            run.spec.experiment.baseSeed + trial);
        core::SimulationConfig config;
        config.heuristic = "MM";
        config.warmupMargin = paper->warmupMargin(rate);
        config.pruning = prune ? pruning::PruningConfig{}
                               : pruning::PruningConfig::disabled();
        const core::TrialResult result =
            core::Simulation(paper->hetero(), wl, config).run();
        const sim::Metrics& m = result.metrics;
        const double busy = m.usefulBusyTime() + m.wastedBusyTime();
        const auto onTime = static_cast<double>(m.completedOnTime());
        robustness.add(result.robustnessPercent);
        wasted.add(busy > 0 ? 100.0 * m.wastedBusyTime() / busy : 0.0);
        costPer.add(onTime > 0 ? machines * result.makespan / onTime : 0.0);
      }
      table.addRow({std::to_string(rate / 1000) + "k",
                    prune ? "MM-P" : "MM",
                    exp::formatCi(stats::meanConfidenceInterval(robustness)),
                    exp::formatCi(stats::meanConfidenceInterval(wasted)),
                    exp::formatCi(stats::meanConfidenceInterval(costPer), 2)});
    }
  }
  run.emit(table);

  if (!run.csv) {
    std::cout << "\nExpected (the paper's conjecture): pruning slashes the "
                 "wasted-energy share and the\ncost per on-time task, "
                 "increasingly so with oversubscription.\n";
  }
  return 0;
}
