// Capacity planning for an edge serverless site (§II motivates serverless
// on heterogeneous edge machines with budget constraints).
//
// Question a provider actually asks: "demand is about to double — do I buy
// more machines, or do I turn on probabilistic pruning?"  This example
// sweeps offered load on a fixed 8-machine edge site and prints the QoS
// (robustness) curve for MM bare vs MM + pruning, using the experiment
// framework's multi-trial confidence intervals.

#include <cstdio>
#include <iostream>

#include "exp/experiment.h"
#include "exp/report.h"
#include "exp/scenario.h"

int main() {
  using namespace hcs;

  exp::PaperScenario::Options options;
  options.scale = 0.1;  // keep the example snappy; intensity is unchanged
  const exp::PaperScenario site(options);
  constexpr std::size_t kTrials = 6;

  std::printf("edge site: %d heterogeneous machines, workload span %.0f "
              "time units, %zu trials per point\n\n",
              site.hetero().numMachines(), site.span(), kTrials);

  exp::Table table({"offered load (tasks)", "oversubscription",
                    "MM robustness %", "MM+prune robustness %",
                    "gain (pp)"});

  // 10k-equivalent is under capacity; 30k-equivalent is 2.5x oversubscribed.
  for (std::size_t rate : {10000u, 15000u, 20000u, 25000u, 30000u}) {
    exp::ExperimentSpec spec =
        site.experimentSpec(rate, workload::ArrivalPattern::Spiky);
    spec.trials = kTrials;
    spec.sim.heuristic = "MM";
    spec.sim.pruning = pruning::PruningConfig::disabled();
    const exp::ExperimentResult bare = exp::runExperiment(site.hetero(), spec);
    spec.sim.pruning = pruning::PruningConfig{};
    const exp::ExperimentResult prunedRun =
        exp::runExperiment(site.hetero(), spec);

    const double rho = 1.25 * static_cast<double>(rate) / 15000.0;
    table.addRow({std::to_string(site.scaledTasks(rate)),
                  exp::formatValue(rho, 2) + "x",
                  exp::formatCi(bare.robustnessCi),
                  exp::formatCi(prunedRun.robustnessCi),
                  exp::formatValue(prunedRun.robustnessCi.mean -
                                       bare.robustnessCi.mean,
                                   1)});
  }
  table.print(std::cout);

  std::printf(
      "\nReading the table: pruning buys the most QoS exactly where "
      "capacity planning is\nhardest — past the saturation point — without "
      "adding a single machine.\n");
  return 0;
}
