// Ablation: machine-queue capacity.  Runs scenarios/ablation_queue_depth.json
// and adds the derived "pruning gain" column the generic pivot doesn't
// compute.

#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hcs;
  const bench::Scenario run =
      bench::Scenario::load(argc, argv, "ablation_queue_depth.json", {});
  run.printHeader(
      "Ablation: machine-queue capacity",
      "MM with and without pruning at 20k-equivalent spiky load, varying "
      "the\nper-machine queue capacity (running + waiting slots).");

  const std::vector<exp::SweepOutcome> outcomes = exp::runSweep(run.doc);
  // Grid: capacity (rows) x {baseline, pruned} (2 columns, last axis
  // fastest).
  exp::Table table(
      {"capacity", "MM baseline", "MM pruned", "pruning gain (pp)"});
  for (std::size_t r = 0; r + 1 < outcomes.size(); r += 2) {
    const exp::SweepOutcome& base = outcomes[r];
    const exp::SweepOutcome& pruned = outcomes[r + 1];
    table.addRow({base.point.labels[0],
                  exp::formatCi(base.result.robustnessCi),
                  exp::formatCi(pruned.result.robustnessCi),
                  exp::formatValue(pruned.result.robustnessCi.mean -
                                       base.result.robustnessCi.mean,
                                   1)});
  }
  run.emit(table);

  if (!run.csv) {
    std::cout << "\nExpected: the baseline degrades as capacity grows "
                 "(earlier commitment to machine\nqueues); the pruned "
                 "system stays flat, so the gain widens.\n";
  }
  return 0;
}
