// Fig. 8 — thin wrapper over scenarios/fig08_deferring_threshold.json.

#include <iostream>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace hcs;
  const bench::BenchArgs args = bench::BenchArgs::parse(argc, argv);
  bench::runScenarioFigure(
      args, "fig08_deferring_threshold.json", "Fig. 8",
      "Task deferring vs Pruning Threshold, batch-mode heuristics,\n"
      "heterogeneous cluster, spiky arrivals, 25k-equivalent load.\n"
      "Cells: % tasks completed on time (mean ±95% CI).");
  if (!args.csv) {
    std::cout
        << "\nPaper shape: without deferring (0%) robustness collapses "
           "(5-23%); any threshold >= 25%\nrecovers it to >= 44% and "
           "equalizes the three heuristics.  The paper plateaus at 50%;\n"
           "here gains continue mildly past 50% because deferred tasks are "
           "re-evaluated at every\nmapping event.\n";
  }
  return 0;
}
