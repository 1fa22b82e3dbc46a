// hcs_sim — command-line driver for the simulation platform.
//
// Every run is a declarative JSON scenario file, optionally with
// parameter-sweep axes, executed through the shared sweep runner; every
// paper figure is one of them.  `--set path=value` overrides any key.
//
//   hcs_sim run scenarios/fig09_batch_pruning.json
//   hcs_sim run scenarios/smoke.json --out report.json
//   hcs_sim run scenarios/fig08_deferring_threshold.json
//       --set run.scale=0.05 --set run.trials=3 --csv
//   hcs_sim run scenarios/paper.json --set sim.heuristic=EDF
//       --set cluster.kind=homogeneous          # one paper-default experiment
//   hcs_sim run scenarios/paper.json --set stream.enabled=true
//       --set stream.trace=trial.trace          # replay a saved trace
//   hcs_sim expand scenarios/fig09_batch_pruning.json   # dry-run the grid
//   hcs_sim print scenarios/smoke.json                  # canonical form

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "exp/report.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "util/json.h"

namespace {

using namespace hcs;

void usage(const char* argv0, std::FILE* out) {
  std::fprintf(out,
      "usage: %s <command> [options]\n"
      "\n"
      "commands:\n"
      "  run <scenario.json>    execute the scenario (and its sweep grid)\n"
      "    --set path=value     override any field (repeatable), e.g.\n"
      "                         --set sim.heuristic=MSD --set run.scale=0.05\n"
      "    --out FILE           write the machine-readable JSON report\n"
      "    --csv                tables as CSV (flat per-point CSV on stdout\n"
      "                         with --flat)\n"
      "    --flat               flat per-grid-point CSV instead of tables\n"
      "    --quiet              suppress progress lines on stderr\n"
      "  expand <scenario.json> [--set ...]  list the expanded grid, no runs\n"
      "  print <scenario.json> [--set ...]   canonical full-form scenario\n"
      "  validate <scenario.json> [--set ...]  strict-parse and show the\n"
      "                         resolved config without running; exit 2 with\n"
      "                         a line-numbered error on schema violations\n"
      "\n"
      "Scenario keys are documented in docs/scenario-schema.md; for a\n"
      "one-off paper-default experiment, run scenarios/paper.json with\n"
      "--set overrides.\n",
      argv0);
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "hcs_sim: %s\n", message.c_str());
  std::exit(2);
}

[[noreturn]] void dieWithUsage(const char* argv0, const std::string& message) {
  std::fprintf(stderr, "hcs_sim: %s\n\n", message.c_str());
  usage(argv0, stderr);
  std::exit(2);
}

struct ScenarioArgs {
  std::string path;
  std::vector<std::string> sets;
  std::string outPath;
  bool csv = false;
  bool flat = false;
  bool quiet = false;
};

ScenarioArgs parseScenarioArgs(const char* argv0, int argc, char** argv,
                               int first, bool runOptions) {
  ScenarioArgs args;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) dieWithUsage(argv0, "missing argument after " + arg);
      return argv[++i];
    };
    // --out/--csv/--flat/--quiet only mean something for `run`; accepting
    // them elsewhere would silently not do what the user asked.
    if (arg == "--set") {
      args.sets.emplace_back(next());
    } else if (arg == "--out" && runOptions) {
      args.outPath = next();
    } else if (arg == "--csv" && runOptions) {
      args.csv = true;
    } else if (arg == "--flat" && runOptions) {
      args.flat = true;
    } else if (arg == "--quiet" && runOptions) {
      args.quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv0, stdout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      dieWithUsage(argv0, "unknown option " + arg);
    } else if (args.path.empty()) {
      args.path = arg;
    } else {
      dieWithUsage(argv0, "unexpected argument " + arg);
    }
  }
  if (args.path.empty()) {
    dieWithUsage(argv0, "missing scenario file");
  }
  return args;
}

int cmdRun(const char* argv0, int argc, char** argv) {
  const ScenarioArgs args =
      parseScenarioArgs(argv0, argc, argv, 2, /*runOptions=*/true);
  const exp::ScenarioDoc doc = exp::loadScenarioDoc(args.path, args.sets);
  const auto progress = [&](std::size_t i, std::size_t n,
                            const std::string& label) {
    if (args.quiet) return;
    std::fprintf(stderr, "[%zu/%zu] %s\n", i + 1, n,
                 label.empty() ? "run" : label.c_str());
  };
  const std::vector<exp::SweepOutcome> outcomes =
      exp::runSweep(doc, progress);
  if (args.flat) {
    exp::printSweepCsv(std::cout, doc, outcomes);
  } else {
    const exp::ScenarioSpec base = doc.baseSpec();
    if (!args.csv) {
      std::printf("scenario: %s\n",
                  base.name.empty() ? args.path.c_str() : base.name.c_str());
      if (!base.description.empty()) {
        std::printf("%s\n", base.description.c_str());
      }
      std::printf("scale=%g trials=%zu seed=%llu grid=%zu\n\n",
                  base.pet.scale, base.experiment.trials,
                  static_cast<unsigned long long>(base.experiment.baseSeed),
                  outcomes.size());
    }
    exp::printSweepTables(std::cout, doc, outcomes, args.csv);
  }
  std::cout << std::flush;
  if (!args.outPath.empty()) {
    const std::string json =
        util::writeJson(exp::sweepReportJson(doc, outcomes));
    std::ofstream out(args.outPath, std::ios::binary);
    if (!out) die("cannot write " + args.outPath);
    out << json;
    if (!args.quiet) {
      std::fprintf(stderr, "wrote %s\n", args.outPath.c_str());
    }
  }
  return 0;
}

int cmdExpand(const char* argv0, int argc, char** argv) {
  const ScenarioArgs args =
      parseScenarioArgs(argv0, argc, argv, 2, /*runOptions=*/false);
  const exp::ScenarioDoc doc = exp::loadScenarioDoc(args.path, args.sets);
  const std::vector<exp::GridPoint> grid = exp::expandGrid(doc);
  std::printf("%zu grid point%s", grid.size(), grid.size() == 1 ? "" : "s");
  if (!doc.axes.empty()) {
    std::printf(" (");
    for (std::size_t a = 0; a < doc.axes.size(); ++a) {
      if (a > 0) std::printf(" x ");
      std::printf("%zu %s", doc.axes[a].size(), doc.axes[a].label.c_str());
    }
    std::printf(")");
  }
  std::printf("\n");
  for (const exp::GridPoint& point : grid) {
    std::printf("  [");
    for (std::size_t a = 0; a < point.labels.size(); ++a) {
      if (a > 0) std::printf(", ");
      std::printf("%s", point.labels[a].c_str());
    }
    // The canonical form spells the cluster kind as the schema does.
    const util::JsonValue canonical = exp::scenarioSpecToJson(point.spec);
    const exp::ExperimentSpec& e = point.spec.experiment;
    std::printf("] heuristic=%s cluster=%s trials=%zu seed=%llu\n",
                e.sim.heuristic.c_str(),
                canonical.find("cluster")->find("kind")->asString().c_str(),
                e.trials, static_cast<unsigned long long>(e.baseSeed));
  }
  return 0;
}

/// Writes `doc` to stdout with its base in the canonical form: every key
/// resolved and spelled out, so it can be piped or diffed.
void printCanonical(const exp::ScenarioDoc& doc) {
  exp::ScenarioDoc canonical;
  canonical.base = exp::scenarioSpecToJson(doc.baseSpec());
  canonical.axes = doc.axes;
  std::fputs(exp::writeScenarioDoc(canonical).c_str(), stdout);
}

int cmdPrint(const char* argv0, int argc, char** argv) {
  const ScenarioArgs args =
      parseScenarioArgs(argv0, argc, argv, 2, /*runOptions=*/false);
  printCanonical(exp::loadScenarioDoc(args.path, args.sets));
  return 0;
}

int cmdValidate(const char* argv0, int argc, char** argv) {
  const ScenarioArgs args =
      parseScenarioArgs(argv0, argc, argv, 2, /*runOptions=*/false);
  // loadScenarioDoc is the full strict parse (unknown keys, types,
  // ranges, cross-field rules); expandGrid parses every grid point too.
  // Any ScenarioError propagates to main's handler, which prints the
  // line-numbered message and exits 2.
  const exp::ScenarioDoc doc = exp::loadScenarioDoc(args.path, args.sets);
  std::fprintf(stderr, "%s: OK (grid=%zu)\n", args.path.c_str(),
               exp::expandGrid(doc).size());
  printCanonical(doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    dieWithUsage(argv[0], "no command given");
  }
  const std::string command = argv[1];
  try {
    if (command == "run") return cmdRun(argv[0], argc, argv);
    if (command == "expand") return cmdExpand(argv[0], argc, argv);
    if (command == "print") return cmdPrint(argv[0], argc, argv);
    if (command == "validate") return cmdValidate(argv[0], argc, argv);
  } catch (const std::exception& e) {
    die(e.what());
  }
  if (command == "--help" || command == "-h") {
    usage(argv[0], stdout);
    return 0;
  }
  dieWithUsage(argv[0], "unknown command " + command);
}
