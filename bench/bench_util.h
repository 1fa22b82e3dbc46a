#pragma once
// Shared plumbing for the figure-reproduction binaries.
//
// Every figure bench accepts:
//   --full         paper scale (15k/20k/25k tasks, 30 trials)
//   --scale X      workload scale factor (default 0.1)
//   --trials N     trials per configuration (default 8)
//   --jobs N       trial-execution threads (1 = serial, 0 = all cores)
//   --csv          machine-readable output instead of the ASCII table
// Environment variables HCS_FULL / HCS_SCALE / HCS_TRIALS / HCS_JOBS act as
// defaults.  A malformed or out-of-range value, from a flag or the
// environment, prints `<binary>: <message>` and exits 2.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/sweep.h"

namespace hcs::bench {

struct BenchArgs {
  exp::PaperScenario::Options scenario;
  bool csv = false;
  /// argv[0], the prefix of every error message.
  std::string program;

  /// Prints `<binary>: <message>` and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
    std::exit(2);
  }

  static BenchArgs parse(int argc, char** argv) {
    BenchArgs args;
    args.program = argv[0];
    // The whole string must be one number (from_chars takes no sign for
    // unsigned types and no surrounding space), finite and at least `min`.
    const auto number = [&args](const char* what, const char* text, auto min,
                                const char* expected) {
      decltype(min) value{};
      const char* end = text + std::strlen(text);
      const auto [ptr, ec] = std::from_chars(text, end, value);
      if (ec != std::errc() || ptr != end || !std::isfinite(value) ||
          value < min) {
        args.fail(std::string(what) + ": expected " + expected + ", got '" +
                  text + "'");
      }
      return value;
    };
    const auto full = [&args] {
      args.scenario.scale = 1.0;
      args.scenario.trials = 30;
    };
    if (const char* env = std::getenv("HCS_FULL");
        env != nullptr && env[0] == '1') {
      full();
    }
    // Sets the knob of `flag` from the flag's value or its HCS_* variable.
    const auto set = [&](const std::string& flag, const char* what,
                         const char* text) {
      if (flag == "--scale") {
        args.scenario.scale = number(what, text, std::nextafter(0.0, 1.0),
                                     "a finite number > 0");
      } else if (flag == "--trials") {
        args.scenario.trials =
            number(what, text, std::size_t{1}, "an integer >= 1");
      } else {
        args.scenario.jobs =
            number(what, text, std::size_t{0}, "an integer >= 0");
      }
    };
    for (const auto& [flag, var] : {std::pair{"--scale", "HCS_SCALE"},
                                    std::pair{"--trials", "HCS_TRIALS"},
                                    std::pair{"--jobs", "HCS_JOBS"}}) {
      if (const char* env = std::getenv(var)) set(flag, var, env);
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        full();
      } else if (arg == "--csv") {
        args.csv = true;
      } else if (arg == "--scale" || arg == "--trials" || arg == "--jobs") {
        if (i + 1 >= argc) args.fail(arg + ": missing value");
        set(arg, arg.c_str(), argv[++i]);
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--full] [--scale X] [--trials N] [--jobs N] [--csv]\n",
            argv[0]);
        std::exit(0);
      } else {
        args.fail("unknown argument: " + arg);
      }
    }
    return args;
  }
};

inline void printHeader(const BenchArgs& args, const char* figure,
                        const char* caption) {
  if (args.csv) return;
  std::printf("=== %s ===\n%s\n", figure, caption);
  std::printf(
      "scale=%.3g (tasks x%.3g, span self-calibrated), trials=%zu, "
      "PET seed=%llu\n\n",
      args.scenario.scale, args.scenario.scale, args.scenario.trials,
      static_cast<unsigned long long>(args.scenario.petSeed));
}

inline void emit(const BenchArgs& args, const exp::Table& table) {
  if (args.csv) {
    table.printCsv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << std::flush;
}

/// Loads `fileName` from the committed scenarios/ library and overrides its
/// run block with the bench flags (--full/--scale/--trials/--jobs and the
/// HCS_* env defaults).  A document the flags make invalid (say, a scale
/// that leaves no tasks) fails like a bad flag.
inline exp::ScenarioDoc loadScenario(const BenchArgs& args,
                                     const char* fileName) {
  const std::string path = std::string(HCS_SCENARIO_DIR) + "/" + fileName;
  try {
    exp::ScenarioDoc doc = exp::loadScenarioDoc(path);
    exp::setJsonPath(doc.base, "run.scale",
                     util::JsonValue(args.scenario.scale));
    exp::setJsonPath(doc.base, "run.trials",
                     util::JsonValue(args.scenario.trials));
    exp::setJsonPath(doc.base, "run.jobs",
                     util::JsonValue(args.scenario.jobs));
    (void)doc.baseSpec();
    (void)exp::expandGrid(doc);
    return doc;
  } catch (const exp::ScenarioError& e) {
    args.fail(e.what());
  }
}

/// The whole body of a scenario-driven figure bench: load, sweep, pivot.
/// Returns the outcomes for benches that post-process (derived columns).
inline std::vector<exp::SweepOutcome> runScenarioFigure(
    const BenchArgs& args, const char* fileName, const char* figure,
    const char* caption) {
  const exp::ScenarioDoc doc = loadScenario(args, fileName);
  // The header shows the seed actually used: the scenario file's pet.seed.
  BenchArgs shown = args;
  shown.scenario.petSeed = doc.baseSpec().petSeed;
  printHeader(shown, figure, caption);
  const std::vector<exp::SweepOutcome> outcomes = exp::runSweep(doc);
  exp::printSweepTables(std::cout, doc, outcomes, args.csv);
  std::cout << std::flush;
  return outcomes;
}

}  // namespace hcs::bench
