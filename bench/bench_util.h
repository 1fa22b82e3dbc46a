#pragma once
// Shared plumbing for the benches that post-process a scenario instead of
// printing the tables `hcs_sim run` prints.
//
// Every such bench takes `[--set path=value]... [--csv]`.  It loads its
// scenario file from scenarios/ through the loader `hcs_sim run --set`
// uses, and refuses a --set of a key it does not read.  A bad argument
// prints `<binary>: <message>` and exits 2.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "exp/report.h"
#include "exp/scenario.h"
#include "exp/sweep.h"

namespace hcs::bench {

/// A bench's scenario after its --set overrides, plus the output mode.
struct Scenario {
  std::string program;  ///< argv[0], the prefix of every error message
  exp::ScenarioDoc doc;
  exp::ScenarioSpec spec;  ///< doc's base spec
  bool csv = false;
  /// Dotted paths the bench reads, each with its subtree; empty means the
  /// bench runs the whole sweep.
  std::vector<std::string_view> readPaths;

  /// Parses the command line and loads scenarios/<fileName>.
  static Scenario load(int argc, char** argv, const char* fileName,
                       std::initializer_list<std::string_view> reads) {
    Scenario s;
    s.program = argv[0];
    s.readPaths = reads;
    std::vector<std::string> sets;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--csv") {
        s.csv = true;
      } else if (arg == "--set") {
        if (i + 1 >= argc) s.fail("--set: missing path=value");
        sets.emplace_back(argv[++i]);
      } else if (arg == "--help" || arg == "-h") {
        std::printf("usage: %s [--set path=value]... [--csv]\n", argv[0]);
        std::exit(0);
      } else {
        s.fail("unknown argument: " + arg);
      }
    }
    try {
      s.doc = exp::loadScenarioDoc(
          std::string(HCS_SCENARIO_DIR) + "/" + fileName, sets);
      s.spec = s.doc.baseSpec();
    } catch (const std::exception& e) {
      s.fail(e.what());
    }
    for (const std::string& directive : sets) {
      const std::string path = directive.substr(0, directive.find('='));
      if (!s.reads(path)) s.fail("--set " + path + ": not read by this bench");
    }
    return s;
  }

  /// The benches built on the paper-default scenario: they read its PET and
  /// heterogeneous cluster, the scale, the trial count and the workload
  /// seed, and run the paper's own rates (15k-equivalent and up).
  static Scenario loadPaper(int argc, char** argv) {
    Scenario s = load(argc, argv, "paper.json",
                      {"pet", "run.scale", "run.trials", "run.seed"});
    if (static_cast<double>(exp::PaperScenario::kRate15k) * s.spec.pet.scale <
        0.5) {
      s.fail("run.scale: scales the 15k-equivalent rate to 0 tasks");
    }
    return s;
  }

  /// Whether the bench reads `path`: a listed path or one below it, or, for
  /// a bench that runs the whole sweep, any path no sweep axis overwrites.
  bool reads(std::string_view path) const {
    const auto under = [path](std::string_view root) {
      return path.starts_with(root) &&
             (path.size() == root.size() || path[root.size()] == '.');
    };
    if (!readPaths.empty()) {
      return std::any_of(readPaths.begin(), readPaths.end(), under);
    }
    for (const exp::SweepAxis& axis : doc.axes) {
      if (!axis.field.empty() && under(axis.field)) return false;
      for (const exp::SweepCase& c : axis.cases) {
        for (const auto& set : c.sets) {
          if (under(set.first)) return false;
        }
      }
    }
    return true;
  }

  /// Prints `<binary>: <message>` and exits 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n", program.c_str(), message.c_str());
    std::exit(2);
  }

  void printHeader(const char* figure, const char* caption) const {
    if (csv) return;
    std::printf("=== %s ===\n%s\nscale=%g", figure, caption, spec.pet.scale);
    if (reads("run.trials")) std::printf(" trials=%zu", spec.experiment.trials);
    std::printf(" seed=%llu pet.seed=%llu\n\n",
                static_cast<unsigned long long>(spec.experiment.baseSeed),
                static_cast<unsigned long long>(spec.pet.petSeed));
  }

  void emit(const exp::Table& table) const {
    if (csv) {
      table.printCsv(std::cout);
    } else {
      table.print(std::cout);
    }
    std::cout << std::flush;
  }
};

}  // namespace hcs::bench
