// perfbench: the repository benchmark program.
//
//   perfbench --scenario FILE --seed N --seconds S --trace 0|1
//
// Feeds one workload, a scenario document, to the library through its
// public entry points (exp::loadScenarioDoc / exp::bindScenario, then
// core::Simulation::run or fed::FederatedSimulation::run per trial, seeded
// exactly as the experiment runners seed them) and prints one JSON object
// as the last line of stdout.
//
// Everything runs on one thread.  Trial fan-out (exp/parallel) is left out
// on purpose: host time with parallel trials measures the machine's
// scheduler more than the program.
//
// The scenario's run.trials fixes the workload's trial set, and --seed
// becomes run.seed.  The untraced pass cycles through that set until
// --seconds have passed (at least one full cycle), so the simulated
// metrics cover the same trials on every host.  A trial is deterministic, so
// its repeats do identical work; on a shared host interference can only add
// time, so each trial's host time is the shortest of its repeats.  Streamed
// trials are also split at every kSegmentTasks-th drawn task and each
// segment keeps its shortest repeat: interference comes and goes within a
// second-long trial.
//
//   --trace 0  untraced pass only; prints the end-to-end metrics.
//   --trace 1  untraced pass, then every trial once more with instruments
//              installed from the outside: a trace sink, a timing decorator
//              around the heuristic, the measureMappingEngine knob, and
//              PmfArena stats deltas.  Prints the per-layer metrics.
//
// Correctness gate, per trial: it must not throw; Metrics::terminalCount()
// must equal the number of tasks drawn; every repeat must reproduce the
// first run's full TrialResult digest; and the traced run must reproduce
// the untraced digest.  The traced mode also checks that drawing the
// arrivals alone gives the same task count, and that a 1-cluster federation
// reproduces core::Simulation.
//
// PERFBENCH_BUILD_TYPE and PERFBENCH_COMPILER come from CMakeLists.txt.

#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/simulation.h"
#include "exp/experiment.h"
#include "exp/scenario_spec.h"
#include "exp/sweep.h"
#include "fed/federation.h"
#include "heuristics/registry.h"
#include "prob/arena.h"
#include "prob/pmf.h"
#include "sim/trace.h"
#include "workload/stream.h"
#include "workload/workload.h"

namespace {

using namespace hcs;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kSegmentTasks = 16384;

constexpr std::size_t kTraceKinds =
    static_cast<std::size_t>(sim::TraceEventKind::MachineRetired) + 1;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double shortest(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::min_element(v.begin(), v.end());
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile of an already sorted sample.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident memory of this process image, from /proc's VmHWM; NaN if
/// unavailable.  (getrusage's ru_maxrss survives execve, so it would report
/// the launching process's footprint whenever that is larger.)
double peakRssMb() {
  FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return std::nan("");
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb >= 0 ? static_cast<double>(kb) / 1024.0 : std::nan("");
}

// --- Arguments ---------------------------------------------------------------

struct Args {
  std::string scenario;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  int trace = 0;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveScenario = false;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + std::string(flag));
    }
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--scenario") {
      args.scenario = value;
      haveScenario = true;
    } else if (flag == "--seed") {
      // The seed becomes a JSON number in the scenario, exact below 2^53.
      args.seed = std::stoull(value, &used);
      if (args.seed >= (1ULL << 53)) used = 0;
      haveSeed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value, &used);
      if (!(args.seconds > 0.0)) used = 0;
    } else if (flag == "--trace") {
      args.trace = std::stoi(value, &used);
      if (args.trace != 0 && args.trace != 1) used = 0;
    } else {
      throw std::invalid_argument("unknown flag " + std::string(flag));
    }
    if (flag != "--scenario" && used != value.size()) {
      throw std::invalid_argument("bad value for " + std::string(flag) +
                                  ": " + value);
    }
  }
  if (!haveScenario || !haveSeed) {
    throw std::invalid_argument("--scenario and --seed are required");
  }
  return args;
}

// --- Set-up ------------------------------------------------------------------

struct Setup {
  exp::ScenarioDoc doc;
  exp::BoundScenario bound;
};

/// Scenario parse, PET synthesis, span calibration and model binding: the
/// work a user pays before the first trial.
Setup loadAndBind(const std::string& path, std::uint64_t seed) {
  exp::ScenarioDoc doc = exp::loadScenarioDoc(path);
  if (!doc.axes.empty()) {
    throw std::invalid_argument(path + ": a workload must not sweep");
  }
  exp::applySetDirective(doc.base, "run.seed=" + std::to_string(seed));
  exp::BoundScenario bound = exp::bindScenario(doc.baseSpec());
  return Setup{std::move(doc), std::move(bound)};
}

/// Host time of one set-up, whose result is dropped.
double timeSetup(const Args& args) {
  const auto start = Clock::now();
  const Setup dropped = loadAndBind(args.scenario, args.seed);
  return secondsSince(start);
}

// --- Outside-in instruments --------------------------------------------------

/// What the traced pass collects.  Everything is gathered from outside the
/// library: the trace sink, the heuristic decorators and the arena stats.
struct Probes {
  std::array<std::uint64_t, kTraceKinds> transitions{};
  std::uint64_t mapCalls = 0;
  std::uint64_t candidates = 0;
  std::uint64_t assignments = 0;
  double mapSeconds = 0.0;
  std::vector<double> mapUs;
  std::uint64_t selectCalls = 0;
  double selectSeconds = 0.0;

  std::uint64_t count(sim::TraceEventKind kind) const {
    return transitions[static_cast<std::size_t>(kind)];
  }
  std::uint64_t totalTransitions() const {
    std::uint64_t total = 0;
    for (std::uint64_t n : transitions) total += n;
    return total;
  }
};

class TimedBatch final : public heuristics::BatchHeuristic {
 public:
  TimedBatch(std::unique_ptr<heuristics::BatchHeuristic> inner, Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::string_view name() const override { return inner_->name(); }
  bool consumesBatchQueue() const override {
    return inner_->consumesBatchQueue();
  }

  std::vector<heuristics::Assignment> map(
      const heuristics::MappingContext& ctx,
      std::span<const sim::TaskId> batch) override {
    // An empty span tells a queue-consuming heuristic to read the queue.
    const std::size_t candidates =
        batch.empty() && inner_->consumesBatchQueue() &&
                ctx.batchQueue() != nullptr
            ? ctx.batchQueue()->size()
            : batch.size();
    const auto start = Clock::now();
    std::vector<heuristics::Assignment> out = inner_->map(ctx, batch);
    const double seconds = secondsSince(start);
    ++probes_.mapCalls;
    probes_.candidates += candidates;
    probes_.assignments += out.size();
    probes_.mapSeconds += seconds;
    probes_.mapUs.push_back(seconds * 1e6);
    return out;
  }

 private:
  std::unique_ptr<heuristics::BatchHeuristic> inner_;
  Probes& probes_;
};

class TimedImmediate final : public heuristics::ImmediateHeuristic {
 public:
  TimedImmediate(std::unique_ptr<heuristics::ImmediateHeuristic> inner,
                 Probes& probes)
      : inner_(std::move(inner)), probes_(probes) {}

  std::string_view name() const override { return inner_->name(); }

  sim::MachineId selectMachine(const heuristics::MappingContext& ctx,
                               sim::TaskId task) override {
    const auto start = Clock::now();
    const sim::MachineId machine = inner_->selectMachine(ctx, task);
    probes_.selectSeconds += secondsSince(start);
    ++probes_.selectCalls;
    return machine;
  }

 private:
  std::unique_ptr<heuristics::ImmediateHeuristic> inner_;
  Probes& probes_;
};

void instrument(core::SimulationConfig& config, Probes& probes) {
  config.traceSink = [&probes](const sim::TraceEvent& e) {
    ++probes.transitions[static_cast<std::size_t>(e.kind)];
  };
  config.measureMappingEngine = true;
  const std::string name = config.heuristic;
  const heuristics::HeuristicOptions options = config.heuristicOptions;
  if (core::allocationModeFor(config) == core::AllocationMode::Batch) {
    config.customBatchHeuristic = [&probes, name, options] {
      return std::make_unique<TimedBatch>(heuristics::makeBatch(name, options),
                                          probes);
    };
  } else {
    config.customImmediateHeuristic = [&probes, name, options] {
      return std::make_unique<TimedImmediate>(
          heuristics::makeImmediate(name, options), probes);
    };
  }
}

/// Counts the tasks a trial draws from its stream, for the terminal-count
/// gate (a materialized workload knows its size), and notes the time at
/// every kSegmentTasks-th draw.
class CountingStream final : public workload::TaskStream {
 public:
  CountingStream(workload::TaskStream& inner,
                 std::vector<Clock::time_point>& marks)
      : TaskStream(inner.numTaskTypes()), inner_(inner), marks_(marks) {}

  std::size_t drawn() const { return drawn_; }

 protected:
  bool produce(workload::TaskSpec& out) override {
    if (inner_.peek() == nullptr) return false;
    out = inner_.pop();
    if (++drawn_ % kSegmentTasks == 0) marks_.push_back(Clock::now());
    return true;
  }

 private:
  workload::TaskStream& inner_;
  std::vector<Clock::time_point>& marks_;
  std::size_t drawn_ = 0;
};

// --- Trials ------------------------------------------------------------------

struct TrialRun {
  core::TrialResult result;
  std::vector<std::size_t> routed;  ///< tasks per cluster (federated only)
  std::size_t drawn = 0;
  double seconds = 0.0;
  std::vector<double> segments;  ///< host time between segment marks
};

const workload::PetMatrix& petOf(const exp::BoundScenario& b) {
  return b.federated ? b.fedModels.front()->matrix() : b.model->matrix();
}

template <typename Arrivals>
core::TrialResult simulate(const exp::BoundScenario& b, Arrivals& arrivals,
                           const core::SimulationConfig& config,
                           std::vector<std::size_t>& routed) {
  if (!b.federated) return core::Simulation(*b.model, arrivals, config).run();
  std::vector<const sim::ExecutionModel*> models(b.fedModels.begin(),
                                                 b.fedModels.end());
  fed::FederatedTrialResult r =
      fed::FederatedSimulation(std::move(models), arrivals, config,
                               b.federation)
          .run();
  for (const fed::ClusterOutcome& c : r.clusters) {
    routed.push_back(c.tasksRouted);
  }
  return std::move(r.total);
}

/// One trial, seeded exactly as exp::TrialRunner and the federated runner
/// seed trial `trial`.  Host time covers drawing the arrivals and the run.
TrialRun runTrial(const exp::BoundScenario& b, std::size_t trial,
                  Probes* probes) {
  const exp::ExperimentSpec& spec = b.experiment;
  const std::uint64_t workloadSeed = spec.baseSeed + trial;
  core::SimulationConfig config = spec.sim;
  config.executionSeed = exp::executionSeedFor(workloadSeed);
  config.faultSeed = exp::faultSeedFor(workloadSeed);
  config.elasticitySeed = exp::elasticitySeedFor(workloadSeed);
  if (probes != nullptr) instrument(config, *probes);

  TrialRun run;
  std::vector<Clock::time_point> marks;
  const auto start = Clock::now();
  marks.push_back(start);
  if (spec.stream.enabled) {
    const std::unique_ptr<workload::TaskStream> source =
        workload::openTaskStream(spec.stream, petOf(b), spec.arrival,
                                 spec.deadline, workloadSeed);
    CountingStream stream(*source, marks);
    run.result = simulate(b, stream, config, run.routed);
    run.drawn = stream.drawn();
  } else {
    const workload::Workload wl = workload::Workload::generate(
        petOf(b), spec.arrival, spec.deadline, workloadSeed);
    run.result = simulate(b, wl, config, run.routed);
    run.drawn = wl.size();
  }
  marks.push_back(Clock::now());
  run.seconds = std::chrono::duration<double>(marks.back() - start).count();
  for (std::size_t j = 1; j < marks.size(); ++j) {
    run.segments.push_back(
        std::chrono::duration<double>(marks[j] - marks[j - 1]).count());
  }
  return run;
}

/// Draws trial `trial`'s full task sequence without simulating it; returns
/// the task count.
std::size_t drawOnly(const exp::BoundScenario& b, std::size_t trial) {
  const exp::ExperimentSpec& spec = b.experiment;
  const std::uint64_t workloadSeed = spec.baseSeed + trial;
  if (!spec.stream.enabled) {
    return workload::Workload::generate(petOf(b), spec.arrival, spec.deadline,
                                        workloadSeed)
        .size();
  }
  const std::unique_ptr<workload::TaskStream> stream = workload::openTaskStream(
      spec.stream, petOf(b), spec.arrival, spec.deadline, workloadSeed);
  std::size_t n = 0;
  while (stream->peek() != nullptr) {
    stream->pop();
    ++n;
  }
  return n;
}

/// FNV-1a over every field of a TrialResult except the host-time
/// mappingEngineSeconds: all Metrics counters and splits, robustness, the
/// utilization and fairness vectors, mapping events and makespan.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void addOutcomes(Digest& d, const sim::TypeOutcomes& t) {
  for (std::size_t v : {t.completedOnTime, t.completedLate, t.droppedReactive,
                        t.droppedProactive, t.abandoned, t.rejected}) {
    d.add(v);
  }
}

std::uint64_t digestOf(const core::TrialResult& r) {
  const sim::Metrics& m = r.metrics;
  Digest d;
  addOutcomes(d, m.totals());
  for (const sim::TypeOutcomes& t : m.perType()) addOutcomes(d, t);
  for (std::size_t v :
       {m.deferrals(), m.machineFailures(), m.retries(), m.spillovers(),
        m.failedThenMet(), m.countedTasks(), m.terminalCount(), m.scaleUps(),
        m.scaleDowns()}) {
    d.add(v);
  }
  for (const sim::Metrics::ExecutionSplit& e : m.perMachineExecution()) {
    d.add(e.useful);
    d.add(e.wasted);
  }
  for (const sim::Metrics::MachineSeconds& s : m.perTypeMachineSeconds()) {
    d.add(s.online);
    d.add(s.draining);
    d.add(s.busy);
  }
  d.add(m.robustnessPercent());
  d.add(m.weightedRobustnessPercent());
  d.add(m.utilizationPercent());
  d.add(r.robustnessPercent);
  for (double u : r.machineUtilization) d.add(u);
  for (double f : r.fairnessScores) d.add(f);
  d.add(r.mappingEvents);
  d.add(r.makespan);
  return d.value();
}

// --- Passes ------------------------------------------------------------------

/// Counts operations (trial runs and arrival draws) and the ones that
/// failed a check; an operation that fails several checks counts once.
class Gate {
 public:
  void begin() {
    ++attempted_;
    currentFailed_ = false;
  }
  void fail(std::size_t trial, const std::string& why) {
    std::fprintf(stderr, "perfbench: trial %zu FAILED: %s\n", trial,
                 why.c_str());
    if (!currentFailed_) ++failed_;
    currentFailed_ = true;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool currentFailed_ = false;
};

/// One distinct trial of the workload, as the untraced pass saw it.
struct TrialStats {
  bool ran = false;
  std::uint64_t digest = 0;
  double robustness = 0.0;
  std::size_t terminals = 0;
  std::size_t drawn = 0;
  std::vector<double> seconds;       ///< host time of every repeat
  std::vector<double> bestSegments;  ///< shortest repeat of each segment

  double bestSeconds() const {
    if (bestSegments.empty()) return std::nan("");
    double total = 0.0;
    for (double s : bestSegments) total += s;
    return total;
  }
};

/// Runs `trial` under the gate; false if it threw.
bool gatedRun(const exp::BoundScenario& b, std::size_t trial, Probes* probes,
              Gate& gate, TrialRun& run) {
  gate.begin();
  try {
    run = runTrial(b, trial, probes);
  } catch (const std::exception& e) {
    gate.fail(trial, std::string("threw: ") + e.what());
    return false;
  }
  if (run.result.metrics.terminalCount() != run.drawn) {
    gate.fail(trial, std::to_string(run.result.metrics.terminalCount()) +
                         " terminal tasks of " + std::to_string(run.drawn) +
                         " drawn");
  }
  return true;
}

/// Moves the calling thread between the CPUs it was allowed to run on;
/// restores the original mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the `step`-th allowed CPU, round robin.
  void pin(std::size_t step) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[step % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

/// Cycles through the trial set for `args.seconds`.
///
/// On a shared host a neighbour can slow one CPU for tens of seconds while
/// another stays quiet, so each cycle runs on the next allowed CPU and a
/// trial's shortest repeat comes from the quietest CPU it met.  Set-up
/// takes only milliseconds, so one sample of it is mostly noise: a set-up
/// is timed before every trial, which spreads its samples over the run.
std::vector<TrialStats> untracedPass(const exp::BoundScenario& b,
                                     const Args& args, Gate& gate,
                                     std::vector<double>& setupSeconds) {
  const std::size_t k = b.experiment.trials;
  std::vector<TrialStats> trials(k);
  const CpuRotation rotation;
  const auto start = Clock::now();
  for (std::size_t n = 0; n < k || secondsSince(start) < args.seconds; ++n) {
    const std::size_t i = n % k;
    if (i == 0) rotation.pin(n / k);
    setupSeconds.push_back(timeSetup(args));
    TrialRun run;
    if (!gatedRun(b, i, nullptr, gate, run)) continue;
    TrialStats& t = trials[i];
    const std::uint64_t digest = digestOf(run.result);
    if (!t.ran) {
      t.ran = true;
      t.digest = digest;
      t.robustness = run.result.robustnessPercent;
      t.terminals = run.result.metrics.terminalCount();
      t.drawn = run.drawn;
      t.bestSegments = run.segments;
    } else if (digest != t.digest ||
               run.segments.size() != t.bestSegments.size()) {
      gate.fail(i, "a repeat diverged from the first run");
    } else {
      for (std::size_t j = 0; j < t.bestSegments.size(); ++j) {
        t.bestSegments[j] = std::min(t.bestSegments[j], run.segments[j]);
      }
    }
    t.seconds.push_back(run.seconds);
  }
  return trials;
}

/// Totals of the traced pass over the whole trial set.
struct Traced {
  Probes probes;
  double seconds = 0.0;
  double engineSeconds = 0.0;
  std::uint64_t mappingEvents = 0;
  std::uint64_t pmfAcquires = 0;
  std::uint64_t pmfHeapAllocs = 0;
  std::uint64_t machineFailures = 0;
  std::uint64_t retries = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t scaleUps = 0;
  std::uint64_t rejected = 0;
  double routeImbalance = 0.0;  ///< summed over trials
};

Traced tracedPass(const exp::BoundScenario& b,
                  const std::vector<TrialStats>& untraced, Gate& gate) {
  Traced t;
  prob::PmfArena& arena = prob::PmfArena::local();
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    // An empty pool per trial makes the heap-allocation count independent
    // of whichever trial the untraced pass happened to end on.
    arena.clear();
    const prob::PmfArena::Stats before = arena.stats();
    TrialRun run;
    if (!gatedRun(b, i, &t.probes, gate, run)) continue;
    const prob::PmfArena::Stats after = arena.stats();
    if (!untraced[i].ran || digestOf(run.result) != untraced[i].digest) {
      gate.fail(i, "traced digest differs from the untraced one");
    }
    const sim::Metrics& m = run.result.metrics;
    t.seconds += run.seconds;
    t.engineSeconds += run.result.mappingEngineSeconds;
    t.mappingEvents += run.result.mappingEvents;
    t.pmfAcquires += after.acquires - before.acquires;
    t.pmfHeapAllocs += after.allocations - before.allocations;
    t.machineFailures += m.machineFailures();
    t.retries += m.retries();
    t.abandoned += m.abandoned();
    t.scaleUps += m.scaleUps();
    // Gateway rejections never reach the trace sink, so they are counted
    // from Metrics.
    t.rejected += m.rejected();
    double imbalance = 1.0;
    if (!run.routed.empty()) {
      const auto most = *std::max_element(run.routed.begin(), run.routed.end());
      double mean = 0.0;
      for (std::size_t r : run.routed) mean += static_cast<double>(r);
      mean /= static_cast<double>(run.routed.size());
      imbalance = ratio(static_cast<double>(most), mean);
    }
    t.routeImbalance += imbalance;
  }
  return t;
}

/// Host-time ratio of a 1-cluster, zero-latency, fault-free, fixed-capacity
/// federation against core::Simulation on trial 0's arrivals.  The two runs
/// must give the same digest (the N=1 identity); a mismatch fails the gate.
double n1Overhead(const Setup& setup, Gate& gate) {
  util::JsonValue base = setup.doc.base;
  for (const char* directive :
       {"faults={}", "elasticity={}", "admission={}",
        "federation={\"enabled\":true,\"clusters\":1}"}) {
    exp::applySetDirective(base, directive);
  }
  const exp::BoundScenario fed =
      exp::bindScenario(exp::parseScenarioSpec(base), setup.bound.paper);
  exp::BoundScenario plain =
      exp::bindScenario(exp::parseScenarioSpec(base), setup.bound.paper);
  plain.federated = false;

  std::vector<double> fedSeconds;
  std::vector<double> plainSeconds;
  const auto start = Clock::now();
  for (std::size_t pair = 0;
       pair < 15 && (pair < 3 || secondsSince(start) < 1.0); ++pair) {
    TrialRun a;
    TrialRun f;
    // Alternate which side runs first.
    if (pair % 2 == 0) {
      if (!gatedRun(plain, 0, nullptr, gate, a)) return 0.0;
      if (!gatedRun(fed, 0, nullptr, gate, f)) return 0.0;
    } else {
      if (!gatedRun(fed, 0, nullptr, gate, f)) return 0.0;
      if (!gatedRun(plain, 0, nullptr, gate, a)) return 0.0;
    }
    if (digestOf(a.result) != digestOf(f.result)) {
      gate.fail(0, "1-cluster federation diverged from core::Simulation");
      return 0.0;
    }
    plainSeconds.push_back(a.seconds);
    fedSeconds.push_back(f.seconds);
  }
  return ratio(shortest(fedSeconds), shortest(plainSeconds));
}

/// Mean host time of one DiscretePmf::convolve on chains of the workload's
/// own PET entries: for every machine and task type, a chain of the queue
/// capacity's length, as Eq. 1 builds a machine queue's completion time.
double convolveNs(const exp::BoundScenario& b) {
  const workload::BoundExecutionModel& model = *b.model;
  const int types = model.matrix().numTaskTypes();
  const std::size_t depth =
      std::max<std::size_t>(2, b.experiment.sim.machineQueueCapacity);
  std::uint64_t calls = 0;
  double sink = 0.0;
  const auto start = Clock::now();
  do {
    for (int m = 0; m < model.numMachines(); ++m) {
      for (int t = 0; t < types; ++t) {
        prob::DiscretePmf acc = model.pet(t, m);
        for (std::size_t d = 1; d < depth; ++d) {
          const int next = static_cast<int>((t + d) % types);
          acc = acc.convolve(model.pet(next, m));
          ++calls;
        }
        sink += acc.mean();
      }
    }
  } while (secondsSince(start) < 0.25);
  const double ns = secondsSince(start) * 1e9 / static_cast<double>(calls);
  if (!std::isfinite(sink)) throw std::runtime_error("convolution diverged");
  return ns;
}

// --- Output ------------------------------------------------------------------

class JsonObject {
 public:
  void number(const char* name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      finite_ = false;
      value = 0.0;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name, value, unit);
    append(buf);
  }
  void raw(const char* name, const std::string& json) {
    append("\"" + std::string(name) + "\": " + json);
  }
  bool allFinite() const { return finite_; }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void append(const std::string& field) {
    if (!body_.empty()) body_ += ", ";
    body_ += field;
  }
  std::string body_;
  bool finite_ = true;
};

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The per-layer metrics of the traced pass and its side measurements.
/// `trialSeconds` is the untraced pass's summed best trial time.
void addLayerMetrics(JsonObject& metrics, const Setup& setup,
                     const std::vector<TrialStats>& trials,
                     double trialSeconds, Gate& gate) {
  const exp::BoundScenario& bound = setup.bound;
  const std::string name = setup.doc.baseSpec().name;
  const double k = static_cast<double>(trials.size());
  const Traced traced = tracedPass(bound, trials, gate);
  const Probes& p = traced.probes;

  double genTotal = 0.0;
  double genTasks = 0.0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    gate.begin();
    const auto start = Clock::now();
    const std::size_t n = drawOnly(bound, i);
    genTotal += secondsSince(start);
    genTasks += static_cast<double>(n);
    if (n != trials[i].drawn) gate.fail(i, "drawing alone gave another count");
  }

  std::vector<double> mapUs = p.mapUs;
  std::sort(mapUs.begin(), mapUs.end());
  const double mapS = p.mapSeconds / k;
  const double engineS = traced.engineSeconds / k;
  const double transitions = static_cast<double>(p.totalTransitions());
  const double dispatched =
      static_cast<double>(p.count(sim::TraceEventKind::Dispatched));
  const double deferred =
      static_cast<double>(p.count(sim::TraceEventKind::Deferred));

  metrics.number("workload.gen_s", genTotal / k, "s/trial");
  metrics.number("workload.tasks", genTasks / k, "count/trial");
  metrics.number("heuristics.map_calls", static_cast<double>(p.mapCalls) / k,
                 "count/trial");
  metrics.number("heuristics.map_s", mapS, "s/trial");
  metrics.number("heuristics.map_us_p50", percentile(mapUs, 50), "us");
  metrics.number("heuristics.map_us_p99", percentile(mapUs, 99), "us");
  metrics.number("heuristics.candidates_per_call",
                 ratio(static_cast<double>(p.candidates),
                       static_cast<double>(p.mapCalls)),
                 "count");
  metrics.number("heuristics.assign_ratio",
                 ratio(static_cast<double>(p.assignments),
                       static_cast<double>(p.candidates)),
                 "ratio");
  metrics.number("heuristics.select_calls",
                 static_cast<double>(p.selectCalls) / k, "count/trial");
  metrics.number("heuristics.select_s", p.selectSeconds / k, "s/trial");
  metrics.number("core.mapping_events",
                 static_cast<double>(traced.mappingEvents) / k, "count/trial");
  metrics.number("core.engine_s", engineS, "s/trial");
  metrics.number("core.defer_dispatch_s", engineS - mapS, "s/trial");
  metrics.number("core.rest_s", (trialSeconds - genTotal) / k - engineS,
                 "s/trial");
  metrics.number("prob.pmf_acquires",
                 static_cast<double>(traced.pmfAcquires) / k, "count/trial");
  metrics.number("prob.pmf_heap_allocs",
                 static_cast<double>(traced.pmfHeapAllocs) / k,
                 "count/trial");
  metrics.number("prob.convolve_ns", convolveNs(bound), "ns");
  metrics.number("pruning.deferrals", deferred / k, "count/trial");
  metrics.number("pruning.defer_per_dispatch", ratio(deferred, dispatched),
                 "ratio");
  metrics.number(
      "pruning.dropped_proactive",
      static_cast<double>(p.count(sim::TraceEventKind::DroppedProactive)) / k,
      "count/trial");
  metrics.number(
      "pruning.dropped_reactive",
      static_cast<double>(p.count(sim::TraceEventKind::DroppedReactive)) / k,
      "count/trial");
  metrics.number("sim.transitions", transitions / k, "count/trial");
  metrics.number("sim.ns_per_transition",
                 ratio(trialSeconds * 1e9, transitions), "ns");
  metrics.number("sim.machine_failures",
                 static_cast<double>(traced.machineFailures) / k,
                 "count/trial");
  metrics.number("sim.retries", static_cast<double>(traced.retries) / k,
                 "count/trial");
  metrics.number("sim.abandoned", static_cast<double>(traced.abandoned) / k,
                 "count/trial");
  metrics.number("sim.scale_ups", static_cast<double>(traced.scaleUps) / k,
                 "count/trial");
  metrics.number("fed.route_imbalance", traced.routeImbalance / k, "ratio");
  metrics.number("fed.rejected", static_cast<double>(traced.rejected) / k,
                 "count/trial");
  metrics.number("fed.n1_overhead", n1Overhead(setup, gate), "ratio");
  // The traced pass times each trial once and whole, so it is compared with
  // the untraced pass's shortest whole runs.
  double untracedWhole = 0.0;
  for (const TrialStats& t : trials) untracedWhole += shortest(t.seconds);
  metrics.number("trace_overhead", ratio(traced.seconds, untracedWhole),
                 "ratio");

  for (std::size_t kind = 0; kind < kTraceKinds; ++kind) {
    if (p.transitions[kind] == 0) continue;
    std::fprintf(stderr, "perfbench: %s transitions %-17s %.1f/trial\n",
                 name.c_str(),
                 std::string(sim::toString(
                                 static_cast<sim::TraceEventKind>(kind)))
                     .c_str(),
                 static_cast<double>(p.transitions[kind]) / k);
  }

}

int run(const Args& args) {
  {
    // glibc raises its mmap threshold the first time it frees a large
    // mmapped block, which any long-running process does early on.  Doing
    // it up front with an untouched 16 MB block keeps peak RSS from
    // depending on where in the first trials that switch lands; it moved
    // the peak by ~10% from one seed to the next.
    void* volatile warm = std::malloc(16u << 20);
    std::free(warm);
  }
  const Setup setup = loadAndBind(args.scenario, args.seed);
  const exp::BoundScenario& bound = setup.bound;
  const std::string name = setup.doc.baseSpec().name;

  Gate gate;
  std::vector<double> setupSeconds;
  const std::vector<TrialStats> trials =
      untracedPass(bound, args, gate, setupSeconds);
  std::fprintf(stderr, "perfbench: %s set-up: median %.6f s over %zu runs\n",
               name.c_str(), median(setupSeconds), setupSeconds.size());

  double tasks = 0.0;
  double trialSeconds = 0.0;
  double robustness = 0.0;
  std::size_t drawn = 0;
  std::size_t runs = 0;
  for (std::size_t i = 0; i < trials.size(); ++i) {
    const TrialStats& t = trials[i];
    runs += t.seconds.size();
    tasks += static_cast<double>(t.terminals);
    trialSeconds += t.bestSeconds();
    robustness += t.robustness;
    drawn += t.drawn;
    std::fprintf(stderr,
                 "perfbench: %s trial %zu: %zu tasks, robustness %.4f%%, "
                 "best %.4f s in %zu segments, shortest %.4f s, median %.4f s "
                 "over %zu runs, digest %016llx\n",
                 name.c_str(), i, t.terminals, t.robustness, t.bestSeconds(),
                 t.bestSegments.size(), shortest(t.seconds), median(t.seconds),
                 t.seconds.size(),
                 static_cast<unsigned long long>(t.digest));
  }
  const double k = static_cast<double>(trials.size());

  JsonObject metrics;
  if (args.trace == 0) {
    metrics.number("tasks_per_s", ratio(tasks, trialSeconds), "1/s");
    metrics.number("robustness_pct", robustness / k, "%");
    metrics.number("peak_rss_mb", peakRssMb(), "MB");
    metrics.number("setup_s", median(setupSeconds), "s");
  } else {
    addLayerMetrics(metrics, setup, trials, trialSeconds, gate);
  }

  JsonObject provenance;
  provenance.raw("workload", quoted(name));
  provenance.raw("seed", std::to_string(args.seed));
  provenance.raw("trials_per_cycle", std::to_string(trials.size()));
  provenance.raw("untraced_trial_runs", std::to_string(runs));
  provenance.raw("tasks_per_trial",
                 std::to_string(static_cast<double>(drawn) / k));
  provenance.raw("threads", "1");
  provenance.raw("compiler", quoted(PERFBENCH_COMPILER));
  provenance.raw("build_type", quoted(PERFBENCH_BUILD_TYPE));

  const bool correct = gate.failed() == 0 && metrics.allFinite();
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "%s, \"provenance\": %s}\n",
      correct ? "true" : "false", gate.attempted(), gate.failed(),
      metrics.str().c_str(), provenance.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
