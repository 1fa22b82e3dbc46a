#include "exp/scenario_spec.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string_view>
#include <utility>

#include "heuristics/registry.h"

namespace hcs::exp {

namespace {

using util::JsonValue;

[[noreturn]] void fail(const JsonValue& at, const std::string& message) {
  std::ostringstream out;
  if (at.line() > 0) out << "line " << at.line() << ": ";
  out << message;
  throw ScenarioError(out.str());
}

// --- The two visitors -------------------------------------------------------
//
// Each block of the schema is one describe<Block>(v, spec) walk that names
// every key once, in canonical order, with its type and bound.  A Reader
// walks it to parse strictly; a Writer walks it to emit the canonical form.

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Largest integer every JSON double represents exactly (2^53); beyond it
/// the cast would be lossy (and above SIZE_MAX, undefined behavior).
constexpr double kMaxExactInteger = 9007199254740992.0;

/// The interval a number key accepts.
struct Bound {
  double lo = -kInf;
  double hi = kInf;
  bool openLo = false;
  bool openHi = false;

  bool contains(double x) const {
    return (openLo ? x > lo : x >= lo) && (openHi ? x < hi : x <= hi);
  }

  std::string text() const {
    const auto num = [](double x) { return util::formatJsonNumber(x); };
    if (hi < kInf) {
      return std::string("in ") + (openLo ? "(" : "[") + num(lo) + ", " +
             num(hi) + (openHi ? ")" : "]");
    }
    if (!openLo) return ">= " + num(lo);
    return lo == 0.0 ? "positive" : "> " + num(lo);
  }
};

constexpr Bound kAny{};
constexpr Bound kNonNegative{0.0};
constexpr Bound kPositive{0.0, kInf, true};
constexpr Bound kAtLeastOne{1.0};
constexpr Bound kUnit{0.0, 1.0};
constexpr Bound kOpenUnit{0.0, 1.0, true, true};

/// An enum key's spellings; a value's first spelling is its canonical one.
template <class T>
using Choices = std::initializer_list<std::pair<const char*, T>>;

/// Strict parse of one object — or, inside a list, one element — against a
/// describe walk: every key the walk names is consumed, done() rejects the
/// rest, and every error carries the offending source line.  The empty key
/// names the current value itself (a scalar list element).
class Reader {
 public:
  /// `json` is null for an absent block, whose rules then report at `at`,
  /// the nearest enclosing value that is present.
  Reader(const JsonValue* json, std::string path, const JsonValue& at)
      : json_(json), path_(std::move(path)), at_(&at) {
    if (json_ != nullptr && json_->isObject()) {
      used_.assign(json_->object().size(), false);
    }
  }

  void number(const char* key, double& x, Bound bound = kAny) {
    if (const JsonValue* v = take(key)) {
      x = numberAt(*v, key);
      if (!bound.contains(x)) {
        fail(*v, path(key) + ": must be " + bound.text());
      }
    }
  }

  /// An integer >= lo that fits T exactly.
  template <class T>
  void integer(const char* key, T& x, double lo = 0.0) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    const double d = numberAt(*v, key);
    if (!(d >= lo) || d != std::floor(d)) {
      const std::string what =
          lo == 0.0   ? "a non-negative integer"
          : lo == 1.0 ? "a positive integer"
                      : "an integer >= " + util::formatJsonNumber(lo);
      fail(*v, path(key) + ": must be " + what);
    }
    const double hi = std::min(
        kMaxExactInteger, static_cast<double>(std::numeric_limits<T>::max()));
    if (d > hi) {
      fail(*v, path(key) + (hi == kMaxExactInteger
                                ? ": exceeds the exactly-representable "
                                  "integer range (2^53)"
                                : ": out of int range"));
    }
    x = static_cast<T>(d);
  }

  void flag(const char* key, bool& x) {
    if (const JsonValue* v = take(key)) {
      if (!v->isBool()) fail(*v, path(key) + ": expected true/false");
      x = v->asBool();
    }
  }

  void text(const char* key, std::string& x) {
    if (const JsonValue* v = take(key)) x = stringAt(*v, key);
  }

  template <class T>
  void choice(const char* key, T& x, Choices<T> options) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    const std::string& name = stringAt(*v, key);
    std::string spellings;
    for (const auto& [spelling, value] : options) {
      if (name == spelling) {
        x = value;
        return;
      }
      if (!spellings.empty()) spellings += '|';
      spellings += spelling;
    }
    fail(*v, path(key) + ": unknown " + key + " \"" + name + "\" (" +
                 spellings + ")");
  }

  /// A [lo, hi] range written as a 2-element array.
  void span(const char* key, double& lo, double& hi) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->isArray() || v->array().size() != 2) {
      fail(*v, path(key) + ": expected [lo, hi]");
    }
    lo = numberAt(v->array()[0], key);
    hi = numberAt(v->array()[1], key);
    if (hi < lo) fail(*v, path(key) + ": hi must be >= lo");
  }

  template <class F>
  void object(const char* key, F&& each) {
    const JsonValue* v = take(key);
    Reader block(v, path(key), v != nullptr ? *v : *at_);
    each(block);
    block.done();
  }

  /// Each element starts as a copy of `proto` and is described by
  /// each(visitor, element).
  template <class T, class F>
  void list(const char* key, std::vector<T>& xs, bool nonEmpty, F&& each,
            const T& proto = T{}) {
    const JsonValue* v = take(key);
    if (v == nullptr) return;
    if (!v->isArray() || (nonEmpty && v->array().empty())) {
      fail(*v, path(key) + (nonEmpty ? ": expected a non-empty array"
                                     : ": expected an array"));
    }
    xs.clear();
    for (const JsonValue& item : v->array()) {
      T x = proto;
      Reader element(&item, path(key), item);
      each(element, x);
      element.done();
      xs.push_back(std::move(x));
    }
  }

  /// A rule across keys: fails with `message` at `key` (at the block when
  /// the key is absent); the empty key blames the block itself.
  void require(bool ok, const char* key, std::string_view message) const {
    if (ok) return;
    const JsonValue* v = *key != '\0' ? find(key) : nullptr;
    std::string text = *key != '\0' ? path(key) : name();
    fail(v != nullptr ? *v : *at_, text.append(": ").append(message));
  }

  /// Keys a list element must spell out.
  void needs(std::initializer_list<const char*> keys) const {
    for (const char* key : keys) {
      if (find(key) == nullptr) {
        fail(*at_, name() + ": missing \"" + key + "\"");
      }
    }
  }

  bool has(const char* key) const { return find(key) != nullptr; }

  /// The Reader reads every key a Writer may leave out.
  bool emitIf(bool) const { return true; }

  void done() const {
    if (json_ == nullptr || !json_->isObject()) return;
    const auto& members = json_->object();
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!used_[i]) {
        fail(members[i].second,
             name() + ": unknown key \"" + members[i].first + "\"");
      }
    }
  }

 private:
  std::string name() const { return path_.empty() ? "scenario" : path_; }

  std::string path(const char* key) const {
    if (*key == '\0') return path_;
    return path_.empty() ? key : path_ + "." + key;
  }

  const JsonValue* find(const char* key) const {
    if (json_ == nullptr) return nullptr;
    if (!json_->isObject()) fail(*json_, name() + ": expected an object");
    return json_->find(key);
  }

  const JsonValue* take(const char* key) {
    if (*key == '\0') return json_;
    if (find(key) == nullptr) return nullptr;
    const auto& members = json_->object();
    std::size_t i = 0;
    while (members[i].first != key) ++i;
    used_[i] = true;
    return &members[i].second;
  }

  double numberAt(const JsonValue& v, const char* key) const {
    if (!v.isNumber()) fail(v, path(key) + ": expected a number");
    return v.asNumber();
  }

  const std::string& stringAt(const JsonValue& v, const char* key) const {
    if (!v.isString()) fail(v, path(key) + ": expected a string");
    return v.asString();
  }

  const JsonValue* json_;
  std::string path_;
  const JsonValue* at_;
  std::vector<bool> used_;
};

/// Canonical emit: the same describe walk, writing every key in the order
/// it is described.  Empty lists are left out (absent parses to empty).
class Writer {
 public:
  explicit Writer(JsonValue& out) : out_(&out) {}

  void number(const char* key, double x, Bound = kAny) { put(key, x); }

  template <class T>
  void integer(const char* key, T x, double = 0.0) {
    put(key, static_cast<double>(x));
  }

  void flag(const char* key, bool x) { put(key, x); }

  void text(const char* key, const std::string& x) { put(key, x); }

  template <class T>
  void choice(const char* key, const T& x, Choices<T> options) {
    for (const auto& [spelling, value] : options) {
      if (value == x) return put(key, spelling);
    }
  }

  void span(const char* key, double lo, double hi) {
    JsonValue pair = JsonValue::makeArray();
    pair.append(lo);
    pair.append(hi);
    put(key, std::move(pair));
  }

  template <class F>
  void object(const char* key, F&& each) {
    JsonValue block = JsonValue::makeObject();
    Writer writer(block);
    each(writer);
    put(key, std::move(block));
  }

  template <class T, class F>
  void list(const char* key, const std::vector<T>& xs, bool, F&& each,
            const T& = T{}) {
    if (xs.empty() && *key != '\0') return;
    JsonValue items = JsonValue::makeArray();
    for (const T& x : xs) {
      JsonValue item = JsonValue::makeObject();
      Writer writer(item);
      each(writer, x);
      items.append(std::move(item));
    }
    put(key, std::move(items));
  }

  void require(bool, const char*, std::string_view) const {}
  void needs(std::initializer_list<const char*>) const {}
  bool has(const char*) const { return false; }

  /// Keys inside `if (v.emitIf(c))` are written only when c holds.
  bool emitIf(bool c) const { return c; }

 private:
  void put(const char* key, JsonValue value) {
    if (*key == '\0') {
      *out_ = std::move(value);
    } else {
      out_->set(key, std::move(value));
    }
  }

  JsonValue* out_;
};

// --- The schema -------------------------------------------------------------
//
// S is ScenarioSpec for the Reader and const ScenarioSpec for the Writer.
// Blocks are described in canonical order, which is also the order cross-
// block rules need: "pet" fixes the PET's machine-type count before any
// block names machine types, and "federation" comes before "elasticity".

/// A PET machine-type index.
template <class V>
void machineType(V& v, const char* key, auto& type, const ScenarioSpec& s) {
  v.integer(key, type);
  const int types = s.pet.synthesis.numMachineTypes;
  v.require(type < types, key,
            "machine type " + std::to_string(type) + " out of range (PET has " +
                std::to_string(types) + " machine types)");
}

template <class V, class O>
void describePet(V& v, O& pet) {
  v.integer("seed", pet.petSeed);
  v.number("target_rho_at_15k", pet.targetRhoAt15k, kPositive);
  v.object("synthesis", [&](V& b) {
    auto& y = pet.synthesis;
    b.integer("task_types", y.numTaskTypes, 1);
    b.integer("machine_types", y.numMachineTypes, 1);
    b.number("bin_width", y.binWidth, kPositive);
    b.span("base_mean", y.baseMeanLo, y.baseMeanHi);
    b.span("speed", y.speedLo, y.speedHi);
    b.span("affinity", y.affinityLo, y.affinityHi);
    b.span("shape", y.shapeLo, y.shapeHi);
    b.integer("samples_per_histogram", y.samplesPerHistogram, 1);
  });
}

template <class V, class S>
void describeCluster(V& v, S& s) {
  using Kind = ScenarioSpec::ClusterKind;
  v.choice("kind", s.clusterKind,
           {{"heterogeneous", Kind::Heterogeneous},
            {"homogeneous", Kind::Homogeneous},
            {"custom", Kind::Custom}});
  v.list("machine_types", s.customMachineTypes, true,
         [&](V& e, auto& type) { machineType(e, "", type, s); });
  const bool custom = s.clusterKind == Kind::Custom;
  v.require(!custom || !s.customMachineTypes.empty(), "kind",
            "\"custom\" requires machine_types");
  v.require(custom || s.customMachineTypes.empty(), "machine_types",
            "requires kind \"custom\"");
}

template <class V, class S>
void describeWorkload(V& v, S& s) {
  using workload::ArrivalPattern;
  v.integer("rate", s.rate, 1);
  v.choice("pattern", s.pattern,
           {{"spiky", ArrivalPattern::Spiky},
            {"constant", ArrivalPattern::Constant},
            {"bursty", ArrivalPattern::Bursty}});
  auto& arrival = s.experiment.arrival;
  v.integer("spikes", arrival.numSpikes, 1);
  v.number("spike_factor", arrival.spikeFactor, kAtLeastOne);
  v.number("gap_variance_fraction", arrival.gapVarianceFraction, kPositive);
  // Written for every pattern, so burst knobs under a non-bursty pattern
  // survive the round trip (a sweep case may flip the pattern later).
  v.object("burst", [&](V& b) {
    b.number("base_rate_factor", s.burstBaseFactor, kNonNegative);
    b.number("peak_rate_factor", s.burstPeakFactor, kNonNegative);
    b.number("width", s.burstWidth, kPositive);
    b.number("period", s.burstPeriod, kPositive);
    b.number("span", s.burstSpan, kPositive);
    // Thinning-regime sanity: bursts narrower than their spacing (also
    // keeps the sampler's majorant and per-candidate intensity O(1)).
    b.require(s.burstWidth <= s.burstPeriod, "",
              "width must not exceed period");
    b.require(s.burstSpan / s.burstPeriod <= 1e6, "",
              "span/period exceeds 1e6 burst centers");
  });
  v.object("deadline", [&](V& b) {
    auto& d = s.experiment.deadline;
    b.span("beta", d.betaLo, d.betaHi);
  });
  // Absent = every task is worth 1.
  v.list("values", arrival.values, true, [](V& e, auto& c) {
    e.needs({"value", "share"});
    e.number("value", c.value, kPositive);
    e.number("share", c.share, kPositive);
  });
  double shares = 0.0;
  for (const workload::ValueClass& c : arrival.values) shares += c.share;
  v.require(arrival.values.empty() || std::abs(shares - 1.0) <= 1e-9,
            "values",
            "shares must sum to 1, got " + util::formatJsonNumber(shares));
}

template <class V, class T>
void describeStream(V& v, T& st) {
  v.flag("enabled", st.enabled);
  v.integer("max_tasks", st.maxTasks);
  v.number("max_time", st.maxTime, kNonNegative);
  // Only a replay writes trace and format: "format" without "trace" is an
  // error, so a generated stream's canonical form must omit both.
  if (v.emitIf(!st.trace.empty())) {
    v.text("trace", st.trace);
    v.text("format", st.format);
    v.require(st.format == "hcs" || st.format == "azure" ||
                  st.format == "borg",
              "format",
              "unknown format \"" + st.format + "\" (hcs|azure|borg)");
  }
  v.require(!st.trace.empty() || !v.has("format"), "format",
            "requires stream.trace (generated streams take their shape from "
            "the workload block)");
  v.number("deadline_slack", st.deadlineSlack, kNonNegative);
  v.number("time_scale", st.timeScale, kPositive);
}

template <class V, class C>
void describeSim(V& v, C& c) {
  v.text("heuristic", c.heuristic);
  v.require(heuristics::isImmediateHeuristic(c.heuristic) ||
                heuristics::isBatchHeuristic(c.heuristic),
            "heuristic", "unknown heuristic \"" + c.heuristic + "\"");
  v.number("kpb_percent", c.heuristicOptions.kpbPercent, kUnit);
  v.integer("queue_capacity", c.machineQueueCapacity, 1);
  v.flag("abort_at_deadline", c.abortRunningAtDeadline);
  v.flag("pct_cache", c.pctCacheEnabled);
  v.flag("incremental_mapping", c.incrementalMappingEnabled);
  v.integer("incremental_map_min_queue", c.incrementalMapMinQueue);
  v.object("pruning", [&](V& b) {
    using pruning::ToggleMode;
    auto& p = c.pruning;
    b.flag("enabled", p.enabled);
    b.flag("reactive_drop", p.reactiveDropEnabled);
    b.number("threshold", p.threshold, kUnit);
    b.choice("toggle", p.toggle,
             {{"reactive", ToggleMode::Reactive},
              {"always", ToggleMode::AlwaysDropping},
              {"never", ToggleMode::NoDropping}});
    b.integer("dropping_toggle", p.droppingToggle);
    // pruning::Toggle refuses a reactive toggle that can never engage.
    b.require(p.toggle != ToggleMode::Reactive || p.droppingToggle > 0,
              "dropping_toggle",
              "must be positive when toggle is \"reactive\"");
    b.flag("defer", p.deferEnabled);
    b.number("fairness_factor", p.fairnessFactor, kNonNegative);
    b.number("fairness_clamp", p.fairnessClamp, kUnit);
    b.flag("priority_aware", p.priorityAware);
    b.number("priority_weight", p.priorityWeight, kNonNegative);
    b.number("priority_reference", p.priorityReference, kPositive);
  });
}

template <class V, class F>
void describeFaults(V& v, F& f) {
  v.flag("enabled", f.enabled);
  v.number("mtbf", f.mtbf, kNonNegative);
  v.number("mttr", f.mttr, kNonNegative);
  v.integer("max_attempts", f.maxAttempts, 1);
  v.object("backoff", [&](V& b) {
    b.number("base", f.backoffBase, kPositive);
    b.number("factor", f.backoffFactor, kAtLeastOne);
    b.number("jitter", f.backoffJitter, kNonNegative);
  });
  v.list("events", f.events, false, [](V& e, auto& event) {
    e.needs({"at", "machine", "kind"});
    e.number("at", event.time, kNonNegative);
    e.integer("machine", event.machine);
    e.choice("kind", event.fail,
             {{"fail", true}, {"leave", true}, {"recover", false},
              {"join", false}});
  });
  v.list("initially_offline", f.initiallyOffline, false,
         [](V& e, auto& machine) { e.integer("", machine); });
  v.require(!(f.enabled && f.mtbf > 0.0 && f.mttr <= 0.0), "mttr",
            "must be positive when mtbf is");
}

template <class V, class A>
void describeAdmission(V& v, A& a) {
  using fed::AdmissionPolicyKind;
  v.choice("policy", a.policy,
           {{"accept_all", AdmissionPolicyKind::AcceptAll},
            {"queue_bound", AdmissionPolicyKind::QueueBound},
            {"chance_threshold", AdmissionPolicyKind::ChanceThreshold}});
  v.integer("queue_bound", a.queueBound, 1);
  v.number("chance_threshold", a.chanceThreshold, kUnit);
  v.flag("spillover", a.spillover);
}

template <class V, class S>
void describeFederation(V& v, S& s) {
  using fed::RoutingPolicyKind;
  auto& f = s.federation;
  v.flag("enabled", s.federationEnabled);
  v.integer("clusters", f.clusters, 1);
  v.choice("routing", f.routing,
           {{"round_robin", RoutingPolicyKind::RoundRobin},
            {"least_queue", RoutingPolicyKind::LeastQueueDepth},
            {"least_ect", RoutingPolicyKind::LeastExpectedCompletion},
            {"max_chance", RoutingPolicyKind::MaxChance}});
  v.number("dispatch_latency", f.dispatchLatency, kNonNegative);
  // Absent = every cluster mirrors the base cluster.
  v.list("cluster_shapes", s.fedClusterShapes, true, [&](V& e, auto& types) {
    e.list("", types, true,
           [&](V& t, auto& type) { machineType(t, "", type, s); });
  });
  v.require(s.fedClusterShapes.empty() ||
                s.fedClusterShapes.size() == f.clusters,
            "cluster_shapes",
            "must have exactly `clusters` (" + std::to_string(f.clusters) +
                ") entries, got " + std::to_string(s.fedClusterShapes.size()));
}

/// The controller knobs, shared by the base `elasticity` block and each
/// `cluster_overrides` entry.  Range checks mirror
/// ElasticityConfig::validate() but carry source lines.
template <class V, class C>
void describeController(V& v, C& ec, const ScenarioSpec& s) {
  using sim::ElasticityPolicy;
  v.flag("enabled", ec.enabled);
  v.choice("policy", ec.policy,
           {{"queue_bound", ElasticityPolicy::QueueBound},
            {"target_utilization", ElasticityPolicy::TargetUtilization},
            {"chance_slo", ElasticityPolicy::ChanceSlo}});
  v.number("period", ec.period, kPositive);
  v.number("boot_latency", ec.bootLatency, kNonNegative);
  v.integer("step", ec.step, 1);
  v.number("scale_up_queue", ec.scaleUpQueue, kPositive);
  v.number("scale_down_queue", ec.scaleDownQueue, kNonNegative);
  v.number("setpoint", ec.setpoint, kOpenUnit);
  v.number("ewma_alpha", ec.ewmaAlpha, {0.0, 1.0, true, false});
  v.number("deadband", ec.deadband, kNonNegative);
  v.number("chance_threshold", ec.chanceThreshold, kUnit);
  v.list("pool", ec.pool, true, [&](V& g, auto& group) {
    g.needs({"machine_type", "max"});
    machineType(g, "machine_type", group.machineType, s);
    g.integer("min", group.minMachines, 1);
    g.integer("max", group.maxMachines, 1);
    g.require(group.maxMachines >= group.minMachines, "max", "must be >= min");
    g.require(std::none_of(ec.pool.begin(), ec.pool.end(),
                           [&](const sim::ElasticGroup& other) {
                             return other.machineType == group.machineType;
                           }),
              "", "duplicate entry for machine type " +
                      std::to_string(group.machineType));
  });
  v.require(ec.scaleDownQueue < ec.scaleUpQueue, "",
            "need scale_down_queue < scale_up_queue (the hysteresis band)");
  v.require(ec.setpoint - ec.deadband > 0.0 && ec.setpoint + ec.deadband < 1.0,
            "", "deadband must keep setpoint +/- deadband inside (0, 1)");
  v.require(!ec.enabled || !ec.pool.empty(), "",
            "enabled requires a non-empty pool");
}

template <class V, class S>
void describeElasticity(V& v, S& s) {
  auto& base = s.experiment.sim.elasticity;
  const std::size_t clusters = s.federation.clusters;
  describeController(v, base, s);
  v.require(!v.has("cluster_overrides") || s.federationEnabled,
            "cluster_overrides",
            "requires federation.enabled (overrides are per federation "
            "cluster)");
  // An override starts from the base block, so it parses to a fully
  // resolved config and emits every key.
  v.list(
      "cluster_overrides", s.elasticityOverrides, true,
      [&](V& o, auto& ov) {
        o.needs({"cluster"});
        describeController(o, ov.config, s);
        o.integer("cluster", ov.cluster);
        o.require(ov.cluster < clusters, "cluster",
                  "cluster " + std::to_string(ov.cluster) +
                      " out of range (federation has " +
                      std::to_string(clusters) + " clusters)");
        o.require(std::none_of(s.elasticityOverrides.begin(),
                               s.elasticityOverrides.end(),
                               [&](const auto& other) {
                                 return other.cluster == ov.cluster;
                               }),
                  "cluster",
                  "duplicate entry for cluster " +
                      std::to_string(ov.cluster));
      },
      ScenarioSpec::ElasticityOverride{0, base});
}

template <class V, class S>
void describeRun(V& v, S& s) {
  auto& e = s.experiment;
  v.integer("trials", e.trials, 1);
  v.integer("jobs", e.jobs);
  v.integer("seed", e.baseSeed);
  v.number("scale", s.pet.scale, kPositive);
  v.integer("warmup", s.warmup, -1);  // -1 = auto
  // PaperScenario::scaledTasks rounds rate x scale to the task count; a
  // replayed trace brings its own tasks and the bursty pattern its own rate.
  const bool replay = e.stream.enabled && !e.stream.trace.empty();
  v.require(s.pattern == workload::ArrivalPattern::Bursty || replay ||
                static_cast<double>(s.rate) * s.pet.scale >= 0.5,
            "scale",
            "scales workload.rate " + std::to_string(s.rate) + " to 0 tasks");
}

template <class V, class S>
void describeScenario(V& v, S& s) {
  v.text("name", s.name);
  v.text("description", s.description);
  auto& sim = s.experiment.sim;
  v.object("pet", [&](V& b) { describePet(b, s.pet); });
  v.object("cluster", [&](V& b) { describeCluster(b, s); });
  v.object("workload", [&](V& b) { describeWorkload(b, s); });
  v.object("stream", [&](V& b) { describeStream(b, s.experiment.stream); });
  v.object("sim", [&](V& b) { describeSim(b, sim); });
  v.object("faults", [&](V& b) { describeFaults(b, sim.faults); });
  v.object("admission",
           [&](V& b) { describeAdmission(b, s.federation.admission); });
  v.object("federation", [&](V& b) { describeFederation(b, s); });
  v.object("elasticity", [&](V& b) { describeElasticity(b, s); });
  v.object("run", [&](V& b) { describeRun(b, s); });
  for (const char* key : {"sweep", "report"}) {
    v.require(!v.has(key), key,
              "belongs to the scenario document; parseScenarioDoc handles "
              "it (a bare scenario object or grid point cannot set it)");
  }
  const fed::AdmissionPolicyKind policy = s.federation.admission.policy;
  v.require(policy == fed::AdmissionPolicyKind::AcceptAll ||
                s.federationEnabled,
            "admission",
            "policy \"" + std::string(fed::toString(policy)) +
                "\" requires federation.enabled (the gateway applies it)");
}

// --- Binding ----------------------------------------------------------------

/// A bound cluster's machine → PET-machine-type map, as the elasticity
/// expansion consumes it.
std::vector<int> machineTypesOf(const workload::BoundExecutionModel& model) {
  std::vector<int> types;
  types.reserve(static_cast<std::size_t>(model.numMachines()));
  for (int j = 0; j < model.numMachines(); ++j) {
    types.push_back(model.machineTypeOf(j));
  }
  return types;
}

/// Rejects a machine → PET-machine-type map that names a type the PET
/// lacks.  Parsing checks it too, but a hand-built spec reaches the binder
/// unchecked.
void checkMachineTypes(const std::vector<int>& types, int numMachineTypes,
                       const std::string& what) {
  for (int t : types) {
    if (t >= numMachineTypes) {
      throw ScenarioError(what + ": machine type " + std::to_string(t) +
                          " out of range (PET has " +
                          std::to_string(numMachineTypes) +
                          " machine types)");
    }
  }
}

/// Resolves one cluster's controller config against its base shape: fills
/// baseMachines, validates that the base count of every pooled type sits
/// inside [min, max], and appends the parked surplus (max - base count per
/// group) to `expandedTypes` — so machine ids 0..B-1 stay exactly the
/// fixed-capacity cluster.
sim::ElasticityConfig resolveElasticity(const sim::ElasticityConfig& base,
                                        const std::vector<int>& baseTypes,
                                        int numMachineTypes,
                                        std::vector<int>& expandedTypes,
                                        const std::string& what) {
  sim::ElasticityConfig resolved = base;
  resolved.baseMachines = baseTypes.size();
  expandedTypes = baseTypes;
  for (const sim::ElasticGroup& g : base.pool) {
    checkMachineTypes({g.machineType}, numMachineTypes, what + ".pool");
    int count = 0;
    for (int t : baseTypes) {
      if (t == g.machineType) ++count;
    }
    if (count < g.minMachines || count > g.maxMachines) {
      throw ScenarioError(
          what + ".pool: the base cluster has " + std::to_string(count) +
          " machines of type " + std::to_string(g.machineType) +
          ", outside the pool bounds [" + std::to_string(g.minMachines) +
          ", " + std::to_string(g.maxMachines) + "]");
    }
    for (int i = count; i < g.maxMachines; ++i) {
      expandedTypes.push_back(g.machineType);
    }
  }
  resolved.validate();
  return resolved;
}

}  // namespace

ScenarioSpec parseScenarioSpec(const JsonValue& json) {
  ScenarioSpec spec;
  Reader reader(&json, "", json);
  describeScenario(reader, spec);
  reader.done();
  return spec;
}

JsonValue scenarioSpecToJson(const ScenarioSpec& spec) {
  JsonValue root = JsonValue::makeObject();
  Writer writer(root);
  describeScenario(writer, spec);
  return root;
}

std::string scenarioModelKey(const ScenarioSpec& spec) {
  // Exactly what PaperScenario's constructor consumes: the pet block's
  // canonical form (every key the schema gives it) plus the scale.
  JsonValue key = JsonValue::makeObject();
  Writer writer(key);
  writer.object("pet", [&](Writer& b) { describePet(b, spec.pet); });
  writer.number("scale", spec.pet.scale);
  return util::writeJson(key);
}

BoundScenario bindScenario(const ScenarioSpec& spec,
                           std::shared_ptr<const PaperScenario> paper) {
  BoundScenario bound;
  if (paper == nullptr) paper = std::make_shared<const PaperScenario>(spec.pet);
  bound.paper = paper;
  const int numMachineTypes = spec.pet.synthesis.numMachineTypes;

  switch (spec.clusterKind) {
    case ScenarioSpec::ClusterKind::Heterogeneous:
      bound.model = &paper->hetero();
      break;
    case ScenarioSpec::ClusterKind::Homogeneous:
      bound.model = &paper->homo();
      break;
    case ScenarioSpec::ClusterKind::Custom: {
      checkMachineTypes(spec.customMachineTypes, numMachineTypes,
                        "cluster.machine_types");
      bound.customModel = std::make_unique<workload::BoundExecutionModel>(
          paper->pet(), spec.customMachineTypes);
      bound.model = bound.customModel.get();
      break;
    }
  }

  if (spec.federationEnabled) {
    bound.federated = true;
    bound.federation = spec.federation;
    if (spec.fedClusterShapes.empty()) {
      // Every cluster mirrors the base cluster — share the one bound model.
      bound.fedModels.assign(spec.federation.clusters, bound.model);
    } else {
      for (const std::vector<int>& shape : spec.fedClusterShapes) {
        checkMachineTypes(shape, numMachineTypes, "federation.cluster_shapes");
        bound.fedOwned.push_back(
            std::make_unique<workload::BoundExecutionModel>(paper->pet(),
                                                            shape));
        bound.fedModels.push_back(bound.fedOwned.back().get());
      }
    }
  }

  ExperimentSpec& e = bound.experiment;
  e = spec.experiment;
  workload::ArrivalSpec& arrival = e.arrival;
  if (spec.pattern == workload::ArrivalPattern::Bursty) {
    // Absolute-time IPPP intensity calibrated to the bound cluster's
    // capacity: machines over the mean expected execution time.
    double meanExec = 0.0;
    for (int k = 0; k < bound.model->numTaskTypes(); ++k) {
      for (int j = 0; j < bound.model->numMachines(); ++j) {
        meanExec += bound.model->expectedExec(k, j);
      }
    }
    meanExec /= static_cast<double>(bound.model->numTaskTypes() *
                                    bound.model->numMachines());
    const double capacity =
        static_cast<double>(bound.model->numMachines()) / meanExec;
    arrival = workload::ArrivalSpec{.values = arrival.values};
    arrival.pattern = workload::ArrivalPattern::Bursty;
    arrival.span = spec.burstSpan;
    arrival.totalTasks = 0;
    arrival.numTaskTypes = spec.pet.synthesis.numTaskTypes;
    arrival.burstBaseRate = spec.burstBaseFactor * capacity;
    arrival.burstPeakRate = spec.burstPeakFactor * capacity;
    arrival.burstWidth = spec.burstWidth;
    arrival.burstPeriod = spec.burstPeriod;
    e.sim.warmupMargin =
        spec.warmup < 0 ? 0 : static_cast<std::size_t>(spec.warmup);
  } else {
    // The spike and gap knobs were parsed into `arrival`; only the
    // rate-derived fields come from the paper scenario.
    const workload::ArrivalSpec paperArrival =
        paper->arrivalSpec(spec.rate, spec.pattern);
    arrival.pattern = paperArrival.pattern;
    arrival.span = paperArrival.span;
    arrival.totalTasks = paperArrival.totalTasks;
    arrival.numTaskTypes = paperArrival.numTaskTypes;
    e.sim.warmupMargin = spec.warmup < 0
                             ? paper->warmupMargin(spec.rate)
                             : static_cast<std::size_t>(spec.warmup);
  }
  e.sim.faults.validate();

  // --- elasticity binding ---
  // Runs LAST on purpose: the bursty arrival calibration above reads the
  // BASE cluster's capacity, so elastic and fixed-capacity variants of one
  // scenario see the identical workload (the frontier comparison depends
  // on it).  Parked surplus slots are appended after the base shape, so
  // machine ids 0..B-1 stay exactly the fixed-capacity cluster.  The
  // shared block stays inactive unless a single cluster resolves it.
  const sim::ElasticityConfig& elasticity = spec.experiment.sim.elasticity;
  e.sim.elasticity = {};
  if (!spec.federationEnabled && elasticity.active()) {
    std::vector<int> expanded;
    e.sim.elasticity =
        resolveElasticity(elasticity, machineTypesOf(*bound.model),
                          numMachineTypes, expanded, "elasticity");
    if (expanded.size() > e.sim.elasticity.baseMachines) {
      bound.customModel = std::make_unique<workload::BoundExecutionModel>(
          paper->pet(), expanded);
      bound.model = bound.customModel.get();
    }
  } else if (spec.federationEnabled &&
             (elasticity.active() || !spec.elasticityOverrides.empty())) {
    // Per-cluster resolution: an override replaces the base block for its
    // cluster; every cluster gets its own expanded model and a
    // fully-resolved FederationSpec.clusterElasticity entry (the engine
    // then never consults the shared SimulationConfig block).
    for (std::size_t c = 0; c < spec.federation.clusters; ++c) {
      const sim::ElasticityConfig* src = &elasticity;
      for (const ScenarioSpec::ElasticityOverride& ov :
           spec.elasticityOverrides) {
        if (ov.cluster == c) src = &ov.config;
      }
      if (!src->active()) {
        bound.federation.clusterElasticity.push_back(*src);
        continue;
      }
      std::vector<int> expanded;
      sim::ElasticityConfig resolved =
          resolveElasticity(*src, machineTypesOf(*bound.fedModels[c]),
                            numMachineTypes, expanded, "elasticity");
      if (expanded.size() > resolved.baseMachines) {
        bound.fedOwned.push_back(
            std::make_unique<workload::BoundExecutionModel>(paper->pet(),
                                                            expanded));
        bound.fedModels[c] = bound.fedOwned.back().get();
      }
      bound.federation.clusterElasticity.push_back(std::move(resolved));
    }
  }
  return bound;
}

}  // namespace hcs::exp
