#include "fed/routing.h"

#include <limits>
#include <stdexcept>

namespace hcs::fed {

std::string_view toString(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::RoundRobin: return "round_robin";
    case RoutingPolicyKind::LeastQueueDepth: return "least_queue";
    case RoutingPolicyKind::LeastExpectedCompletion: return "least_ect";
    case RoutingPolicyKind::MaxChance: return "max_chance";
  }
  throw std::invalid_argument("toString: unknown RoutingPolicyKind");
}

std::size_t clusterDepth(const ClusterView& view) {
  std::size_t depth = view.batchQueueLength + view.inFlight;
  for (const sim::Machine& m : *view.machines) {
    depth += m.queueLength() + (m.busy() ? 1u : 0u);
  }
  return depth;
}

namespace {

class RoundRobinPolicy final : public RoutingPolicy {
 public:
  void beginTrial() override { next_ = 0; }
  std::size_t route(const std::vector<ClusterView>& clusters,
                    const sim::Task&, sim::Time) override {
    const std::size_t pick = next_;
    next_ = (next_ + 1) % clusters.size();
    return pick;
  }

 private:
  std::size_t next_ = 0;
};

class LeastQueueDepthPolicy final : public RoutingPolicy {
 public:
  std::size_t route(const std::vector<ClusterView>& clusters,
                    const sim::Task&, sim::Time) override {
    std::size_t best = 0;
    std::size_t bestDepth = std::numeric_limits<std::size_t>::max();
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const std::size_t depth = clusterDepth(clusters[c]);
      if (depth < bestDepth) {
        bestDepth = depth;
        best = c;
      }
    }
    return best;
  }
};

class LeastExpectedCompletionPolicy final : public RoutingPolicy {
 public:
  std::size_t route(const std::vector<ClusterView>& clusters,
                    const sim::Task& task, sim::Time) override {
    std::size_t best = 0;
    double bestEct = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const heuristics::MappingContext& ctx = *clusters[c].ctx;
      // Offline (churned) machines offer no completion; an all-offline
      // cluster keeps infinite merit and is never chosen over a live one.
      double clusterEct = std::numeric_limits<double>::infinity();
      for (int j = 0; j < ctx.numMachines(); ++j) {
        if (!ctx.machine(j).acceptsWork()) continue;
        const double ect = ctx.expectedCompletionForType(task.type, j);
        if (ect < clusterEct) clusterEct = ect;
      }
      if (clusterEct < bestEct) {
        bestEct = clusterEct;
        best = c;
      }
    }
    return best;
  }
};

/// QoS-chance-aware argmax: each cluster's merit is the best Eq. 2 success
/// chance the task would have on any of its machines, computed through the
/// cluster's MappingContext (and therefore its PctCache, when attached) —
/// the exact machinery the single-cluster MaxChance heuristic and the
/// pruner's deferring check use.
class MaxChancePolicy final : public RoutingPolicy {
 public:
  std::size_t route(const std::vector<ClusterView>& clusters,
                    const sim::Task& task, sim::Time) override {
    std::size_t best = 0;
    double bestChance = -1.0;
    for (std::size_t c = 0; c < clusters.size(); ++c) {
      const heuristics::MappingContext& ctx = *clusters[c].ctx;
      const std::vector<double> chances = ctx.successChances(task.id);
      // Offline machines are skipped: a churned machine's (empty-queue) PCT
      // would otherwise advertise the best chance in the federation.  A
      // cluster with no accepting machine keeps merit -1, below any live
      // cluster's (even one whose best chance is 0), like least_ect's +inf.
      double clusterChance = -1.0;
      for (int j = 0; j < ctx.numMachines(); ++j) {
        if (!ctx.machine(j).acceptsWork()) continue;
        const double chance = chances[static_cast<std::size_t>(j)];
        if (chance > clusterChance) clusterChance = chance;
      }
      if (clusterChance > bestChance) {
        bestChance = clusterChance;
        best = c;
      }
    }
    return best;
  }
};

}  // namespace

std::unique_ptr<RoutingPolicy> makeRoutingPolicy(RoutingPolicyKind kind) {
  switch (kind) {
    case RoutingPolicyKind::RoundRobin:
      return std::make_unique<RoundRobinPolicy>();
    case RoutingPolicyKind::LeastQueueDepth:
      return std::make_unique<LeastQueueDepthPolicy>();
    case RoutingPolicyKind::LeastExpectedCompletion:
      return std::make_unique<LeastExpectedCompletionPolicy>();
    case RoutingPolicyKind::MaxChance:
      return std::make_unique<MaxChancePolicy>();
  }
  throw std::invalid_argument("makeRoutingPolicy: unknown RoutingPolicyKind");
}

}  // namespace hcs::fed
