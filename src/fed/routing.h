#pragma once
// Gateway routing policies of the federation tier: given the live state of
// every cluster, pick the cluster an arriving task is dispatched to.
//
// Policies range from state-free (round-robin) to fully probabilistic
// (QoS-chance-aware argmax, which reads each cluster scheduler's Eq. 2
// machinery — its MappingContext + PctCache — across clusters).  All ties
// break toward the lowest cluster index, so routing is deterministic and a
// 1-cluster federation degenerates to "always cluster 0".

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "heuristics/context.h"
#include "sim/machine.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::fed {

enum class RoutingPolicyKind {
  RoundRobin,               ///< cyclic, state-free
  LeastQueueDepth,          ///< fewest tasks in the cluster's system
  LeastExpectedCompletion,  ///< min over machines of ECT (scalar estimate)
  MaxChance,                ///< argmax of the best Eq. 2 success chance
};

/// Scenario-file spelling: "round_robin" | "least_queue" | "least_ect" |
/// "max_chance".
std::string_view toString(RoutingPolicyKind kind);

/// The slice of one cluster's live state the gateway may consult.  The
/// mapping context is the cluster scheduler's own persistent one, rebound
/// to the routing decision's timestamp before route() runs.
struct ClusterView {
  const std::vector<sim::Machine>* machines = nullptr;
  /// Tasks waiting in the cluster scheduler's arrival (batch) queue.
  std::size_t batchQueueLength = 0;
  /// Tasks routed to this cluster but still in flight (dispatch latency).
  std::size_t inFlight = 0;
  heuristics::MappingContext* ctx = nullptr;
};

class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;

  /// Resets any internal state (e.g. the round-robin cursor) at the start
  /// of a trial, so trials are independent and reproducible.
  virtual void beginTrial() {}

  /// Picks the destination cluster for `task` arriving at `now`.  Must
  /// return an index in [0, clusters.size()).
  virtual std::size_t route(const std::vector<ClusterView>& clusters,
                            const sim::Task& task, sim::Time now) = 0;
};

std::unique_ptr<RoutingPolicy> makeRoutingPolicy(RoutingPolicyKind kind);

/// Tasks in a cluster's system as the gateway counts them: running + machine
/// queues + arrival queue + in-flight.  Exposed for tests and diagnostics.
std::size_t clusterDepth(const ClusterView& view);

}  // namespace hcs::fed
