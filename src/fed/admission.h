#pragma once
// Gateway admission control of the federation tier: decide whether a cluster
// may take an arriving (or retried) task at all, *after* routing picked it.
//
// Under churn a degraded federation can be offered more work than its
// surviving capacity; admission control is the knob that trades completed
// work against queueing collapse.  When the routed cluster refuses, the
// gateway spills the task to sibling clusters in ascending index order
// (spillover), and only a federation-wide refusal rejects the task outright
// (TaskStatus::Rejected — a terminal outcome priced into robustness).
//
// Policies mirror the routing roster's range: state-free (accept_all),
// load-bounded (queue_bound), and probabilistic (chance_threshold, which
// reuses the Eq. 2 success-chance machinery across the cluster's *online*
// machines).

#include <cstddef>
#include <memory>
#include <string>
#include <string_view>

#include "fed/routing.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::fed {

enum class AdmissionPolicyKind {
  AcceptAll,        ///< never refuse (the fault-free identity default)
  QueueBound,       ///< refuse when the cluster's system depth hits a bound
  ChanceThreshold,  ///< refuse when no online machine clears an Eq. 2 bar
};

/// Scenario-file spelling: "accept_all" | "queue_bound" | "chance_threshold".
std::string_view toString(AdmissionPolicyKind kind);

/// Gateway admission configuration (scenario `admission` block).
struct AdmissionConfig {
  AdmissionPolicyKind policy = AdmissionPolicyKind::AcceptAll;
  /// queue_bound: max tasks in a cluster's system (running + machine queues
  /// + batch queue + in-flight) before it refuses new work.
  std::size_t queueBound = 64;
  /// chance_threshold: minimum best-machine Eq. 2 success chance a cluster
  /// must offer the task.
  double chanceThreshold = 0.05;
  /// Try sibling clusters (ascending index) when the routed cluster
  /// refuses; off = a single refusal rejects outright.
  bool spillover = true;

  /// Throws std::invalid_argument on inconsistent knobs.
  void validate() const;
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  /// True when `cluster` may take `task` at `now`.  The view's mapping
  /// context (when present) has been rebound to `now` before the call.
  virtual bool admit(const ClusterView& cluster, const sim::Task& task,
                     sim::Time now) = 0;
};

std::unique_ptr<AdmissionPolicy> makeAdmissionPolicy(
    const AdmissionConfig& config);

}  // namespace hcs::fed
