#include "fed/admission.h"

#include <stdexcept>
#include <vector>

namespace hcs::fed {

std::string_view toString(AdmissionPolicyKind kind) {
  switch (kind) {
    case AdmissionPolicyKind::AcceptAll: return "accept_all";
    case AdmissionPolicyKind::QueueBound: return "queue_bound";
    case AdmissionPolicyKind::ChanceThreshold: return "chance_threshold";
  }
  throw std::invalid_argument("toString: unknown AdmissionPolicyKind");
}

void AdmissionConfig::validate() const {
  if (policy == AdmissionPolicyKind::QueueBound && queueBound == 0) {
    throw std::invalid_argument(
        "AdmissionConfig: queue_bound must be >= 1 (0 admits nothing)");
  }
  if (policy == AdmissionPolicyKind::ChanceThreshold &&
      (chanceThreshold < 0.0 || chanceThreshold > 1.0)) {
    throw std::invalid_argument(
        "AdmissionConfig: chance_threshold must be in [0, 1]");
  }
}

namespace {

class AcceptAllPolicy final : public AdmissionPolicy {
 public:
  bool admit(const ClusterView&, const sim::Task&, sim::Time) override {
    return true;
  }
};

class QueueBoundPolicy final : public AdmissionPolicy {
 public:
  explicit QueueBoundPolicy(std::size_t bound) : bound_(bound) {}
  bool admit(const ClusterView& cluster, const sim::Task&,
             sim::Time) override {
    return clusterDepth(cluster) < bound_;
  }

 private:
  std::size_t bound_;
};

/// Eq. 2 as the admission criterion: the cluster must offer the task at
/// least `threshold` chance of on-time completion on one of the machines
/// accepting work (online and not draining).  A cluster with no accepting
/// machine admits nothing.
class ChanceThresholdPolicy final : public AdmissionPolicy {
 public:
  explicit ChanceThresholdPolicy(double threshold) : threshold_(threshold) {}
  bool admit(const ClusterView& cluster, const sim::Task& task,
             sim::Time) override {
    const std::vector<double> chances = cluster.ctx->successChances(task.id);
    for (std::size_t j = 0; j < chances.size(); ++j) {
      if (!(*cluster.machines)[j].acceptsWork()) continue;
      if (chances[j] >= threshold_) return true;
    }
    return false;
  }

 private:
  double threshold_;
};

}  // namespace

std::unique_ptr<AdmissionPolicy> makeAdmissionPolicy(
    const AdmissionConfig& config) {
  config.validate();
  switch (config.policy) {
    case AdmissionPolicyKind::AcceptAll:
      return std::make_unique<AcceptAllPolicy>();
    case AdmissionPolicyKind::QueueBound:
      return std::make_unique<QueueBoundPolicy>(config.queueBound);
    case AdmissionPolicyKind::ChanceThreshold:
      return std::make_unique<ChanceThresholdPolicy>(config.chanceThreshold);
  }
  throw std::invalid_argument(
      "makeAdmissionPolicy: unknown AdmissionPolicyKind");
}

}  // namespace hcs::fed
