#pragma once
// Batch-mode mapping heuristics for homogeneous systems (§III-D):
// FCFS-RR, EDF, SJF.
//
// These run against the same MappingContext as the heterogeneous batch
// heuristics — homogeneity comes from the execution model (all machines
// bound to the same PET column), not from special-casing here.

#include "heuristics/heuristic.h"

namespace hcs::heuristics {

/// First Come First Served - Round Robin: tasks in arrival order, each to
/// the next machine (cyclically) with a free queue slot.
class FcfsRoundRobin final : public BatchHeuristic {
 public:
  std::string_view name() const override { return "FCFS-RR"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;

 private:
  int next_ = 0;
};

/// Earliest Deadline First: the arrival queue sorted by deadline (ties in
/// arrival order); the head task goes to the machine with the minimum expected completion time.
class EarliestDeadlineFirst final : public BatchHeuristic {
 public:
  std::string_view name() const override { return "EDF"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

/// Shortest Job First: the arrival queue sorted by expected execution time
/// (ties in arrival order); the head task goes to the machine with the
/// minimum expected completion time.
class ShortestJobFirst final : public BatchHeuristic {
 public:
  std::string_view name() const override { return "SJF"; }
  std::vector<Assignment> map(const MappingContext& ctx,
                              std::span<const sim::TaskId> batch) override;
};

}  // namespace hcs::heuristics
