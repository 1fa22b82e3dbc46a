#include "heuristics/homogeneous.h"

#include <algorithm>
#include <vector>

namespace hcs::heuristics {

namespace {

/// Assigns tasks in the given order, each to its minimum expected completion
/// time machine, tracking virtual ready times and slots — the shared
/// second half of EDF and SJF.
std::vector<Assignment> greedyMinCompletion(
    const MappingContext& ctx, const std::vector<sim::TaskId>& order) {
  const int m = ctx.numMachines();
  std::vector<double> virtualReady(static_cast<std::size_t>(m));
  std::vector<std::size_t> slots(static_cast<std::size_t>(m));
  for (sim::MachineId j = 0; j < m; ++j) {
    virtualReady[static_cast<std::size_t>(j)] = ctx.expectedReady(j);
    slots[static_cast<std::size_t>(j)] = ctx.freeSlots(j);
  }
  std::vector<Assignment> result;
  for (sim::TaskId task : order) {
    const sim::TaskType type = ctx.pool()[task].type;
    sim::MachineId bestMachine = sim::kInvalidMachine;
    double bestEct = 0.0;
    for (sim::MachineId j = 0; j < m; ++j) {
      if (slots[static_cast<std::size_t>(j)] == 0) continue;
      const double ect = virtualReady[static_cast<std::size_t>(j)] +
                         ctx.expectedExec(type, j);
      if (bestMachine == sim::kInvalidMachine || ect < bestEct) {
        bestMachine = j;
        bestEct = ect;
      }
    }
    if (bestMachine == sim::kInvalidMachine) break;  // all queues full
    result.push_back(Assignment{task, bestMachine});
    slots[static_cast<std::size_t>(bestMachine)] -= 1;
    virtualReady[static_cast<std::size_t>(bestMachine)] +=
        ctx.expectedExec(type, bestMachine);
  }
  return result;
}

/// Cheapest expected execution across machines; on a homogeneous cluster
/// this is simply the type's execution mean.
double minExpectedExec(const MappingContext& ctx, sim::TaskType type) {
  double best = ctx.expectedExec(type, 0);
  for (sim::MachineId j = 1; j < ctx.numMachines(); ++j) {
    best = std::min(best, ctx.expectedExec(type, j));
  }
  return best;
}

}  // namespace

std::vector<Assignment> FcfsRoundRobin::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  const int m = ctx.numMachines();
  std::vector<std::size_t> slots(static_cast<std::size_t>(m));
  for (sim::MachineId j = 0; j < m; ++j) {
    slots[static_cast<std::size_t>(j)] = ctx.freeSlots(j);
  }
  std::vector<Assignment> result;
  for (sim::TaskId task : batch) {
    // Next machine in cyclic order with a free slot.
    int probes = 0;
    while (probes < m && slots[static_cast<std::size_t>(next_)] == 0) {
      next_ = (next_ + 1) % m;
      ++probes;
    }
    if (probes == m) break;  // no machine has space
    result.push_back(Assignment{task, next_});
    slots[static_cast<std::size_t>(next_)] -= 1;
    next_ = (next_ + 1) % m;
  }
  return result;
}

std::vector<Assignment> EarliestDeadlineFirst::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  std::vector<sim::TaskId> order(batch.begin(), batch.end());
  std::sort(order.begin(), order.end(),
            [&](sim::TaskId a, sim::TaskId b) {
              const auto& ta = ctx.pool()[a];
              const auto& tb = ctx.pool()[b];
              if (ta.deadline != tb.deadline) return ta.deadline < tb.deadline;
              return ta.ordinal < tb.ordinal;
            });
  return greedyMinCompletion(ctx, order);
}

std::vector<Assignment> ShortestJobFirst::map(
    const MappingContext& ctx, std::span<const sim::TaskId> batch) {
  std::vector<sim::TaskId> order(batch.begin(), batch.end());
  std::sort(order.begin(), order.end(),
            [&](sim::TaskId a, sim::TaskId b) {
              const auto& ta = ctx.pool()[a];
              const auto& tb = ctx.pool()[b];
              const double ea = minExpectedExec(ctx, ta.type);
              const double eb = minExpectedExec(ctx, tb.type);
              if (ea != eb) return ea < eb;
              return ta.ordinal < tb.ordinal;
            });
  return greedyMinCompletion(ctx, order);
}

}  // namespace hcs::heuristics
