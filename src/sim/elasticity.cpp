#include "sim/elasticity.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/faults.h"

namespace hcs::sim {

const char* toString(ElasticityPolicy policy) {
  switch (policy) {
    case ElasticityPolicy::QueueBound: return "queue_bound";
    case ElasticityPolicy::TargetUtilization: return "target_utilization";
    case ElasticityPolicy::ChanceSlo: return "chance_slo";
  }
  return "unknown";
}

void ElasticityConfig::validate() const {
  if (!enabled) return;
  if (period <= 0.0) {
    throw std::invalid_argument("ElasticityConfig: period must be positive");
  }
  if (bootLatency < 0.0) {
    throw std::invalid_argument(
        "ElasticityConfig: boot latency must be >= 0");
  }
  if (step < 1) {
    throw std::invalid_argument("ElasticityConfig: step must be >= 1");
  }
  if (scaleDownQueue < 0.0 || scaleUpQueue <= scaleDownQueue) {
    throw std::invalid_argument(
        "ElasticityConfig: need 0 <= scale_down_queue < scale_up_queue "
        "(the hysteresis band)");
  }
  if (!(setpoint > 0.0 && setpoint < 1.0)) {
    throw std::invalid_argument(
        "ElasticityConfig: setpoint must be in (0, 1)");
  }
  if (!(ewmaAlpha > 0.0 && ewmaAlpha <= 1.0)) {
    throw std::invalid_argument(
        "ElasticityConfig: ewma_alpha must be in (0, 1]");
  }
  if (deadband < 0.0 || setpoint - deadband <= 0.0 ||
      setpoint + deadband >= 1.0) {
    throw std::invalid_argument(
        "ElasticityConfig: deadband must keep setpoint +/- deadband inside "
        "(0, 1)");
  }
  if (chanceThreshold < 0.0 || chanceThreshold > 1.0) {
    throw std::invalid_argument(
        "ElasticityConfig: chance_threshold must be in [0, 1]");
  }
  for (const ElasticGroup& g : pool) {
    if (g.machineType < 0) {
      throw std::invalid_argument(
          "ElasticityConfig: pool machine_type must be >= 0");
    }
    if (g.minMachines < 1) {
      throw std::invalid_argument("ElasticityConfig: pool min must be >= 1");
    }
    if (g.maxMachines < g.minMachines) {
      throw std::invalid_argument(
          "ElasticityConfig: pool max must be >= min");
    }
    for (const ElasticGroup& other : pool) {
      if (&other != &g && other.machineType == g.machineType) {
        throw std::invalid_argument(
            "ElasticityConfig: duplicate pool entry for machine type " +
            std::to_string(g.machineType));
      }
    }
  }
}

CapacityController::CapacityController(const ElasticityConfig& config,
                                       std::uint64_t seed,
                                       const ExecutionModel& model,
                                       std::size_t numMachines)
    : config_(config), rng_(seed), model_(&model), numMachines_(numMachines) {
  config.validate();
}

void CapacityController::beginTrial(EventQueue& events,
                                    std::vector<Machine>& machines,
                                    const TaskPool& pool) {
  if (machines.size() != numMachines_) {
    throw std::invalid_argument(
        "CapacityController: machine count changed since construction");
  }
  slots_.assign(numMachines_, Slot::Fixed);
  bootSeq_.assign(numMachines_, kNoEvent);
  groupOf_.assign(numMachines_, std::string::npos);
  members_.assign(config_.pool.size(), {});
  activeCounts_.assign(config_.pool.size(), 0);
  bootingCounts_.assign(config_.pool.size(), 0);
  for (std::size_t j = 0; j < numMachines_; ++j) {
    const int type = model_->machineTypeOf(static_cast<MachineId>(j));
    const auto g = std::find_if(
        config_.pool.begin(), config_.pool.end(),
        [&](const ElasticGroup& e) { return e.machineType == type; });
    if (g == config_.pool.end()) continue;
    const auto gi = static_cast<std::size_t>(g - config_.pool.begin());
    groupOf_[j] = gi;
    members_[gi].push_back(j);
    slots_[j] = j < config_.baseMachines ? Slot::Active : Slot::Parked;
    if (slots_[j] == Slot::Active && !machines[j].draining()) {
      ++activeCounts_[gi];
    }
  }
  for (std::size_t gi = 0; gi < config_.pool.size(); ++gi) {
    const ElasticGroup& g = config_.pool[gi];
    const int total = static_cast<int>(members_[gi].size());
    const int active = activeCounts_[gi];
    if (active < g.minMachines || active > g.maxMachines ||
        total > g.maxMachines) {
      throw std::invalid_argument(
          "CapacityController: machine type " +
          std::to_string(g.machineType) + " starts with " +
          std::to_string(active) + " active of " + std::to_string(total) +
          " slots, outside [min=" + std::to_string(g.minMachines) +
          ", max=" + std::to_string(g.maxMachines) + "]");
    }
  }
  // Surplus capacity starts parked: taken down at t = 0 like the fault
  // layer's initially-offline machines (nothing ran yet, nothing to abort,
  // no trace) — and before the injector arms, so no failure process is
  // attached to a slot that is not in service.
  std::vector<TaskId> orphans;
  for (std::size_t j = 0; j < numMachines_; ++j) {
    if (slots_[j] == Slot::Parked && machines[j].online()) {
      machines[j].goOffline(0, pool, *model_, orphans);
    }
  }
  pushTick(events, 0);
}

void CapacityController::pushTick(EventQueue& events, Time now) {
  events.push(now + config_.period, EventKind::ControllerTick, kInvalidTask,
              kInvalidMachine);
}

int CapacityController::decideTargetUtilization(
    const std::vector<Machine>& machines, Time now) {
  double busy = 0.0, online = 0.0;
  for (const Machine& m : machines) {
    busy += m.busyTime() +
            (m.busy() ? now - m.runningSince() : Time{0});
    online += m.onlineSeconds(now);
  }
  const double busyDelta = busy - lastBusy_;
  const double onlineDelta = online - lastOnline_;
  lastBusy_ = busy;
  lastOnline_ = online;
  if (onlineDelta <= 0.0) return 0;
  const double inst = busyDelta / onlineDelta;
  ewma_ = ewma_ < 0.0 ? inst
                      : config_.ewmaAlpha * inst +
                            (1.0 - config_.ewmaAlpha) * ewma_;
  if (ewma_ > config_.setpoint + config_.deadband) return +1;
  if (ewma_ < config_.setpoint - config_.deadband) return -1;
  return 0;
}

int CapacityController::decideChanceSlo(const std::vector<Machine>& machines,
                                        const LoadSignal& signal) {
  if (!signal.headChance.has_value()) {
    // Nothing waiting: release capacity while some accepting machine sits
    // idle (the cluster is visibly overprovisioned for the moment).
    for (std::size_t j = 0; j < numMachines_; ++j) {
      if (slots_[j] == Slot::Active && machines[j].acceptsWork() &&
          machines[j].empty()) {
        return -1;
      }
    }
    return 0;
  }
  // No machine can take the head task at all, or its best Eq. 2 chance
  // misses the SLO: add capacity.
  return *signal.headChance < config_.chanceThreshold ? +1 : 0;
}

int CapacityController::decide(const std::vector<Machine>& machines,
                               const LoadSignal& signal, Time now) {
  switch (config_.policy) {
    case ElasticityPolicy::QueueBound: {
      // Provisioned capacity counts fixed + active-not-draining + booting:
      // in-flight boots must count, or every tick during the provisioning
      // delay re-triggers scale-up (a boot storm).
      double provisioned = 0.0;
      for (std::size_t j = 0; j < numMachines_; ++j) {
        if (slots_[j] == Slot::Booting) {
          provisioned += 1.0;
        } else if (slots_[j] != Slot::Parked && !machines[j].draining()) {
          provisioned += 1.0;
        }
      }
      const auto load = static_cast<double>(signal.tasksInSystem);
      if (load > config_.scaleUpQueue * provisioned) return +1;
      if (load < config_.scaleDownQueue * provisioned) return -1;
      return 0;
    }
    case ElasticityPolicy::TargetUtilization:
      return decideTargetUtilization(machines, now);
    case ElasticityPolicy::ChanceSlo:
      return decideChanceSlo(machines, signal);
  }
  return 0;
}

void CapacityController::scaleUpGroup(std::size_t group,
                                      EventQueue& events,
                                      std::vector<Machine>& machines,
                                      Metrics& metrics, Time now,
                                      CapacityDelta& delta) {
  const std::vector<std::size_t>& members = members_[group];
  for (int k = 0; k < config_.step; ++k) {
    if (activeCounts_[group] + bootingCounts_[group] >=
        config_.pool[group].maxMachines) {
      return;
    }
    // Cheapest capacity first: reclaim a draining machine (its queue and
    // Eq. 1 chain are intact), then boot a parked slot through the
    // provisioning delay.  Both pick the lowest-index member.
    MachineId target = kInvalidMachine;
    for (const std::size_t j : members) {
      if (slots_[j] == Slot::Active && machines[j].draining()) {
        target = static_cast<MachineId>(j);
        break;
      }
    }
    if (target != kInvalidMachine) {
      machines[static_cast<std::size_t>(target)].cancelDrain(now);
      ++activeCounts_[group];
      metrics.recordScaleUp();
      delta.reclaimed.push_back(target);
      continue;
    }
    for (const std::size_t j : members) {
      if (slots_[j] == Slot::Parked) {
        target = static_cast<MachineId>(j);
        break;
      }
    }
    if (target == kInvalidMachine) return;
    const auto idx = static_cast<std::size_t>(target);
    slots_[idx] = Slot::Booting;
    ++bootingCounts_[group];
    bootSeq_[idx] = events.nextSeq();
    events.push(now + config_.bootLatency, EventKind::CapacityOnline,
                kInvalidTask, target);
    metrics.recordScaleUp();
    delta.booting.push_back(target);
  }
}

void CapacityController::scaleDownGroup(std::size_t group,
                                        EventQueue& events,
                                        std::vector<Machine>& machines,
                                        const TaskPool& pool,
                                        Metrics& metrics, Time now,
                                        FaultInjector* injector,
                                        CapacityDelta& delta) {
  const std::vector<std::size_t>& members = members_[group];
  const int minMachines = config_.pool[group].minMachines;
  if (bootingCounts_[group] == 0 && activeCounts_[group] <= minMachines) {
    // Nothing to withdraw and nothing above `min` to drain: every step
    // below would find that out by walking the group.
    ++scaleDownSkips_;
    return;
  }
  for (int k = 0; k < config_.step; ++k) {
    // Cheapest release first: withdraw an in-flight boot (it never came
    // online, nothing to drain).
    MachineId target = kInvalidMachine;
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      if (slots_[*it] == Slot::Booting) {
        target = static_cast<MachineId>(*it);
        break;
      }
    }
    if (target != kInvalidMachine &&
        activeCounts_[group] + bootingCounts_[group] - 1 >= minMachines) {
      const auto idx = static_cast<std::size_t>(target);
      events.cancel(bootSeq_[idx]);
      bootSeq_[idx] = kNoEvent;
      slots_[idx] = Slot::Parked;
      --bootingCounts_[group];
      metrics.recordScaleDown();
      delta.bootsCancelled.push_back(target);
      continue;
    }
    // Drain the highest-index active machine; the lower bound counts only
    // active-not-draining machines, so `min` accepting machines survive
    // every instant of a fault-free trial.
    target = kInvalidMachine;
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      const std::size_t j = *it;
      if (slots_[j] == Slot::Active && machines[j].online() &&
          !machines[j].draining()) {
        target = static_cast<MachineId>(j);
        break;
      }
    }
    if (target == kInvalidMachine || activeCounts_[group] - 1 < minMachines) {
      return;
    }
    const auto idx = static_cast<std::size_t>(target);
    machines[idx].beginDrain(now);
    --activeCounts_[group];
    metrics.recordScaleDown();
    delta.drained.push_back(target);
    if (machines[idx].empty()) {
      // Nothing to finish: the drain completes on the spot.
      std::vector<TaskId> orphans;
      machines[idx].goOffline(now, pool, *model_, orphans);
      machines[idx].cancelDrain(now);
      slots_[idx] = Slot::Parked;
      if (injector != nullptr) injector->onMachineRetired(events, target);
      delta.retired.push_back(target);
    }
  }
}

CapacityDelta CapacityController::onTick(EventQueue& events,
                                         std::vector<Machine>& machines,
                                         const TaskPool& pool,
                                         const LoadSignal& signal,
                                         Metrics& metrics, Time now,
                                         FaultInjector* injector) {
  CapacityDelta delta;
  const int direction = decide(machines, signal, now);
  if (direction > 0) {
    for (std::size_t g = 0; g < config_.pool.size(); ++g) {
      scaleUpGroup(g, events, machines, metrics, now, delta);
    }
  } else if (direction < 0) {
    for (std::size_t g = 0; g < config_.pool.size(); ++g) {
      scaleDownGroup(g, events, machines, pool, metrics, now, injector,
                     delta);
    }
  }
  pushTick(events, now);
  return delta;
}

bool CapacityController::onCapacityOnline(EventQueue& events,
                                          const Event& event,
                                          std::vector<Machine>& machines,
                                          const TaskPool& pool, Time now,
                                          FaultInjector* injector) {
  const auto idx = static_cast<std::size_t>(event.machine);
  if (idx >= numMachines_ || slots_[idx] != Slot::Booting ||
      bootSeq_[idx] != event.seq) {
    return false;  // stale (the boot was withdrawn); cancel() makes this rare
  }
  bootSeq_[idx] = kNoEvent;
  slots_[idx] = Slot::Active;
  Machine& m = machines[idx];
  --bootingCounts_[groupOf_[idx]];
  if (!m.draining()) ++activeCounts_[groupOf_[idx]];
  // A scripted recover aimed at this id may have raced the boot and revived
  // the machine already; comeOnline would throw, and there is nothing left
  // to do but adopt it.
  if (!m.online()) m.comeOnline(now, pool, *model_);
  if (injector != nullptr) {
    injector->onMachineBooted(events, event.machine, now);
  }
  return m.acceptsWork();
}

bool CapacityController::maybeRetire(EventQueue& events,
                                     std::vector<Machine>& machines,
                                     const TaskPool& pool, MachineId machine,
                                     Time now, FaultInjector* injector) {
  const auto idx = static_cast<std::size_t>(machine);
  if (idx >= numMachines_ || slots_[idx] != Slot::Active) return false;
  Machine& m = machines[idx];
  if (!m.draining() || !m.online() || !m.empty()) return false;
  std::vector<TaskId> orphans;
  m.goOffline(now, pool, *model_, orphans);
  m.cancelDrain(now);
  slots_[idx] = Slot::Parked;
  if (injector != nullptr) injector->onMachineRetired(events, machine);
  return true;
}

}  // namespace hcs::sim
