#pragma once
// Elastic capacity control: a deterministic controller that decides, at a
// fixed control period, whether the cluster should add or retire capacity —
// the "decides" half of the churn story (ROADMAP 5(b)) on top of the fault
// layer's machine-lifecycle machinery.
//
// The controller owns no randomness in its decisions: all three policies
// are pure functions of observed load, so a trial is reproducible from
// (config, workload, seeds) alone.  Scale-up pays a per-boot provisioning
// delay (`boot_latency`) before the machine accepts work; scale-down drains
// gracefully — the machine finishes its running/queued tasks, then retires —
// unlike a failure's abort-and-orphan path.  A trial with elasticity
// disabled, or with min == max pinning every group, performs no controller
// action and stays byte-identical to the fixed-capacity engine.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "prob/rng.h"
#include "sim/event_queue.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::sim {

class FaultInjector;

/// How the controller reads load.
enum class ElasticityPolicy {
  QueueBound,          ///< tasks-in-system per provisioned machine, hysteresis
  TargetUtilization,   ///< EWMA of busy-fraction vs. a setpoint with deadband
  ChanceSlo,           ///< Eq. 2 best-machine success chance of the queue head
};

const char* toString(ElasticityPolicy policy);

/// Capacity bounds of one pooled machine type.  The bind layer appends
/// `maxMachines - <base count>` parked slots of this type after the base
/// cluster, so machine ids 0..B-1 stay exactly the fixed-capacity cluster.
struct ElasticGroup {
  int machineType = 0;
  int minMachines = 1;
  int maxMachines = 1;
};

struct ElasticityConfig {
  bool enabled = false;
  ElasticityPolicy policy = ElasticityPolicy::QueueBound;

  /// Control period: the controller re-evaluates every `period` time units
  /// (first tick at t = period — there is nothing to observe at t = 0).
  double period = 1.0;
  /// Provisioning delay paid by every scale-up before comeOnline.
  double bootLatency = 0.0;
  /// Machines added/retired per group per control action.
  int step = 1;

  // queue_bound: scale up when tasks-in-system exceeds scale_up_queue x
  // provisioned machines, down when it falls under scale_down_queue x.
  double scaleUpQueue = 4.0;
  double scaleDownQueue = 1.0;

  // target_utilization: EWMA(alpha) of the per-period busy fraction,
  // compared against setpoint +/- deadband.
  double setpoint = 0.7;
  double ewmaAlpha = 0.5;
  double deadband = 0.1;

  // chance_slo: scale up while the batch-queue head's best-machine Eq. 2
  // success chance sits below this threshold.
  double chanceThreshold = 0.5;

  /// Machines 0..baseMachines-1 start the trial active; the rest are parked
  /// capacity the controller may boot.  Filled by the bind layer.
  std::size_t baseMachines = 0;
  std::vector<ElasticGroup> pool;

  /// True when a controller should be armed at all.
  bool active() const { return enabled && !pool.empty(); }

  /// Throws std::invalid_argument on inconsistent knobs.
  void validate() const;
};

/// The load observation one tick works from; assembled by the engine
/// (the controller cannot see the scheduler's batch queue directly).
struct LoadSignal {
  /// Waiting (batch queue) + machine-queued + running tasks.
  std::size_t tasksInSystem = 0;
  /// Best Eq. 2 chance of the oldest waiting batch task on a machine with
  /// a free slot (-1 when none has one), nullopt when the queue is empty.
  /// Only read by the chance_slo policy (see needsHeadChance()).
  std::optional<double> headChance;
};

/// What one controller step changed; the engine turns entries into trace
/// events and — for transitions that add *accepting* capacity — a mapping
/// event.  A tick that decided nothing returns all-empty and must cost the
/// engine nothing (no mapping event, no pruner contact).
struct CapacityDelta {
  std::vector<MachineId> drained;    ///< beginDrain issued
  std::vector<MachineId> reclaimed;  ///< drain cancelled: accepting again
  std::vector<MachineId> booting;    ///< CapacityOnline scheduled
  std::vector<MachineId> bootsCancelled;  ///< pending boot withdrawn
  std::vector<MachineId> retired;    ///< idle drained machine left at once

  bool capacityAdded() const { return !reclaimed.empty(); }
  bool empty() const {
    return drained.empty() && reclaimed.empty() && booting.empty() &&
           bootsCancelled.empty() && retired.empty();
  }
};

/// Per-trial capacity controller.  Deterministic: the same config, model,
/// and load history always produce the same scale decisions.  The seed
/// feeds a dedicated RNG stream (seed-paired with the execution/fault
/// streams) reserved for stochastic policies; none of the three shipped
/// policies draws from it.
class CapacityController {
 public:
  /// `config` must outlive the controller.
  CapacityController(const ElasticityConfig& config, std::uint64_t seed,
                     const ExecutionModel& model, std::size_t numMachines);

  /// Parks the surplus slots (ids >= baseMachines) at t = 0 — call BEFORE
  /// the fault injector arms, so parked capacity gets no failure process —
  /// and pushes the first ControllerTick.  Throws std::invalid_argument if
  /// the group bounds are inconsistent with the machine list.
  void beginTrial(EventQueue& events, std::vector<Machine>& machines,
                  const TaskPool& pool);

  /// True when the engine must supply LoadSignal::headChance (chance_slo).
  bool needsHeadChance() const {
    return config_.policy == ElasticityPolicy::ChanceSlo;
  }

  /// Periodic evaluation: reads the signal, applies at most `step` scale
  /// actions per group, re-arms the next tick.  Mutates machines (drain
  /// flags, immediate retirement of idle drainees) and notifies the
  /// injector when a retirement invalidates its pending fault process.
  CapacityDelta onTick(EventQueue& events, std::vector<Machine>& machines,
                       const TaskPool& pool, const LoadSignal& signal,
                       Metrics& metrics, Time now, FaultInjector* injector);

  /// A CapacityOnline event popped: the machine's provisioning delay is
  /// over.  Brings it online (unless a scripted recover raced the boot) and
  /// arms the injector's failure process for it.  Returns true when the
  /// machine now accepts work — the engine follows with a mapping event.
  bool onCapacityOnline(EventQueue& events, const Event& event,
                        std::vector<Machine>& machines, const TaskPool& pool,
                        Time now, FaultInjector* injector);

  /// Retires `machine` if it is draining, online, and empty (the drain
  /// completed).  Called by the engine after completions and recoveries.
  /// Returns true if the machine was retired.
  bool maybeRetire(EventQueue& events, std::vector<Machine>& machines,
                   const TaskPool& pool, MachineId machine, Time now,
                   FaultInjector* injector);

  /// True while any boot's CapacityOnline event is still in flight.  The
  /// engine uses this for its quiescence check: a tick popping after the
  /// last task event, with an idle fleet and no boot pending, can never
  /// change a task's fate — the trial is over (deferred leftovers are swept
  /// by the scheduler's finalize pass, exactly like the fixed engine).
  bool hasPendingBoot() const {
    return std::any_of(bootingCounts_.begin(), bootingCounts_.end(),
                       [](int booting) { return booting > 0; });
  }

  /// Scale-down visits that returned before walking their group: no boot
  /// in flight and no active machine above the group's `min`.
  std::size_t scaleDownSkips() const { return scaleDownSkips_; }

  prob::Rng& rng() { return rng_; }

 private:
  /// Controller-side slot lifecycle.  `draining` is machine state, not a
  /// slot state: a draining slot stays Active until it retires.
  enum class Slot : std::uint8_t {
    Fixed,    ///< unmanaged type: never scaled
    Active,   ///< counted capacity (may be offline-failed or draining)
    Parked,   ///< offline surplus the controller may boot
    Booting,  ///< CapacityOnline in flight
  };

  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};

  void pushTick(EventQueue& events, Time now);
  /// +1 scale up, -1 scale down, 0 hold.
  int decide(const std::vector<Machine>& machines, const LoadSignal& signal,
             Time now);
  int decideTargetUtilization(const std::vector<Machine>& machines, Time now);
  int decideChanceSlo(const std::vector<Machine>& machines,
                      const LoadSignal& signal);
  // `group` indexes config_.pool and members_.
  void scaleUpGroup(std::size_t group, EventQueue& events,
                    std::vector<Machine>& machines, Metrics& metrics,
                    Time now, CapacityDelta& delta);
  void scaleDownGroup(std::size_t group, EventQueue& events,
                      std::vector<Machine>& machines, const TaskPool& pool,
                      Metrics& metrics, Time now, FaultInjector* injector,
                      CapacityDelta& delta);

  const ElasticityConfig& config_;
  prob::Rng rng_;
  const ExecutionModel* model_;
  std::size_t numMachines_;
  std::vector<Slot> slots_;
  /// Per config_.pool entry: the machine slots of its type, in ascending
  /// index (resolved once in beginTrial).  Every group walk visits these
  /// only — scale-down in reverse, so it picks the highest index.
  std::vector<std::vector<std::size_t>> members_;
  /// Per machine: seq of its pending CapacityOnline event (kNoEvent when
  /// none) — boot cancellation removes the event in place.
  std::vector<std::uint64_t> bootSeq_;
  /// Per machine: its config_.pool index (npos for an unmanaged type).
  std::vector<std::size_t> groupOf_;
  /// Per config_.pool entry: #(Active, not draining) members (offline-
  /// failed ones count: they are capacity that will recover) and #Booting
  /// members.  Kept in step with every boot, boot cancellation, drain,
  /// reclaim and retirement — failure and recovery change neither — so no
  /// decision walks the group to count.
  std::vector<int> activeCounts_;
  std::vector<int> bootingCounts_;
  std::size_t scaleDownSkips_ = 0;

  // target_utilization observation state (per-period deltas + EWMA).
  double lastBusy_ = 0.0;
  double lastOnline_ = 0.0;
  double ewma_ = -1.0;  ///< <0 = no sample folded yet
};

}  // namespace hcs::sim
