#pragma once
// The resource-allocation system (Fig. 1c): a mapping heuristic with the
// pruning mechanism attached.  Implements the per-mapping-event procedure of
// Fig. 5 against the simulator substrate.
//
// Two mapping-event engines share this class (SimulationConfig.
// incrementalMappingEnabled):
//
//  - The incremental engine keeps one MappingContext alive for the whole
//    trial (ready/exec memos invalidated per machine by queue epochs), lets
//    the two-phase batch heuristics delta-evaluate across rounds, and runs
//    the arrival queue through BatchQueue's O(1) removal/deferral.  Per-
//    event work is proportional to what a dispatch actually touched.
//  - The reference engine rebuilds a throwaway context and re-evaluates the
//    full O(batch × machines) two-phase process every round, exactly as the
//    paper's Fig. 5 pseudo-code reads.
//
// Both produce bit-identical experiment reports; the reference engine is
// the oracle the incremental one is tested against.

#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "core/config.h"
#include "heuristics/heuristic.h"
#include "heuristics/pct_cache.h"
#include "prob/rng.h"
#include "pruning/accounting.h"
#include "pruning/pruner.h"
#include "sim/batch_queue.h"
#include "sim/event_queue.h"
#include "sim/free_set.h"
#include "sim/machine.h"
#include "sim/metrics.h"
#include "sim/task.h"
#include "sim/types.h"

namespace hcs::core {

/// The mutable simulation state a scheduler operates on; owned by the
/// event loop (fed::FederatedSimulation), borrowed per call (keeps the scheduler unit-testable with a
/// hand-built world).
struct World {
  sim::TaskPool& pool;
  std::vector<sim::Machine>& machines;
  sim::EventQueue& events;
  sim::Metrics& metrics;
  prob::Rng& execRng;
  const sim::ExecutionModel& model;
  /// The fault stream (retry-backoff jitter), owned by the fault injector;
  /// null in fault-free trials — the default keeps hand-built worlds and
  /// the zero-fault engine untouched.
  prob::Rng* faultRng = nullptr;
};

/// The cluster a scheduler serves, fixed when the event loop builds it.  The
/// default seat is a lone cluster 0 that never retries.
struct ClusterSeat {
  /// Tagged on every trace event the scheduler emits.
  std::size_t index = 0;
  /// Receives each backed-off failure retry with its re-arrival time; the
  /// event loop points it at the gateway, which re-routes and re-admits it.
  std::function<void(sim::TaskId, sim::Time)> retry;
  /// This cluster's elasticity block when it differs from
  /// config.elasticity (federated per-cluster overrides); null = the shared
  /// block.
  const sim::ElasticityConfig* elasticity = nullptr;
};

class Scheduler {
 public:
  Scheduler(const SimulationConfig& config, int numTaskTypes,
            ClusterSeat seat = {});

  AllocationMode mode() const { return mode_; }
  const pruning::Pruner& pruner() const { return pruner_; }
  const pruning::Accounting& accounting() const { return accounting_; }
  /// Null when the config disabled PCT memoization.
  const heuristics::PctCache* pctCache() const { return pctCache_.get(); }
  std::size_t mappingEvents() const { return mappingEvents_; }
  /// Queues (batch or machine) the reactive pass has scanned: a queue is
  /// scanned only once `now` is past its deadline floor.
  std::size_t reactiveScans() const { return reactiveScans_; }
  std::size_t batchQueueLength() const { return batchQueue_.size(); }
  /// Accumulated batch-mapping wall clock (measureMappingEngine only).
  std::uint64_t mappingEngineNanos() const { return engineNanos_; }

  /// Per-trial setup against the world the scheduler will run in: sizes the
  /// completion-sequence table once (instead of re-checking on every
  /// completion) and anchors the persistent mapping context.  Called by the
  /// event loop; the event handlers also self-prepare on first use so a
  /// hand-built World needs no ceremony.
  void beginTrial(const World& world);

  /// A new task entered the system.  Immediate mode maps it on the spot;
  /// batch mode adds it to the arrival queue and runs a mapping event.
  void handleArrival(World& world, sim::TaskId task, sim::Time now);

  /// A machine finished its running task.  Records the outcome, promotes
  /// the next queued task, and (batch mode) runs a mapping event.
  void handleCompletion(World& world, sim::MachineId machine, sim::TaskId task,
                        sim::Time now);

  /// A machine failed: its completion event is cancelled, the running task
  /// aborted (wasted execution) and its queue orphaned — every lost task
  /// re-enters through the retry policy or is abandoned — then the machine
  /// goes offline and a mapping event re-prices the batch queue against
  /// the surviving cluster.
  void handleMachineFailure(World& world, sim::MachineId machine,
                            sim::Time now);

  /// A failed machine rejoined: it comes back online (empty, with a lazily
  /// rebuilt Eq. 1 chain) and a mapping event lets waiting work claim the
  /// recovered capacity.
  void handleMachineRecovery(World& world, sim::MachineId machine,
                             sim::Time now);

  /// The capacity controller changed the set of machines accepting work
  /// (a boot completed, or a drain was cancelled): run a mapping event so
  /// waiting tasks can claim the new capacity at once.  Drains and
  /// retirements deliberately do NOT call this — a machine that stops
  /// accepting work only shrinks the candidate set, and the next natural
  /// mapping event prices that in (no-op controller ticks must cost the
  /// fixed-capacity engine nothing).
  void handleCapacityChanged(World& world, sim::Time now);

  /// The cluster's one Eq. 2 context (with the PCT cache when on), rebound
  /// to `now`.  Both engines keep it for the whole trial; the gateway's
  /// routing and admission read it between mapping events.  Its memos are
  /// validated by queue epochs, so a read never changes a mapping decision.
  /// Requires beginTrial.
  heuristics::MappingContext& contextAt(sim::Time now);

  /// The chance_slo controller's signal: the best Eq. 2 chance the oldest
  /// batch-queue task has on a machine with a free slot at `now` (-1 when
  /// no machine has one), or nullopt when the batch queue is empty.
  std::optional<double> headChance(sim::Time now);

  /// Drains bookkeeping after the last event (e.g. tasks still waiting in
  /// the batch queue when the trial ends count as reactive drops if they
  /// are overdue and proactive drops otherwise: they can no longer meet any
  /// deadline in a finished trial).
  void finalize(World& world, sim::Time now);

 private:
  // Fig. 5 steps, in order.
  void reactiveDropPass(World& world, sim::Time now);       // step 1
  void proactiveDropPass(World& world, sim::Time now);      // steps 4-6
  void runBatchMapping(World& world, sim::Time now);        // steps 7-11
  void runBatchMappingReference(World& world, sim::Time now);

  /// Maps one round's assignments to dispatch/defer decisions (steps 10-11
  /// shared by both engines).  Returns true if anything was dispatched.
  bool applyAssignments(World& world,
                        const std::vector<heuristics::Assignment>& assignments,
                        const heuristics::MappingContext& ctx, sim::Time now);

  void startIdleMachines(World& world, sim::Time now);      // step 11 tail
  void mappingEvent(World& world, sim::Time now);           // the whole figure

  void dropTask(World& world, sim::TaskId task, sim::Time now,
                sim::TaskStatus reason);
  /// Applies the retry policy to a task lost to a machine failure (or an
  /// arrival with no online machine to take it): hands a backed-off
  /// re-arrival to the seat's retry target (the gateway owns re-admission)
  /// or abandons the task.
  void retryOrAbandon(World& world, sim::TaskId task, sim::Time now);
  void dispatch(World& world, sim::TaskId task, sim::MachineId machine,
                sim::Time now);
  void scheduleCompletion(World& world, sim::MachineId machine,
                          sim::TaskId task, sim::Time now);
  void abortOverdueRunning(World& world, sim::Time now);

  heuristics::MappingContext makeContext(const World& world,
                                         sim::Time now) const;
  void emit(const World& world, sim::Time time, sim::TraceEventKind kind,
            sim::TaskId task,
            sim::MachineId machine = sim::kInvalidMachine) const;

  SimulationConfig config_;
  std::size_t cluster_;
  std::function<void(sim::TaskId, sim::Time)> retry_;
  AllocationMode mode_;
  std::unique_ptr<heuristics::ImmediateHeuristic> immediate_;
  std::unique_ptr<heuristics::BatchHeuristic> batch_;
  std::unique_ptr<heuristics::PctCache> pctCache_;
  pruning::Accounting accounting_;
  pruning::Pruner pruner_;
  sim::BatchQueue batchQueue_;
  /// The machines with a free slot (incremental batch engine only; linked
  /// to the trial's machines in beginTrial).  Its emptiness is the O(1)
  /// guard that skips a whole mapping round — candidate rebuild and
  /// heuristic call — once the cluster is saturated, the common case in a
  /// burst; the persistent context hands it to the batch heuristics.
  sim::FreeMachineSet freeSet_;
  /// The trial-lifetime context (nullopt until beginTrial).  The
  /// incremental engine maps against it; the reference engine builds a
  /// throwaway context per round and keeps this one for contextAt() and
  /// headChance().
  std::optional<heuristics::MappingContext> ctx_;
  bool trialPrepared_ = false;
  /// Pending completion-event sequence number per machine (for aborts);
  /// sized once per trial in beginTrial.
  std::vector<std::uint64_t> completionSeq_;
  /// Reusable drop-candidate list for the reactive pass (only filled by a
  /// queue whose deadline floor `now` has passed).
  std::vector<sim::TaskId> overdueScratch_;
  /// Deadline floors: a lower bound on every deadline in the batch queue
  /// and in each machine queue.  Lowered on push/dispatch, reset to the
  /// minimum surviving deadline by each reactive scan.  -inf (sized in
  /// beginTrial) means unknown: the first mapping event scans every queue.
  sim::Time batchFloor_ = -std::numeric_limits<sim::Time>::infinity();
  std::vector<sim::Time> queueFloors_;
  /// Machines whose running task ended in the current event (a completion
  /// or an abort) — the only ones that can be idle with a queued head.
  std::vector<sim::MachineId> freedMachines_;
  /// Queue contents of a failing machine (goOffline's FIFO hand-back).
  std::vector<sim::TaskId> orphanScratch_;
  /// Drop-candidate list for the proactive pass — its own buffer, not an
  /// alias of overdueScratch_, so the two passes can never trample each
  /// other through a shared name.
  std::vector<sim::TaskId> proactiveDropScratch_;
  /// Reusable kept-PET list for the proactive pass's post-drop chain.
  std::vector<const prob::DiscretePmf*> pendingScratch_;
  /// Reusable per-event working sets for the batch-mapping loop.
  std::vector<sim::TaskId> candidateScratch_;
  std::unordered_set<sim::TaskId> deferredScratch_;
  std::size_t mappingEvents_ = 0;
  std::size_t reactiveScans_ = 0;
  std::uint64_t engineNanos_ = 0;
};

}  // namespace hcs::core
