#pragma once
// The indexed arrival (batch) queue of the incremental mapping engine.
//
// The queue must iterate in arrival order (the batch heuristics' contract),
// but the hot mutations are random-access: a dispatch removes one task from
// the middle, and the step-10 deferring check marks one task as out of the
// running for the remainder of the current mapping event.  A plain vector
// made both O(queue) (std::erase plus a per-round rebuild that filtered a
// hash set of deferrals); here removal tombstones the slot in O(1) through
// a dense task-id position index, deferral is a generation stamp (cleared
// for the whole queue in O(1) by bumping the event generation), and
// tombstones are compacted away amortized-O(1) when they outnumber the
// live entries.
//
// Consumers that keep derived structures (the two-phase heuristics'
// per-type buckets) stay in sync *without rescanning*: every task carries a
// stable arrival sequence number, and every push/remove is appended to a
// mutation journal the consumer replays from its last position — per
// mapping event that is O(what changed), not O(queue).  The journal keeps
// only recent history: once it outgrows max(kJournalFloor, 2 x live tasks)
// it is dropped through the reset generation, and consumers rebuild from
// the live queue — O(live) at most once per that many mutations, so the
// journal's memory follows the live queue, not the trial's length.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace hcs::sim {

class BatchQueue {
 public:
  struct JournalEntry {
    enum class Op : std::uint8_t { Push, Remove };
    Op op = Op::Push;
    TaskId task = kInvalidTask;
    /// The task's arrivalSeq — carried here so a Remove can still be
    /// located in seq-keyed consumer structures after the queue forgot it.
    std::uint64_t seq = 0;
  };

  bool empty() const { return liveCount_ == 0; }
  std::size_t size() const { return liveCount_; }

  /// The journal is dropped once it holds more than max(kJournalFloor,
  /// 2 x live tasks) mutations.
  static constexpr std::size_t kJournalFloor = 1024;

  /// Opens a new mapping event: all deferral marks from the previous event
  /// expire at once (no per-entry clearing).
  void beginEvent() {
    ++eventGen_;
    deferredCount_ = 0;
  }

  void push(TaskId task) {
    const auto idx = static_cast<std::size_t>(task);
    if (posByTask_.size() <= idx) posByTask_.resize(idx + 1, kNoPos);
    posByTask_[idx] = static_cast<std::uint32_t>(entries_.size());
    const std::uint64_t seq = nextArrivalSeq_++;
    entries_.push_back(Entry{task, seq, 0});
    ++liveCount_;
    record(JournalEntry{JournalEntry::Op::Push, task, seq});
  }

  bool contains(TaskId task) const {
    const auto idx = static_cast<std::size_t>(task);
    return idx < posByTask_.size() && posByTask_[idx] != kNoPos;
  }

  /// O(1) stable removal (dispatch or drop): the slot becomes a tombstone,
  /// every other task keeps its arrival order.
  void remove(TaskId task) {
    const std::uint32_t pos = posByTask_[static_cast<std::size_t>(task)];
    posByTask_[static_cast<std::size_t>(task)] = kNoPos;
    entries_[pos].task = kInvalidTask;
    --liveCount_;
    if (entries_[pos].deferGen == eventGen_) --deferredCount_;
    record(JournalEntry{JournalEntry::Op::Remove, task,
                        entries_[pos].arrivalSeq});
    maybeCompact();
  }

  /// Step 10: `task` is deferred to the next mapping event — it stays in
  /// the queue but candidate iteration skips it until beginEvent().
  void markDeferred(TaskId task) {
    std::uint64_t& gen =
        entries_[posByTask_[static_cast<std::size_t>(task)]].deferGen;
    deferredCount_ += gen != eventGen_;
    gen = eventGen_;
  }

  /// False when no live task is deferred this event: then
  /// deferredThisEvent() is false for every task, and a consumer may skip
  /// asking.
  bool anyDeferredThisEvent() const { return deferredCount_ > 0; }

  /// Live tasks not deferred this event: the size of liveCandidates().
  std::size_t candidateCount() const { return liveCount_ - deferredCount_; }

  bool deferredThisEvent(TaskId task) const {
    const auto idx = static_cast<std::size_t>(task);
    if (idx >= posByTask_.size() || posByTask_[idx] == kNoPos) return false;
    return entries_[posByTask_[idx]].deferGen == eventGen_;
  }

  /// Stable per-task arrival sequence number (assigned at push, never
  /// reused); iteration order == ascending arrivalSeq.  The task must be
  /// in the queue.
  std::uint64_t arrivalSeq(TaskId task) const {
    return entries_[posByTask_[static_cast<std::size_t>(task)]].arrivalSeq;
  }

  /// Calls `fn(taskId, arrivalSeq)` for every live task in arrival order.
  /// `fn` must not mutate the queue (collect first, then remove — the
  /// scheduler's existing drop idiom).
  template <class Fn>
  void forEachLive(Fn&& fn) const {
    for (const Entry& e : entries_) {
      if (e.task != kInvalidTask) fn(e.task, e.arrivalSeq);
    }
  }

  /// Fills `out` with the live tasks not deferred this event, in arrival
  /// order — the candidate set of one mapping round.
  void liveCandidates(std::vector<TaskId>& out) const {
    out.clear();
    out.reserve(liveCount_);
    for (const Entry& e : entries_) {
      if (e.task != kInvalidTask && e.deferGen != eventGen_) {
        out.push_back(e.task);
      }
    }
  }

  // --- Mutation journal --------------------------------------------------

  /// Monotone count of mutations since the last reset; journal_[i] is the
  /// i-th mutation.  A consumer that remembers its last position replays
  /// exactly the delta.  The journal never holds more than
  /// max(kJournalFloor, 2 x size()) entries: a mutation that would exceed
  /// that drops the history (see resetGeneration()).
  std::size_t journalSize() const { return journal_.size(); }
  const JournalEntry& journalAt(std::size_t i) const { return journal_[i]; }

  /// Bumped whenever history is discarded (clear, the journal bound, or
  /// re-enabled recording); consumers holding a journal position from
  /// another generation must rebuild from the live queue (forEachLive).
  std::uint64_t resetGeneration() const { return resetGen_; }

  /// Turns mutation recording off (and back on) for queues nobody will
  /// ever replay — the reference engine and non-queue-consuming heuristics
  /// otherwise pay an append (and the journal's unbounded growth) per
  /// mutation for nothing.  Re-enabling counts as discarding history:
  /// mutations made while recording was off are gone, so consumers holding
  /// a position must rebuild — the reset generation is bumped to force it.
  void setJournalRecording(bool on) {
    if (on && !journalRecording_) {
      journal_.clear();
      ++resetGen_;
    }
    journalRecording_ = on;
  }

  void clear() {
    for (const Entry& e : entries_) {
      if (e.task != kInvalidTask) {
        posByTask_[static_cast<std::size_t>(e.task)] = kNoPos;
      }
    }
    entries_.clear();
    journal_.clear();
    liveCount_ = 0;
    deferredCount_ = 0;
    ++resetGen_;
  }

 private:
  struct Entry {
    TaskId task;              ///< kInvalidTask once removed (tombstone)
    std::uint64_t arrivalSeq; ///< stable arrival-order stamp
    std::uint64_t deferGen;   ///< event generation of the last deferral
  };

  static constexpr std::uint32_t kNoPos = 0xffffffffu;

  void record(const JournalEntry& entry) {
    if (!journalRecording_) return;
    journal_.push_back(entry);
    if (journal_.size() > std::max(kJournalFloor, 2 * liveCount_)) {
      // A consumer rebuilding from the live queue pays O(live); dropping
      // only past 2 x live spreads that over at least as many mutations.
      journal_.clear();
      ++resetGen_;
    }
  }

  void maybeCompact() {
    if (entries_.size() < 16 || liveCount_ * 2 >= entries_.size()) return;
    std::size_t write = 0;
    for (const Entry& e : entries_) {
      if (e.task == kInvalidTask) continue;
      posByTask_[static_cast<std::size_t>(e.task)] =
          static_cast<std::uint32_t>(write);
      entries_[write++] = e;
    }
    entries_.resize(write);
  }

  std::vector<Entry> entries_;  ///< arrival order, with tombstones
  /// task id → position in entries_ (task ids are dense pool indices, so a
  /// flat vector beats hashing); kNoPos when not in the queue.
  std::vector<std::uint32_t> posByTask_;
  std::vector<JournalEntry> journal_;
  std::size_t liveCount_ = 0;
  bool journalRecording_ = true;
  std::size_t deferredCount_ = 0;  ///< live tasks deferred this event
  std::uint64_t eventGen_ = 1;
  std::uint64_t nextArrivalSeq_ = 0;
  std::uint64_t resetGen_ = 0;
};

}  // namespace hcs::sim
