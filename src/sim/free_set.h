#pragma once
// The machines of one cluster that can take new work right now.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace hcs::sim {

/// The ascending set of machines with a free queue slot: accepting work
/// (online, not draining) and holding fewer than `capacity` tasks, running
/// one included.  Each linked sim::Machine keeps its own membership current
/// on every mutation (Machine::linkFreeSet), so whoever mutates a machine —
/// the scheduler, the fault injector, the capacity controller — keeps the
/// set exact without knowing it exists.  A batch mapping event then prices
/// only the members instead of walking the whole cluster; in the
/// oversubscribed regime that is a handful of machines out of ~100.
///
/// A bitset over machine ids: O(1) update and emptiness test, ascending
/// iteration in O(words + members).
class FreeMachineSet {
 public:
  /// Empties the set and sizes it for machines 0..numMachines-1 whose
  /// queues hold at most `capacity` tasks each.
  void reset(std::size_t numMachines, std::size_t capacity) {
    words_.assign((numMachines + 63) / 64, 0);
    size_ = 0;
    capacity_ = capacity;
  }

  std::size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  bool contains(MachineId j) const {
    const auto jz = static_cast<std::size_t>(j);
    return ((words_[jz / 64] >> (jz % 64)) & 1u) != 0;
  }

  /// Sets machine j's membership.
  void set(MachineId j, bool free) {
    const auto jz = static_cast<std::size_t>(j);
    std::uint64_t& word = words_[jz / 64];
    const std::uint64_t bit = std::uint64_t{1} << (jz % 64);
    if (((word & bit) != 0) != free) {
      word ^= bit;
      if (free) {
        ++size_;
      } else {
        --size_;
      }
    }
#ifndef NDEBUG
    if (check_) check_();
#endif
  }

  /// Calls f(j) for every member, in ascending id order.
  template <class F>
  void forEach(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(bits));
        f(static_cast<MachineId>(w * 64 + bit));
      }
    }
  }

  /// Debug builds run `check` after every update (release builds never
  /// call it): the scheduler installs a full-walk comparison there.
  void setDebugCheck(std::function<void()> check) { check_ = std::move(check); }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::function<void()> check_;
};

}  // namespace hcs::sim
