#include "exp/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hcs::exp {

namespace {
/// Test-only replacement for worker-thread creation (see
/// setSpawnHookForTesting).
std::thread (*g_spawnHook)(const std::function<void()>&) = nullptr;

/// One per hardware thread, at least 1.
std::size_t hardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}
}  // namespace

void ParallelExecutor::setSpawnHookForTesting(
    std::thread (*hook)(const std::function<void()>&)) {
  g_spawnHook = hook;
}

std::size_t resolveJobs(std::size_t jobs) {
  return jobs != 0 ? jobs : hardwareThreads();
}

void ParallelExecutor::run(std::size_t n,
                           const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  // More workers than hardware threads only add contention, and run.jobs
  // has no upper bound: cap the threads, never the result.
  const std::size_t workers =
      std::min({resolveJobs(jobs_), n, hardwareThreads()});
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex errorMutex;
  std::size_t firstErrorIndex = n;
  std::exception_ptr firstError;

  auto worker = [&]() {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(errorMutex);
        if (i < firstErrorIndex) {
          firstErrorIndex = i;
          firstError = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  try {
    for (std::size_t w = 1; w < workers; ++w) {
      if (g_spawnHook != nullptr) {
        threads.emplace_back(g_spawnHook(worker));
      } else {
        threads.emplace_back(worker);
      }
    }
  } catch (...) {
    // A thread failed to spawn (resource limits).  Degrade instead of
    // aborting the experiment: the calling thread plus however many
    // workers DID spawn drain the same fetch-add queue, so every slot is
    // still filled and the trial-order merge stays byte-identical to the
    // serial path — only wall-clock suffers.
  }
  worker();
  for (std::thread& t : threads) t.join();

  if (firstError) std::rethrow_exception(firstError);
}

}  // namespace hcs::exp
