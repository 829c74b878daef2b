// Persistent worker-thread pool ("thread pooling" in the paper's terms).
//
// FFTW 3.1's thread pooling was experimental and off by default, so each
// parallel transform paid thread start-up cost; Spiral's generated code
// keeps p threads alive for the lifetime of the plan and dispatches the
// stages of formula (14) to them with low-latency barriers. This pool
// reproduces that execution model:
//
//   * `p-1` workers are created once (the caller is participant 0);
//   * run(fn) makes all p participants execute fn(task_id) and returns
//     when every participant has finished (barrier semantics);
//   * dispatch bumps an epoch counter that idle workers spin on for at
//     most kParkAfter, then sleep on (C++20 atomic::wait), so an idle
//     pool costs no CPU; completion uses the sense-reversing spin
//     barrier, which a job may also cross between its own steps.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "threading/barrier.hpp"

namespace spiral::threading {

class ThreadPool {
 public:
  /// Creates a pool with `threads` total participants (>= 1). The calling
  /// thread is participant 0; `threads - 1` workers are spawned.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of participants (including the caller).
  [[nodiscard]] int size() const noexcept { return threads_; }

  /// Process-wide count of OS threads spawned by ThreadPool constructors.
  /// The pool-sharing tests assert on deltas of this counter to prove a
  /// reused pool never re-spawns its team (the cold-start the service
  /// layer exists to avoid).
  [[nodiscard]] static std::uint64_t threads_spawned() noexcept;

  /// Executes fn(task_id) for task_id in [0, size()) — one task per
  /// participant, caller runs task 0. Blocks until all tasks finished.
  /// The caller acts as participant 0, so any thread may call run() —
  /// the pool is handed between threads by the PoolRegistry — but calls
  /// must be serialized (one run() at a time) and must not be re-entered
  /// from inside a task.
  void run(const std::function<void(int)>& fn);

  /// The team's barrier. A running job may cross it between its steps
  /// when every participant makes the same, data-independent sequence of
  /// crossings: run()'s completion is one more crossing of it.
  [[nodiscard]] SpinBarrier& barrier() noexcept { return barrier_; }

 private:
  /// How long an idle worker spins on the epoch before it parks. It
  /// must cover the gaps between the transforms of a burst (a warm p=4
  /// pool then answers in ~µs), and it bounds the CPU an idle pool
  /// burns to this much per worker after its last run().
  static constexpr std::chrono::microseconds kParkAfter{1000};
  /// Epoch polls before the spin starts yielding and reading the clock.
  static constexpr int kSpinLimit = 1 << 12;

  void worker_loop(int id);
  /// Returns the first epoch different from `seen`: spins, then parks.
  std::uint32_t await_epoch(std::uint32_t seen);

  const int threads_;
  /// Dispatch counter: run() increments it once per job.
  alignas(kDestructiveInterferenceSize) std::atomic<std::uint32_t> epoch_{0};
  /// Workers asleep in epoch_.wait(); run() notifies only when non-zero.
  alignas(kDestructiveInterferenceSize) std::atomic<int> parked_{0};
  SpinBarrier barrier_;
  const std::function<void(int)>* job_ = nullptr;  // valid between barriers
  std::atomic<bool> shutdown_{false};
  std::vector<std::thread> workers_;
};

}  // namespace spiral::threading
