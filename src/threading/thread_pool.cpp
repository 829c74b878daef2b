#include "threading/thread_pool.hpp"

namespace spiral::threading {

namespace {
std::atomic<std::uint64_t> g_threads_spawned{0};
}  // namespace

std::uint64_t ThreadPool::threads_spawned() noexcept {
  return g_threads_spawned.load(std::memory_order_relaxed);
}

ThreadPool::ThreadPool(int threads)
    : threads_(threads), barrier_(threads) {
  util::require(threads >= 1, "ThreadPool requires at least one thread");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int id = 1; id < threads; ++id) {
    workers_.emplace_back([this, id] { worker_loop(id); });
    g_threads_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

ThreadPool::~ThreadPool() {
  if (threads_ > 1) {
    shutdown_.store(true, std::memory_order_release);
    // Release spinning and parked workers into the shutdown check.
    epoch_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.notify_all();
    for (auto& w : workers_) w.join();
  }
}

std::uint32_t ThreadPool::await_epoch(std::uint32_t seen) {
  using Clock = std::chrono::steady_clock;
  int spins = 0;
  Clock::time_point deadline{};
  for (;;) {
    const std::uint32_t e = epoch_.load(std::memory_order_acquire);
    if (e != seen) return e;
    if (++spins < kSpinLimit) continue;
    // Past the pure-spin phase: yield, and park once kParkAfter is up.
    const auto now = Clock::now();
    if (deadline == Clock::time_point{}) deadline = now + kParkAfter;
    if (now < deadline) {
      std::this_thread::yield();
      continue;
    }
    // Dekker pairing with run(): either run() sees parked_ != 0 and
    // notifies, or this re-check (inside wait) sees the new epoch.
    parked_.fetch_add(1, std::memory_order_seq_cst);
    epoch_.wait(seen, std::memory_order_seq_cst);
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::worker_loop(int id) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await_epoch(seen);
    if (shutdown_.load(std::memory_order_acquire)) return;
    (*job_)(id);
    barrier_.wait();
  }
}

void ThreadPool::run(const std::function<void(int)>& fn) {
  if (threads_ == 1) {
    fn(0);
    return;
  }
  job_ = &fn;
  // Release the workers: spinners see the new epoch, parked ones need
  // the notify (skipped, with its syscall, while nobody sleeps).
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) != 0) epoch_.notify_all();
  fn(0);                  // caller is participant 0
  barrier_.wait();   // wait for everyone
  job_ = nullptr;
}

}  // namespace spiral::threading
