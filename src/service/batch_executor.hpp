// High-throughput batch/streaming FFT service layer.
//
// The generator targets one large transform per call, but production FFT
// traffic — audio effect chains, spectral filtering services — is
// millions of *small* transforms per second. Calling plan->execute() per
// request pays the per-call costs (plan-cache lookup, pool dispatch,
// S+1 barrier crossings) once per tiny transform. The BatchExecutor
// instead COALESCES many same-size requests into one
//
//   I_k (x) DFT_n
//
// program — derived through the registered rewrite rules (rule (9) turns
// it into the embarrassingly parallel I_p (x)|| (I_{k/p} (x) DFT_n)), so
// the static verifier, locality analyzer and SIMD drivers all apply to
// the coalesced program unchanged — and executes it on a persistent
// shared worker team, amortizing every per-call cost over the batch
// (EFFT's pipelining argument: keep one thread team streaming stages
// instead of fork/joining per call).
//
//   service::BatchExecutor svc({.threads = 4});
//   auto t = svc.submit(n, x, y);   // async; never blocks on the FFT
//   ...                             // caller pipelines more requests
//   svc.wait(t);                    // y now holds DFT_n(x)
//
// Architecture:
//   * submit() -> Ticket enqueues onto a bounded MPMC request queue;
//     a full queue blocks the submitter (backpressure) — try_submit()
//     returns an invalid ticket instead of blocking.
//   * One batcher thread drains the queue, bins requests by size
//     (mixed-size traffic: one bin per PlanCache entry), and flushes a
//     bin when it reaches max_batch, when its oldest request exceeds
//     max_delay, or when the queue runs dry (idle traffic keeps
//     per-call latency; bursty traffic coalesces — adaptive batch
//     formation). Non-power-of-two bins are split into power-of-two
//     chunks so the PlanCache holds O(log max_batch) plans per size.
//   * Coalesced plans execute on the batcher's single ExecContext,
//     whose worker team is leased from the process-wide PoolRegistry —
//     every plan of every size runs on the same warm team; a server
//     thread never cold-starts a pool.
//
// Thread-safety: submit/try_submit/wait/poll/execute/stats are safe from
// any number of client threads concurrently. Tickets are value types;
// wait/poll on the same ticket from several threads is allowed.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/plan_cache.hpp"

namespace spiral::service {

namespace detail {

/// Shared completion state of one request. The batcher publishes with
/// phase.store(release) + notify; waiters spin briefly then block on the
/// C++20 atomic wait.
struct RequestState {
  static constexpr int kPending = 0;
  static constexpr int kDone = 1;
  static constexpr int kFailed = 2;

  idx_t n = 0;
  const cplx* x = nullptr;
  cplx* y = nullptr;
  std::chrono::steady_clock::time_point enqueued{};
  std::chrono::steady_clock::time_point completed{};  // stamped before phase
  std::atomic<int> phase{kPending};
  std::string error;  // written before phase -> kFailed (release order)
};

}  // namespace detail

/// Completion handle of a submitted request.
class Ticket {
 public:
  Ticket() = default;
  /// False for the empty ticket try_submit() returns on backpressure.
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  /// Submit-to-completion latency in microseconds, stamped by the service
  /// (free of any client-side scheduling noise). 0 until the request has
  /// completed — only meaningful after wait()/poll() said so.
  [[nodiscard]] double latency_us() const {
    if (state_ == nullptr ||
        state_->phase.load(std::memory_order_acquire) ==
            detail::RequestState::kPending) {
      return 0.0;
    }
    return std::chrono::duration<double, std::micro>(state_->completed -
                                                     state_->enqueued)
        .count();
  }

 private:
  friend class BatchExecutor;
  explicit Ticket(std::shared_ptr<detail::RequestState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::RequestState> state_;
};

struct ServiceOptions {
  /// Worker-team size p the coalesced programs are generated for.
  int threads = 2;
  /// Flush a size bin when it holds this many requests (rounded down to
  /// a power of two; also the largest coalesced chunk, so the PlanCache
  /// holds plans for batch sizes {1, 2, 4, ..., max_batch} per n).
  idx_t max_batch = 32;
  /// Flush a partial bin when its oldest request has waited this long
  /// (only reachable under continuous traffic; an idle queue flushes
  /// immediately).
  std::chrono::microseconds max_delay{200};
  /// Bounded request-queue capacity; submit() blocks when full.
  std::size_t queue_capacity = 4096;
  /// Substrate knobs forwarded to the planner (vector_nu,
  /// cache_line_complex, leaf, ...). `threads` above overrides
  /// planner.threads; direction is taken from here too.
  core::PlannerOptions planner{};
  /// Plan cache to draw coalesced plans from; nullptr = a private cache.
  core::PlanCache* cache = nullptr;
  /// Construction does not start the batcher; call start(). Lets tests
  /// (and bursty startup paths) enqueue a backlog that is then coalesced
  /// deterministically.
  bool start_paused = false;
};

class BatchExecutor {
 public:
  explicit BatchExecutor(ServiceOptions opt = {});
  /// Stops accepting work, completes everything already submitted, joins
  /// the batcher.
  ~BatchExecutor();

  BatchExecutor(const BatchExecutor&) = delete;
  BatchExecutor& operator=(const BatchExecutor&) = delete;

  /// Starts the batcher thread (no-op when already running). Only needed
  /// with ServiceOptions::start_paused.
  void start();

  /// Asynchronously requests y = DFT_n(x). Both buffers are the caller's
  /// and must stay valid (and untouched) until the ticket completes.
  /// x == y is allowed. n must be a power of two >= 2 (validated here,
  /// throwing std::invalid_argument). Blocks while the queue is full.
  Ticket submit(idx_t n, const cplx* x, cplx* y);

  /// Non-blocking submit: returns an invalid ticket when the queue is
  /// full (caller sheds load or retries).
  Ticket try_submit(idx_t n, const cplx* x, cplx* y);

  /// Blocks until the ticket's request completed. Throws
  /// std::runtime_error when the service failed the request (planning
  /// error surfaced from the batcher).
  void wait(const Ticket& t) const;

  /// True when the request completed (throws like wait() on failure).
  [[nodiscard]] bool poll(const Ticket& t) const;

  /// Synchronous convenience: submit + wait.
  void execute(idx_t n, const cplx* x, cplx* y);

  /// Blocks until every request submitted so far has completed.
  void drain();

  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return opt_;
  }
  /// The plan cache the coalesced plans come from (the private one
  /// unless ServiceOptions::cache was set).
  [[nodiscard]] core::PlanCache& cache() noexcept { return *cache_; }

  /// Service counters (relaxed atomics — safe to read while submitters
  /// and the batcher run).
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t batches = 0;          ///< coalesced executions
    std::uint64_t coalesced_max = 0;    ///< largest chunk executed
    std::uint64_t flushes_size = 0;     ///< bin hit max_batch
    std::uint64_t flushes_deadline = 0; ///< oldest request aged out
    std::uint64_t flushes_idle = 0;     ///< queue ran dry
    /// Mean transforms per coalesced execution.
    [[nodiscard]] double mean_batch() const {
      return batches == 0 ? 0.0
                          : static_cast<double>(completed + failed) /
                                static_cast<double>(batches);
    }
  };
  [[nodiscard]] Stats stats() const;

 private:
  using StatePtr = std::shared_ptr<detail::RequestState>;

  /// One size bin: requests awaiting coalescing, oldest first.
  struct Bin {
    std::vector<StatePtr> pending;
    std::chrono::steady_clock::time_point oldest{};
  };

  Ticket enqueue(idx_t n, const cplx* x, cplx* y, bool blocking);
  void batcher_loop();
  /// Executes `count` requests from the front of `items` as one coalesced
  /// I_count (x) DFT_n program (count == 1 uses the plain DFT_n plan).
  void run_chunk(idx_t n, std::vector<StatePtr>& items, std::size_t count);
  /// Flushes a whole bin, splitting into power-of-two chunks.
  void flush_bin(idx_t n, Bin& bin);
  static void complete(const StatePtr& s, int phase);

  ServiceOptions opt_;
  core::PlannerOptions planner_;  // normalized (threads forced)
  std::unique_ptr<core::PlanCache> owned_cache_;
  core::PlanCache* cache_;

  // Bounded MPMC queue: submitters push, the batcher drains.
  mutable std::mutex m_;
  std::condition_variable queue_space_;  // submitters wait here when full
  std::condition_variable queue_work_;   // the batcher waits here
  std::deque<StatePtr> queue_;
  bool stop_ = false;
  bool started_ = false;

  // In-flight accounting for drain(): submitted - completed - failed.
  std::condition_variable drained_;

  // Batcher-local execution state (never touched by submitters).
  backend::ExecContext ctx_;
  util::cvec gather_, scatter_;
  std::map<idx_t, Bin> bins_;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> coalesced_max_{0};
  std::atomic<std::uint64_t> flushes_size_{0};
  std::atomic<std::uint64_t> flushes_deadline_{0};
  std::atomic<std::uint64_t> flushes_idle_{0};

  std::thread batcher_;
};

}  // namespace spiral::service
