#include "service/batch_executor.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace spiral::service {

using detail::RequestState;

namespace {

/// Largest power of two <= v (v >= 1).
idx_t floor_pow2(idx_t v) {
  idx_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

}  // namespace

BatchExecutor::BatchExecutor(ServiceOptions opt) : opt_(std::move(opt)) {
  util::require(opt_.threads >= 1,
                "BatchExecutor: threads must be >= 1");
  util::require(opt_.queue_capacity >= 1,
                "BatchExecutor: queue_capacity must be >= 1");
  opt_.max_batch = floor_pow2(std::max<idx_t>(1, opt_.max_batch));
  planner_ = opt_.planner;
  planner_.threads = opt_.threads;
  if (opt_.cache != nullptr) {
    cache_ = opt_.cache;
  } else {
    owned_cache_ = std::make_unique<core::PlanCache>();
    cache_ = owned_cache_.get();
  }
  if (!opt_.start_paused) start();
}

BatchExecutor::~BatchExecutor() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  queue_work_.notify_all();
  queue_space_.notify_all();
  if (batcher_.joinable()) {
    batcher_.join();
  } else {
    // Paused service that was never started: complete the backlog inline
    // (outstanding tickets must not dangle). stop_ makes the loop drain
    // everything and exit.
    batcher_loop();
  }
}

void BatchExecutor::start() {
  std::lock_guard<std::mutex> lock(m_);
  if (started_) return;
  started_ = true;
  batcher_ = std::thread([this] { batcher_loop(); });
}

Ticket BatchExecutor::enqueue(idx_t n, const cplx* x, cplx* y,
                              bool blocking) {
  util::require(util::is_pow2(n) && n >= 2,
                "BatchExecutor::submit: n must be a power of two >= 2");
  auto s = std::make_shared<RequestState>();
  s->n = n;
  s->x = x;
  s->y = y;
  s->enqueued = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(m_);
    if (stop_) {
      throw std::runtime_error("BatchExecutor: submit after shutdown");
    }
    if (queue_.size() >= opt_.queue_capacity) {
      if (!blocking) return Ticket{};
      // Backpressure: the submitter blocks until the batcher makes room.
      queue_space_.wait(lock, [&] {
        return stop_ || queue_.size() < opt_.queue_capacity;
      });
      if (stop_) {
        throw std::runtime_error("BatchExecutor: submit after shutdown");
      }
    }
    // Counted before the batcher can see (and finish) the request.
    submitted_.fetch_add(1, std::memory_order_relaxed);
    queue_.push_back(s);
  }
  queue_work_.notify_one();
  return Ticket{std::move(s)};
}

Ticket BatchExecutor::submit(idx_t n, const cplx* x, cplx* y) {
  return enqueue(n, x, y, /*blocking=*/true);
}

Ticket BatchExecutor::try_submit(idx_t n, const cplx* x, cplx* y) {
  return enqueue(n, x, y, /*blocking=*/false);
}

void BatchExecutor::wait(const Ticket& t) const {
  util::require(t.valid(), "BatchExecutor::wait: invalid ticket");
  RequestState& s = *t.state_;
  int ph = s.phase.load(std::memory_order_acquire);
  // Brief spin: at service throughput most tickets complete within a few
  // microseconds of the wait, and the futex round-trip would dominate.
  for (int spins = 0; ph == RequestState::kPending && spins < 1 << 10;
       ++spins) {
    ph = s.phase.load(std::memory_order_acquire);
  }
  while (ph == RequestState::kPending) {
    s.phase.wait(RequestState::kPending, std::memory_order_acquire);
    ph = s.phase.load(std::memory_order_acquire);
  }
  if (ph == RequestState::kFailed) throw std::runtime_error(s.error);
}

bool BatchExecutor::poll(const Ticket& t) const {
  util::require(t.valid(), "BatchExecutor::poll: invalid ticket");
  const int ph = t.state_->phase.load(std::memory_order_acquire);
  if (ph == RequestState::kFailed) throw std::runtime_error(t.state_->error);
  return ph == RequestState::kDone;
}

void BatchExecutor::execute(idx_t n, const cplx* x, cplx* y) {
  wait(submit(n, x, y));
}

void BatchExecutor::drain() {
  const std::uint64_t target = submitted_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lock(m_);
  drained_.wait(lock, [&] {
    return completed_.load(std::memory_order_acquire) +
               failed_.load(std::memory_order_acquire) >=
           target;
  });
}

void BatchExecutor::complete(const StatePtr& s, int phase) {
  s->completed = std::chrono::steady_clock::now();
  s->phase.store(phase, std::memory_order_release);
  s->phase.notify_all();
}

void BatchExecutor::run_chunk(idx_t n, std::vector<StatePtr>& items,
                              std::size_t count) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t prev = coalesced_max_.load(std::memory_order_relaxed);
  while (prev < count && !coalesced_max_.compare_exchange_weak(
                             prev, count, std::memory_order_relaxed)) {
  }
  try {
    if (count == 1) {
      // A lone request gains nothing from coalescing (and skips the
      // gather/scatter copies): the plain DFT_n plan on the shared team.
      const auto plan = cache_->dft(n, planner_);
      plan->execute(ctx_, items[0]->x, items[0]->y);
    } else {
      // One I_count (x) DFT_n program over the concatenated signals —
      // derived via the registered rewrite rules (rule (9)), so it went
      // through the same verifier/locality/SIMD pipeline as any other
      // plan.
      const auto plan =
          cache_->batch_dft(n, static_cast<idx_t>(count), planner_);
      const std::size_t total = count * static_cast<std::size_t>(n);
      if (gather_.size() < total) gather_.resize(total);
      if (scatter_.size() < total) scatter_.resize(total);
      for (std::size_t i = 0; i < count; ++i) {
        std::memcpy(gather_.data() + i * static_cast<std::size_t>(n),
                    items[i]->x, sizeof(cplx) * static_cast<std::size_t>(n));
      }
      plan->execute(ctx_, gather_.data(), scatter_.data());
      for (std::size_t i = 0; i < count; ++i) {
        std::memcpy(items[i]->y,
                    scatter_.data() + i * static_cast<std::size_t>(n),
                    sizeof(cplx) * static_cast<std::size_t>(n));
      }
    }
    // Count before waking the waiters: a caller returning from wait()
    // must find its request in stats().
    completed_.fetch_add(count, std::memory_order_release);
    for (std::size_t i = 0; i < count; ++i) {
      complete(items[i], RequestState::kDone);
    }
  } catch (const std::exception& e) {
    failed_.fetch_add(count, std::memory_order_release);
    for (std::size_t i = 0; i < count; ++i) {
      items[i]->error = e.what();
      complete(items[i], RequestState::kFailed);
    }
  }
  items.erase(items.begin(),
              items.begin() + static_cast<std::ptrdiff_t>(count));
  // Wake drain()ers; the notify must be under the lock so a drainer
  // cannot check its predicate between our counter update and notify.
  {
    std::lock_guard<std::mutex> lock(m_);
    drained_.notify_all();
  }
}

void BatchExecutor::flush_bin(idx_t n, Bin& bin) {
  while (!bin.pending.empty()) {
    const idx_t c = floor_pow2(std::min<idx_t>(
        static_cast<idx_t>(bin.pending.size()), opt_.max_batch));
    run_chunk(n, bin.pending, static_cast<std::size_t>(c));
  }
}

void BatchExecutor::batcher_loop() {
  using clock = std::chrono::steady_clock;
  std::vector<StatePtr> drained;
  for (;;) {
    bool queue_empty_after_drain;
    bool stopping;
    {
      std::unique_lock<std::mutex> lock(m_);
      const bool have_bins = std::any_of(
          bins_.begin(), bins_.end(),
          [](const auto& kv) { return !kv.second.pending.empty(); });
      if (queue_.empty() && !stop_) {
        if (!have_bins) {
          // Fully idle: sleep until work or shutdown.
          queue_work_.wait(lock,
                           [&] { return stop_ || !queue_.empty(); });
        } else {
          // Partial bins pending (continuous mixed traffic): sleep at
          // most until the oldest bin's deadline.
          auto deadline = clock::time_point::max();
          for (const auto& [n, bin] : bins_) {
            if (!bin.pending.empty()) {
              deadline = std::min(deadline, bin.oldest + opt_.max_delay);
            }
          }
          queue_work_.wait_until(lock, deadline, [&] {
            return stop_ || !queue_.empty();
          });
        }
      }
      while (!queue_.empty()) {
        drained.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      queue_empty_after_drain = true;  // by construction
      stopping = stop_;
    }
    if (!drained.empty()) queue_space_.notify_all();

    // Bin by size: one bin per prospective PlanCache entry.
    for (auto& s : drained) {
      Bin& bin = bins_[s->n];
      if (bin.pending.empty()) bin.oldest = s->enqueued;
      bin.pending.push_back(std::move(s));
    }
    drained.clear();

    // Size flush: any bin at max_batch coalesces now, unconditionally.
    for (auto& [n, bin] : bins_) {
      while (static_cast<idx_t>(bin.pending.size()) >= opt_.max_batch) {
        flushes_size_.fetch_add(1, std::memory_order_relaxed);
        run_chunk(n, bin.pending,
                  static_cast<std::size_t>(opt_.max_batch));
        if (!bin.pending.empty()) {
          bin.oldest = bin.pending.front()->enqueued;
        }
      }
    }

    // Partial flush: shutting down, queue ran dry (idle traffic — adding
    // latency would buy no coalescing the queue doesn't already show),
    // or the bin aged past the deadline under continuous traffic.
    {
      std::lock_guard<std::mutex> lock(m_);
      queue_empty_after_drain = queue_.empty();
      stopping = stop_;
    }
    const auto now = clock::now();
    for (auto& [n, bin] : bins_) {
      if (bin.pending.empty()) continue;
      if (stopping || queue_empty_after_drain) {
        flushes_idle_.fetch_add(1, std::memory_order_relaxed);
        flush_bin(n, bin);
      } else if (now - bin.oldest >= opt_.max_delay) {
        flushes_deadline_.fetch_add(1, std::memory_order_relaxed);
        flush_bin(n, bin);
      }
    }

    if (stopping) {
      std::lock_guard<std::mutex> lock(m_);
      if (queue_.empty()) break;  // backlog fully drained
    }
  }
}

BatchExecutor::Stats BatchExecutor::stats() const {
  Stats s;
  // Finished counts before submitted: every request counted as finished
  // was submitted earlier, so the snapshot keeps completed + failed <=
  // submitted even while requests arrive between the loads.
  s.completed = completed_.load(std::memory_order_acquire);
  s.failed = failed_.load(std::memory_order_acquire);
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.coalesced_max = coalesced_max_.load(std::memory_order_relaxed);
  s.flushes_size = flushes_size_.load(std::memory_order_relaxed);
  s.flushes_deadline = flushes_deadline_.load(std::memory_order_relaxed);
  s.flushes_idle = flushes_idle_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace spiral::service
