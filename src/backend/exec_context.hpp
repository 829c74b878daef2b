// Per-caller execution state for Program/FftPlan.
//
// A planned program is immutable after construction; everything mutable
// that execution needs — the ping-pong scratch buffers, the per-worker
// block scratch of stage groups, and the worker team running the
// parallel stages — lives in an ExecContext. One program
// can therefore serve any number of client threads concurrently, each
// bringing its own context:
//
//   backend::ExecContext ctx;                 // cheap; scratch grows lazily
//   plan->execute(ctx, x, y);                 // safe from many threads,
//                                             // one context per thread
//
// Worker pools are SHARED, not owned: a context leases its team from the
// process-wide threading::PoolRegistry (keyed by thread count) on first
// parallel execution and returns it on destruction or reset(). Plans
// borrow whatever pool the caller's context holds, so destroying a plan
// never tears a team down, and a fresh context on a server thread picks
// up a warm team instead of cold-starting one (zero thread spawns —
// asserted in the pool-sharing tests). A context may be reused across
// programs (buffers grow to the largest size seen; the lease is swapped
// only when a program needs more threads than the leased pool has, and a
// program needing fewer runs the very partition it was verified for on
// the larger team). The walk synchronizes on the team's own barrier, so
// a context holds no synchronization state of its own. A single context
// must NOT be used by two threads at the same time — it is the
// per-caller half of the plan/context split, not a synchronization
// primitive.
//
// Scratch is allocated 64 B aligned and never initialized: growing a
// buffer replaces it without copying, and nothing fills it. Each page is
// first touched inside the walk by the worker whose step writes it, so a
// 2^22 transform's first execution pays no serial 64 MiB fill on the
// caller. No read can see a stale element: the verifier's lost-element
// check proves every step writes every position of its destination
// before the next step reads it, and inside a group each member writes
// its whole block before the next member reads it.
#pragma once

#include "threading/pool_registry.hpp"
#include "threading/thread_pool.hpp"
#include "util/aligned_vector.hpp"

namespace spiral::backend {

class Program;

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(ExecContext&&) = default;
  ExecContext& operator=(ExecContext&&) = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Borrows an external worker pool for this context (overrides the
  /// registry lease). Pass nullptr to return to the leased pool. This is
  /// the only way to run a program on a particular team; the FFTW-like
  /// baseline uses it to model per-call thread start-up.
  void set_pool(threading::ThreadPool* pool) noexcept {
    borrowed_pool_ = pool;
  }

  /// Returns the leased worker team to the registry and shrinks the
  /// scratch buffers.
  void reset() {
    lease_.release();
    for (util::scratch_cvec* b : {&buf_[0], &buf_[1], &group_scratch_}) {
      b->clear();
      b->shrink_to_fit();
    }
  }

 private:
  friend class Program;

  /// Grows the scratch buffers to hold n elements (never shrinks).
  void ensure_buffers(idx_t n, bool need_second) {
    const auto size = static_cast<std::size_t>(n);
    util::grow_scratch(buf_[0], size);
    if (need_second) util::grow_scratch(buf_[1], size);
  }

  /// Grows the stage-group scratch to `elems` elements (never shrinks):
  /// two block buffers per worker, which a group's intermediates
  /// ping-pong through while a block stays cache-resident.
  void ensure_group_scratch(idx_t elems) {
    util::grow_scratch(group_scratch_, static_cast<std::size_t>(elems));
  }

  /// The pool parallel stages should dispatch to: an explicitly borrowed
  /// team if set, else the registry lease (acquired on first use, swapped
  /// only if a program needs more participants than the leased team has).
  /// A program needing fewer runs on the larger team unchanged: its
  /// p-way stages still split into p tasks (backend/schedule), and the
  /// participants beyond them idle through those steps.
  threading::ThreadPool* pool_for(int threads) {
    if (borrowed_pool_ != nullptr) return borrowed_pool_;
    if (!lease_ || lease_.pool()->size() < threads) {
      lease_ = threading::global_pool_registry().acquire(threads);
    }
    return lease_.pool();
  }

  util::scratch_cvec buf_[2];
  util::scratch_cvec group_scratch_;
  threading::PoolLease lease_;
  threading::ThreadPool* borrowed_pool_ = nullptr;
};

}  // namespace spiral::backend
