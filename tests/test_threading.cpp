// Tests for the thread pool and barriers: correctness of synchronization,
// task distribution, reuse across many dispatches (the "thread pooling"
// behaviour the generated code relies on) — and the PoolRegistry that
// shares warm teams across plans, contexts and client threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <ctime>
#include <numeric>
#include <thread>
#include <vector>

#include "backend/exec_context.hpp"
#include "core/spiral_fft.hpp"
#include "threading/barrier.hpp"
#include "threading/pool_registry.hpp"
#include "threading/thread_pool.hpp"
#include "util/rng.hpp"

namespace spiral::threading {
namespace {

TEST(Barrier, SpinBarrierSynchronizesPhases) {
  constexpr int kThreads = 4;
  constexpr int kPhases = 50;
  SpinBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<int> observed(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int phase = 0; phase < kPhases; ++phase) {
        counter.fetch_add(1);
        barrier.wait();
        // After the barrier, all kThreads increments of this phase are
        // visible.
        const int c = counter.load();
        EXPECT_GE(c, (phase + 1) * kThreads);
        barrier.wait();
      }
      observed[t] = 1;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), kThreads * kPhases);
  EXPECT_EQ(std::accumulate(observed.begin(), observed.end(), 0), kThreads);
}

TEST(Barrier, SpinBarrierHotAtomicsArePadded) {
  // remaining_ (hammered by fetch_sub on arrival) and sense_ (spun on by
  // every waiter) must live on different cache lines, else every arrival
  // invalidates every spinner — false sharing inside the very primitive
  // that exists to make synchronization cheap. The alignas padding makes
  // the object span at least two destructive-interference blocks.
  EXPECT_GE(sizeof(SpinBarrier), 2 * kDestructiveInterferenceSize);
  EXPECT_GE(alignof(SpinBarrier), kDestructiveInterferenceSize);
  EXPECT_GE(kDestructiveInterferenceSize, 64u);
}

TEST(Barrier, CondVarBarrierSynchronizesPhases) {
  constexpr int kThreads = 3;
  constexpr int kPhases = 20;
  CondVarBarrier barrier(kThreads);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int phase = 0; phase < kPhases; ++phase) {
        counter.fetch_add(1);
        barrier.wait();
        EXPECT_GE(counter.load(), (phase + 1) * kThreads);
        barrier.wait();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter.load(), kThreads * kPhases);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  int ran = 0;
  pool.run([&](int task) {
    EXPECT_EQ(task, 0);
    ++ran;
  });
  EXPECT_EQ(ran, 1);
}

TEST(ThreadPool, EveryTaskRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(4);
  pool.run([&](int task) { hits[size_t(task)].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyConsecutiveDispatches) {
  // The pool must be reusable thousands of times (one FFT = several
  // dispatches; plans are executed repeatedly).
  ThreadPool pool(3);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 2000; ++rep) {
    pool.run([&](int) { total.fetch_add(1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), 3L * 2000);
}

TEST(ThreadPool, TasksSeeDistinctIds) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> seen(4);
  for (auto& s : seen) s.store(0);
  pool.run([&](int task) { seen[size_t(task)].store(task + 1); });
  for (int t = 0; t < 4; ++t) EXPECT_EQ(seen[size_t(t)].load(), t + 1);
}

TEST(ThreadPool, DestructionWithNoWorkIsClean) {
  for (int i = 0; i < 20; ++i) {
    ThreadPool pool(3);
  }
  SUCCEED();
}

TEST(Threading, IdlePoolSleeps) {
  // A warm pool between calls must park its workers: over one idle
  // second the process may spend only the bounded spin window (1 ms per
  // worker) plus noise, not a core per worker.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.run([&](int) { ran.fetch_add(1); });
  ASSERT_EQ(ran.load(), 4);
  const std::clock_t c0 = std::clock();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  const double idle_cpu_s =
      static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC;
  EXPECT_LT(idle_cpu_s, 0.1) << "idle workers kept spinning";
  // A run() after the workers parked still wakes every participant.
  std::vector<int> seen(4, 0);
  pool.run([&](int id) { seen[static_cast<std::size_t>(id)] = 1; });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 4);
}

TEST(PoolRegistry, ReacquiringSameSizeSpawnsNoThreads) {
  auto& reg = global_pool_registry();
  reg.trim();
  reg.reset_stats();
  {
    PoolLease a = reg.acquire(3);
    ASSERT_TRUE(a);
    EXPECT_EQ(a.pool()->size(), 3);
  }  // returned to the idle list
  EXPECT_EQ(reg.idle_count(), 1u);
  const auto before = ThreadPool::threads_spawned();
  PoolLease b = reg.acquire(3);
  ASSERT_TRUE(b);
  EXPECT_EQ(ThreadPool::threads_spawned(), before)
      << "reuse of a returned pool must not spawn threads";
  const auto st = reg.stats();
  EXPECT_EQ(st.acquires, 2u);
  EXPECT_EQ(st.created, 1u);
  EXPECT_EQ(st.reuses, 1u);
}

TEST(PoolRegistry, ExactSizeKeying) {
  auto& reg = global_pool_registry();
  reg.trim();
  { PoolLease a = reg.acquire(2); }
  // A different participant count cannot reuse the idle team: barrier
  // participant counts are baked in at construction.
  const auto before = ThreadPool::threads_spawned();
  PoolLease b = reg.acquire(4);
  EXPECT_EQ(b.pool()->size(), 4);
  EXPECT_GT(ThreadPool::threads_spawned(), before);
}

TEST(PoolRegistry, ConcurrentLeasesAreDistinctPools) {
  auto& reg = global_pool_registry();
  reg.trim();
  PoolLease a = reg.acquire(2);
  PoolLease b = reg.acquire(2);  // a is still held: must not be shared
  EXPECT_NE(a.pool(), b.pool());
  std::atomic<int> hits{0};
  a.pool()->run([&](int) { hits.fetch_add(1); });
  b.pool()->run([&](int) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 4);
}

// --- Shared-pool semantics through the plan/context layer (the refactor
// that made ExecContext lease rather than own its team). ---

namespace {

core::PlannerOptions parallel_opts(int threads) {
  core::PlannerOptions opt;
  opt.threads = threads;
  return opt;
}

util::cvec run_plan(const core::FftPlan& plan, backend::ExecContext& ctx,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  const util::cvec x = rng.complex_signal(plan.size());
  util::cvec y(x.size());
  plan.execute(ctx, x.data(), y.data());
  return y;
}

}  // namespace

TEST(PoolSharing, SecondPlanOnSameContextSpawnsZeroThreads) {
  global_pool_registry().trim();
  backend::ExecContext ctx;
  const auto p1 = core::plan_dft(256, parallel_opts(2));
  run_plan(*p1, ctx, 0xaa);  // first parallel execute: lease acquired
  const auto before = ThreadPool::threads_spawned();
  const auto p2 = core::plan_dft(512, parallel_opts(2));
  run_plan(*p2, ctx, 0xbb);
  EXPECT_EQ(ThreadPool::threads_spawned(), before)
      << "a second plan on the same context must borrow the leased team";
}

TEST(PoolSharing, PlanDestructionLeavesBorrowedPoolUsable) {
  global_pool_registry().trim();
  backend::ExecContext ctx;
  {
    const auto p1 = core::plan_dft(256, parallel_opts(2));
    run_plan(*p1, ctx, 0xcc);
  }  // plan gone; the team is the context's lease, not the plan's
  const auto before = ThreadPool::threads_spawned();
  const auto p2 = core::plan_dft(256, parallel_opts(2));
  const util::cvec y = run_plan(*p2, ctx, 0xdd);
  EXPECT_EQ(ThreadPool::threads_spawned(), before);
  EXPECT_EQ(y.size(), 256u);

  // Returning the lease and bringing a FRESH context must also pick the
  // warm team back up without spawning: the registry, not any context,
  // owns pool lifetime.
  ctx.reset();
  backend::ExecContext ctx2;
  run_plan(*p2, ctx2, 0xee);
  EXPECT_EQ(ThreadPool::threads_spawned(), before)
      << "a fresh context must reuse the returned warm team";
}

}  // namespace
}  // namespace spiral::threading
