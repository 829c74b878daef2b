// Tests for service::BatchExecutor — the batch/streaming FFT service
// layer. Correctness of sync and async submission against the O(n^2)
// reference, deterministic coalescing (paused backlog -> one I_k (x)
// DFT_n execution), per-size binning onto distinct PlanCache entries,
// power-of-two chunk splitting, bounded-queue backpressure, substrate
// parity (interpreter / SIMD), shutdown draining, and the
// concurrent-submitter stress that the TSan leg runs.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/batch_executor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace spiral::service {
namespace {

using testing::fft_tolerance;
using testing::max_diff;
using testing::reference_dft;

/// One request's buffers plus its ticket: keeps x/y alive until waited.
struct Request {
  util::cvec x, y, want;
  Ticket t;
};

Request make_request(idx_t n, std::uint64_t seed) {
  Request r;
  util::Rng rng(seed);
  r.x = rng.complex_signal(n);
  r.y.assign(static_cast<std::size_t>(n), cplx{0.0, 0.0});
  r.want = reference_dft(r.x);
  return r;
}

TEST(BatchExecutor, SyncExecuteMatchesReference) {
  BatchExecutor svc({.threads = 2});
  for (idx_t n : {2, 8, 64, 256}) {
    Request r = make_request(n, 0x5eedULL ^ static_cast<std::uint64_t>(n));
    svc.execute(n, r.x.data(), r.y.data());
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(n)) << "n=" << n;
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.failed, 0u);
}

TEST(BatchExecutor, InPlaceExecute) {
  BatchExecutor svc({.threads = 2});
  const idx_t n = 128;
  Request r = make_request(n, 0x1117);
  util::cvec buf = r.x;
  svc.execute(n, buf.data(), buf.data());
  EXPECT_LE(max_diff(buf, r.want), fft_tolerance(n));
}

TEST(BatchExecutor, AsyncTicketsCompleteAndMatch) {
  // The backlog is queued before the batcher starts: a running batcher
  // that keeps up with the submitter flushes each request alone (the
  // designed idle flush), so only a paused start makes coalescing certain.
  BatchExecutor svc({.threads = 2, .max_batch = 8, .start_paused = true});
  std::vector<Request> reqs;
  for (int i = 0; i < 40; ++i) {
    const idx_t n = (i % 2 == 0) ? 64 : 128;
    reqs.push_back(make_request(n, 0xabc0ULL + static_cast<unsigned>(i)));
  }
  for (auto& r : reqs) {
    r.t = svc.submit(static_cast<idx_t>(r.x.size()), r.x.data(), r.y.data());
    ASSERT_TRUE(r.t.valid());
  }
  svc.start();
  for (auto& r : reqs) {
    svc.wait(r.t);
    EXPECT_TRUE(svc.poll(r.t));
    const idx_t n = static_cast<idx_t>(r.x.size());
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(n));
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.completed, 40u);
  EXPECT_EQ(st.failed, 0u);
  // 40 queued requests over 2 sizes must have coalesced at least once —
  // the batcher drains the whole backlog per cycle.
  EXPECT_LT(st.batches, st.completed);
}

TEST(BatchExecutor, PausedBacklogCoalescesIntoOneBatch) {
  // start_paused gives a deterministic coalescing picture: 32 same-size
  // requests queued before the batcher exists must flush as exactly one
  // I_32 (x) DFT_64 execution.
  BatchExecutor svc({.threads = 2, .max_batch = 32, .start_paused = true});
  std::vector<Request> reqs;
  for (int i = 0; i < 32; ++i) {
    reqs.push_back(make_request(64, 0xbeefULL + static_cast<unsigned>(i)));
    reqs.back().t = svc.submit(64, reqs.back().x.data(), reqs.back().y.data());
  }
  svc.start();
  svc.drain();
  for (auto& r : reqs) {
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.batches, 1u);
  EXPECT_EQ(st.coalesced_max, 32u);
  EXPECT_EQ(st.flushes_size, 1u);
  EXPECT_DOUBLE_EQ(st.mean_batch(), 32.0);
}

TEST(BatchExecutor, MixedSizesBinPerPlanCacheEntry) {
  // 8 + 8 requests of two sizes: one coalesced plan per size, i.e. two
  // batch-DFT cache misses, two executions.
  BatchExecutor svc({.threads = 2, .max_batch = 8, .start_paused = true});
  std::vector<Request> reqs;
  for (int i = 0; i < 16; ++i) {
    const idx_t n = i < 8 ? 64 : 128;
    reqs.push_back(make_request(n, 0x9999ULL + static_cast<unsigned>(i)));
    reqs.back().t =
        svc.submit(n, reqs.back().x.data(), reqs.back().y.data());
  }
  svc.start();
  svc.drain();
  for (auto& r : reqs) {
    const idx_t n = static_cast<idx_t>(r.x.size());
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(n));
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.coalesced_max, 8u);
  const auto cs = svc.cache().stats();
  EXPECT_EQ(cs.misses, 2u);  // batch_dft(64, 8) and batch_dft(128, 8)
}

TEST(BatchExecutor, NonPowerOfTwoBacklogSplitsIntoPow2Chunks) {
  // 13 requests, max_batch=8: chunks of 8, 4 and 1 — three executions,
  // three cache entries (I_8 (x) DFT, I_4 (x) DFT, plain DFT).
  BatchExecutor svc({.threads = 2, .max_batch = 8, .start_paused = true});
  std::vector<Request> reqs;
  for (int i = 0; i < 13; ++i) {
    reqs.push_back(make_request(64, 0x1357ULL + static_cast<unsigned>(i)));
    reqs.back().t =
        svc.submit(64, reqs.back().x.data(), reqs.back().y.data());
  }
  svc.start();
  svc.drain();
  for (auto& r : reqs) {
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.batches, 3u);
  EXPECT_EQ(st.coalesced_max, 8u);
  EXPECT_EQ(svc.cache().stats().misses, 3u);
}

TEST(BatchExecutor, TrySubmitShedsLoadWhenQueueFull) {
  BatchExecutor svc({.threads = 1,
                     .max_batch = 4,
                     .queue_capacity = 4,
                     .start_paused = true});
  std::vector<Request> reqs;
  int accepted = 0;
  for (int i = 0; i < 10; ++i) {
    reqs.push_back(make_request(64, 0x4444ULL + static_cast<unsigned>(i)));
    reqs.back().t = svc.try_submit(64, reqs.back().x.data(),
                                   reqs.back().y.data());
    if (reqs.back().t.valid()) ++accepted;
  }
  // The batcher is paused, so exactly queue_capacity submissions fit.
  EXPECT_EQ(accepted, 4);
  svc.start();
  svc.drain();
  for (auto& r : reqs) {
    if (!r.t.valid()) continue;
    svc.wait(r.t);
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
  }
  EXPECT_EQ(svc.stats().completed, 4u);
}

TEST(BatchExecutor, SubstrateParity) {
  // The coalesced programs must execute correctly on both substrates:
  // the scalar interpreter and the SIMD nu=4 drivers. The traffic is
  // identical; only the planner knobs differ.
  struct Substrate {
    const char* name;
    core::PlannerOptions planner;
  };
  std::vector<Substrate> substrates;
  substrates.push_back({"interp", {}});
  {
    core::PlannerOptions p;
    p.vector_nu = 4;
    substrates.push_back({"simd", p});
  }
  for (const auto& sub : substrates) {
    SCOPED_TRACE(sub.name);
    ServiceOptions opt;
    opt.threads = 2;
    opt.max_batch = 8;
    opt.start_paused = true;
    opt.planner = sub.planner;
    BatchExecutor svc(opt);
    std::vector<Request> reqs;
    for (int i = 0; i < 8; ++i) {
      reqs.push_back(make_request(64, 0x7070ULL + static_cast<unsigned>(i)));
      reqs.back().t =
          svc.submit(64, reqs.back().x.data(), reqs.back().y.data());
    }
    svc.start();
    svc.drain();
    EXPECT_EQ(svc.stats().batches, 1u);  // one coalesced I_8 (x) DFT_64
    for (auto& r : reqs) {
      EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
    }
  }
}

TEST(BatchExecutor, SharedPlanCache) {
  // Two services sharing one cache: the second must hit the first's
  // coalesced plans instead of re-planning.
  core::PlanCache cache;
  ServiceOptions opt;
  opt.threads = 2;
  opt.max_batch = 8;
  opt.start_paused = true;
  opt.cache = &cache;
  for (int round = 0; round < 2; ++round) {
    BatchExecutor svc(opt);
    EXPECT_EQ(&svc.cache(), &cache);
    std::vector<Request> reqs;
    for (int i = 0; i < 8; ++i) {
      reqs.push_back(make_request(64, 0x2468ULL + static_cast<unsigned>(i)));
      reqs.back().t =
          svc.submit(64, reqs.back().x.data(), reqs.back().y.data());
    }
    svc.start();
    svc.drain();
    for (auto& r : reqs) {
      EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
    }
  }
  const auto cs = cache.stats();
  EXPECT_EQ(cs.misses, 1u);  // planned once by the first service
  EXPECT_GE(cs.hits, 1u);    // replayed by the second
}

TEST(BatchExecutor, DestructorDrainsOutstandingWork) {
  std::vector<Request> reqs;
  {
    BatchExecutor svc({.threads = 2, .max_batch = 8});
    for (int i = 0; i < 20; ++i) {
      reqs.push_back(make_request(64, 0x8642ULL + static_cast<unsigned>(i)));
      reqs.back().t =
          svc.submit(64, reqs.back().x.data(), reqs.back().y.data());
    }
    // No wait: the destructor must complete everything already accepted.
  }
  for (auto& r : reqs) {
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
  }
}

TEST(BatchExecutor, PausedDestructorStillCompletesBacklog) {
  // A service that was never started must not leave tickets dangling:
  // its destructor drains the backlog inline.
  std::vector<Request> reqs;
  {
    BatchExecutor svc({.threads = 2, .max_batch = 8, .start_paused = true});
    for (int i = 0; i < 5; ++i) {
      reqs.push_back(make_request(64, 0xface0ULL + static_cast<unsigned>(i)));
      reqs.back().t =
          svc.submit(64, reqs.back().x.data(), reqs.back().y.data());
    }
  }
  for (auto& r : reqs) {
    EXPECT_LE(max_diff(r.y, r.want), fft_tolerance(64));
  }
}

TEST(BatchExecutor, RejectsInvalidSizes) {
  BatchExecutor svc({.threads = 1});
  util::cvec buf(24);
  EXPECT_THROW(svc.submit(24, buf.data(), buf.data()),
               std::invalid_argument);
  EXPECT_THROW(svc.submit(0, buf.data(), buf.data()),
               std::invalid_argument);
  EXPECT_THROW(svc.wait(Ticket{}), std::invalid_argument);
}

// The TSan leg runs this suite: many client threads submitting and
// waiting concurrently while another thread polls stats(), with the
// service's counters (and the PlanCache's hit/miss counters underneath)
// racing against them. Must be clean under -fsanitize=thread.
TEST(BatchExecutorConcurrency, ConcurrentSubmittersAreRaceFree) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 64;
  BatchExecutor svc({.threads = 2, .max_batch = 16});
  std::atomic<bool> stop_reader{false};
  std::thread reader([&] {
    // Concurrent stats() reads exercise the counter loads under load.
    std::uint64_t last = 0;
    while (!stop_reader.load(std::memory_order_acquire)) {
      const auto st = svc.stats();
      EXPECT_GE(st.submitted, last);
      EXPECT_LE(st.completed + st.failed, st.submitted);
      last = st.submitted;
      std::this_thread::yield();
    }
  });
  std::vector<double> worst(kClients, 0.0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Pipelined: submit the whole window, then wait — so requests from
      // all four clients are in flight (and coalescing) simultaneously.
      std::vector<Request> mine;
      for (int i = 0; i < kPerClient; ++i) {
        const idx_t n = (i % 3 == 0) ? 128 : 64;
        mine.push_back(make_request(
            n, (static_cast<std::uint64_t>(c) << 32) | unsigned(i)));
        mine.back().t = svc.submit(n, mine.back().x.data(),
                                   mine.back().y.data());
      }
      for (auto& r : mine) {
        svc.wait(r.t);
        worst[size_t(c)] = std::max(worst[size_t(c)], max_diff(r.y, r.want));
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_LE(worst[size_t(c)], fft_tolerance(128)) << "client " << c;
  }
  const auto st = svc.stats();
  EXPECT_EQ(st.submitted, std::uint64_t(kClients) * kPerClient);
  EXPECT_EQ(st.completed, st.submitted);
  EXPECT_EQ(st.failed, 0u);
}

}  // namespace
}  // namespace spiral::service
