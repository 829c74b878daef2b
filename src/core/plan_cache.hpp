// Wisdom-backed sharded plan service.
//
// Production FFT libraries amortize planning cost by memoizing plans per
// (transform, size, configuration); Spiral's generated routines are
// specialised per (N, p, mu) and this cache plays the role of the
// generated-library dispatch table. Three properties make it a *service*
// rather than a map:
//
//   * N-way sharding: requests lock only the shard their key hashes to,
//     so concurrent clients planning different transforms do not contend
//     on one mutex. Within a shard, in-flight planning is deduplicated
//     with futures — concurrent requests for the same key plan once and
//     everyone waits for that result instead of racing.
//   * Wisdom: before planning from scratch, the cache consults its
//     WisdomStore (see src/wisdom/). An imported descriptor — e.g. from a
//     previous process's autotuning run — is replayed directly, skipping
//     the DP search entirely. Autotuned planning performed here feeds its
//     descriptor back into the store, so export_wisdom() persists it.
//   * Counters: hit/miss/wisdom-hit counts and cumulative planning time,
//     for monitoring and for tests that must prove a search was skipped.
//
// The returned plans are safe for concurrent execute(ctx, x, y) with
// per-caller contexts (see backend::ExecContext); the context-free
// execute(x, y) is also safe (thread-local contexts).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/spiral_fft.hpp"
#include "wisdom/wisdom.hpp"

namespace spiral::core {

class PlanCache {
 public:
  static constexpr std::size_t kDefaultShards = 16;

  /// `shards` is rounded up to at least 1.
  explicit PlanCache(std::size_t shards = kDefaultShards);

  /// Returns a cached plan for DFT_n with the given options, creating it
  /// on first use. Thread-safe; concurrent requests for the same key
  /// build the plan once.
  std::shared_ptr<FftPlan> dft(idx_t n, const PlannerOptions& opt = {});

  /// Same for the Walsh-Hadamard transform.
  std::shared_ptr<FftPlan> wht(idx_t n, const PlannerOptions& opt = {});

  /// Same for the 2D DFT.
  std::shared_ptr<FftPlan> dft_2d(idx_t rows, idx_t cols,
                                  const PlannerOptions& opt = {});

  /// Same for batched DFTs (batch independent DFT_n's).
  std::shared_ptr<FftPlan> batch_dft(idx_t n, idx_t batch,
                                     const PlannerOptions& opt = {});

  /// Number of distinct plans currently cached (including in-flight).
  [[nodiscard]] std::size_t size() const;

  /// Drops all cached plans (wisdom is kept; use wisdom().clear() to
  /// forget that too).
  void clear();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Service counters. `wisdom_hits` counts plans rebuilt from a stored
  /// descriptor (no search); `plan_nanos` is cumulative wall-clock time
  /// spent planning cache misses (wisdom replays included).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t wisdom_hits = 0;
    std::uint64_t plan_nanos = 0;
    [[nodiscard]] double plan_seconds() const {
      return static_cast<double>(plan_nanos) * 1e-9;
    }
  };
  [[nodiscard]] Stats stats() const;
  void reset_stats();

  /// The wisdom store this cache consults before planning.
  [[nodiscard]] wisdom::WisdomStore& wisdom() { return wisdom_; }
  [[nodiscard]] const wisdom::WisdomStore& wisdom() const { return wisdom_; }

  /// Serializes this cache's wisdom (imported + locally autotuned).
  [[nodiscard]] std::string export_wisdom() const {
    return wisdom_.export_text();
  }

  /// Merges a wisdom blob into this cache's store. Rejected atomically on
  /// malformed/mismatched input (see wisdom::parse_text).
  wisdom::ImportResult import_wisdom(
      const std::string& text,
      wisdom::MergePolicy policy = wisdom::MergePolicy::kPreferImported) {
    return wisdom_.import_text(text, policy);
  }

 private:
  /// Full plan identity: structural parameters plus the execution-level
  /// knobs (jit, autotune) that change what object the user gets back.
  struct Key {
    int kind = 0;
    idx_t n = 0;
    idx_t n2 = 0;
    int threads = 1;
    idx_t mu = 4;
    idx_t nu = 0;  // part of the key: scalar and vectorized plans differ!
    idx_t leaf = 0;
    int direction = -1;
    bool jit = false;  // a JIT'd plan and an interpreted one differ
    bool autotune = false;

    bool operator==(const Key&) const = default;
    [[nodiscard]] std::size_t hash() const noexcept;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept { return k.hash(); }
  };

  using PlanFuture = std::shared_future<std::shared_ptr<FftPlan>>;

  struct Shard {
    mutable std::mutex m;
    std::unordered_map<Key, PlanFuture, KeyHash> map;
  };

  static Key make_key(wisdom::TransformKind kind, idx_t n, idx_t n2,
                      const PlannerOptions& o);

  Shard& shard_for(const Key& key) {
    return *shards_[key.hash() % shards_.size()];
  }

  std::shared_ptr<FftPlan> get_or_create(wisdom::TransformKind kind, idx_t n,
                                         idx_t n2, const PlannerOptions& opt);

  /// Plans one transform, consulting (and feeding) the wisdom store.
  std::shared_ptr<FftPlan> plan_uncached(wisdom::TransformKind kind, idx_t n,
                                         idx_t n2, const PlannerOptions& opt);

  std::vector<std::unique_ptr<Shard>> shards_;
  wisdom::WisdomStore wisdom_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> wisdom_hits_{0};
  std::atomic<std::uint64_t> plan_nanos_{0};
};

/// Process-wide default cache (convenience for applications).
[[nodiscard]] PlanCache& global_plan_cache();

}  // namespace spiral::core
