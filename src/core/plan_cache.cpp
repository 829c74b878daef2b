#include "core/plan_cache.hpp"

#include <tuple>

#include "util/timer.hpp"

namespace spiral::core {

using wisdom::TransformKind;

PlanCache::PlanCache(std::size_t shards) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  // Boost-style hash combining over every field of the key.
  auto mix = [](std::size_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  std::size_t h = mix(0x811c9dc5u, static_cast<std::uint64_t>(k.second));
  std::apply(
      [&](const auto&... field) {
        ((h = mix(h, static_cast<std::uint64_t>(field))), ...);
      },
      k.first);
  return h;
}

std::shared_ptr<FftPlan> PlanCache::plan_uncached(TransformKind kind, idx_t n,
                                                  idx_t n2,
                                                  const PlannerOptions& opt) {
  // Wisdom first: a stored descriptor (imported, or fed back by an earlier
  // autotuned planning in this process) replays the recorded ruletrees and
  // skips the search entirely.
  if (auto d = wisdom_.lookup(descriptor_key(kind, n, n2, opt))) {
    wisdom_hits_.fetch_add(1, std::memory_order_relaxed);
    return plan_from_descriptor(*d, opt);
  }
  // Plan from scratch. Autotuned results are worth persisting: record the
  // descriptor and feed it to the store so export_wisdom() carries it.
  wisdom::PlanDescriptor desc;
  wisdom::PlanDescriptor* out = opt.autotune ? &desc : nullptr;
  std::shared_ptr<FftPlan> plan;
  switch (kind) {
    case TransformKind::kDFT: plan = plan_dft(n, opt, out); break;
    case TransformKind::kWHT: plan = plan_wht(n, opt, out); break;
    case TransformKind::kDFT2D: plan = plan_dft_2d(n, n2, opt, out); break;
    case TransformKind::kBatchDFT:
      plan = plan_batch_dft(n, n2, opt, out);
      break;
  }
  if (out != nullptr) {
    wisdom_.add(std::move(desc), wisdom::MergePolicy::kPreferExisting);
  }
  return plan;
}

std::shared_ptr<FftPlan> PlanCache::get_or_create(TransformKind kind, idx_t n,
                                                  idx_t n2,
                                                  const PlannerOptions& opt) {
  const Key key{descriptor_key(kind, n, n2, opt), opt.autotune};
  Shard& sh = shard_for(key);
  std::promise<std::shared_ptr<FftPlan>> promise;
  {
    std::lock_guard<std::mutex> lock(sh.m);
    auto it = sh.map.find(key);
    if (it != sh.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      PlanFuture fut = it->second;  // copy out, then wait without the lock
      // NOTE: get() blocks until the planning thread publishes the plan.
      return fut.get();
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    sh.map.emplace(key, promise.get_future().share());
  }
  // This thread owns planning for `key`; everyone else waits on the
  // future. Planning happens outside the shard lock so other keys in the
  // shard stay serviceable meanwhile.
  try {
    util::Stopwatch watch;
    std::shared_ptr<FftPlan> plan = plan_uncached(kind, n, n2, opt);
    plan_nanos_.fetch_add(static_cast<std::uint64_t>(watch.seconds() * 1e9),
                          std::memory_order_relaxed);
    promise.set_value(plan);
    return plan;
  } catch (...) {
    // Propagate to every waiter, then forget the entry so later requests
    // retry instead of caching the failure forever.
    promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(sh.m);
      sh.map.erase(key);
    }
    throw;
  }
}

std::shared_ptr<FftPlan> PlanCache::dft(idx_t n, const PlannerOptions& opt) {
  return get_or_create(TransformKind::kDFT, n, 0, opt);
}

std::shared_ptr<FftPlan> PlanCache::wht(idx_t n, const PlannerOptions& opt) {
  return get_or_create(TransformKind::kWHT, n, 0, opt);
}

std::shared_ptr<FftPlan> PlanCache::dft_2d(idx_t rows, idx_t cols,
                                           const PlannerOptions& opt) {
  return get_or_create(TransformKind::kDFT2D, rows, cols, opt);
}

std::shared_ptr<FftPlan> PlanCache::batch_dft(idx_t n, idx_t batch,
                                              const PlannerOptions& opt) {
  return get_or_create(TransformKind::kBatchDFT, n, batch, opt);
}

std::size_t PlanCache::size() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->m);
    total += sh->map.size();
  }
  return total;
}

void PlanCache::clear() {
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->m);
    sh->map.clear();
  }
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.wisdom_hits = wisdom_hits_.load(std::memory_order_relaxed);
  s.plan_nanos = plan_nanos_.load(std::memory_order_relaxed);
  return s;
}

void PlanCache::reset_stats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  wisdom_hits_.store(0, std::memory_order_relaxed);
  plan_nanos_.store(0, std::memory_order_relaxed);
}

PlanCache& global_plan_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace spiral::core
