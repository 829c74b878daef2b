#include "backend/stage_group.hpp"

#include <algorithm>
#include <atomic>

#include "backend/fuse.hpp"

namespace spiral::backend {

namespace {

std::atomic<bool> g_group_mutation{false};

/// The per-stage half of the link conditions: the stage covers all n
/// positions through bit-permutation sides and splits into at least one
/// block per task under its contiguous schedule.
bool groupable(const Stage& s, idx_t n) {
  return s.in_map.empty() && s.out_map.empty() && s.iters * s.cn == n &&
         s.cn <= kGroupBlock && s.sched_block == 0 &&
         s.in_bits.positions() == n && s.out_bits.positions() == n &&
         is_bit_permutation(s.in_bits) && is_bit_permutation(s.out_bits) &&
         n / kGroupBlock >= std::max<idx_t>(s.parallel_p, 1);
}

}  // namespace

void set_group_mutation(bool enabled) noexcept {
  g_group_mutation.store(enabled, std::memory_order_relaxed);
}
bool group_mutation() noexcept {
  return g_group_mutation.load(std::memory_order_relaxed);
}

std::vector<StageGroup> find_stage_groups(const StageList& list) {
  std::vector<StageGroup> groups;
  const idx_t n = list.n;
  if (!util::is_pow2(n) || n <= kGroupBlock) return groups;
  const int bits = util::log2_exact(n);
  const std::size_t count = list.stages.size();
  auto exec = [&](std::size_t e) -> const Stage& {
    return list.stages[count - 1 - e];
  };
  const bool mutated = group_mutation();
  auto linked = [&](const Stage& a, const Stage& b) {
    if (a.parallel_p != b.parallel_p || !groupable(a, n) ||
        !groupable(b, n)) {
      return false;
    }
    if (mutated) return true;  // seeded defect: no stride check
    for (int bit = kGroupBlockBits; bit < bits; ++bit) {
      const auto i = static_cast<std::size_t>(bit);
      if (a.out_bits.strides()[i] != b.in_bits.strides()[i]) return false;
    }
    return true;
  };
  for (std::size_t e = 0; e < count;) {
    std::size_t end = e + 1;
    while (end < count && linked(exec(end - 1), exec(end))) ++end;
    if (end - e >= 2) groups.push_back({e, end - e});
    e = end;
  }
  return groups;
}

BitStrideMap rebase_to_block(const BitStrideMap& m) {
  const auto& st = m.strides();
  idx_t block_addr = 0;  // address bits the block bits occupy
  for (std::size_t b = kGroupBlockBits; b < st.size(); ++b) {
    block_addr |= st[b];
  }
  std::vector<idx_t> s(st.size(), 0);
  for (std::size_t b = 0; b < kGroupBlockBits && b < st.size(); ++b) {
    s[b] = idx_t{1} << __builtin_popcountll(
               static_cast<unsigned long long>((st[b] - 1) & ~block_addr));
  }
  return BitStrideMap(0, std::move(s));
}

}  // namespace spiral::backend
