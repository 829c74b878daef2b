// Stage groups: the cache-resident schedule of formula (14)'s sub-DFTs.
//
// The paper (Section 3) picks the factors of DFT_mn so that each
// processor's sub-DFTs fit its cache, yet a flat stage list sends every
// stage through the full-size buffers. A stage group is a schedule over
// the unchanged StageList, not a rewrite: inside a group, a worker
// carries one cache-sized block of positions through every stage of the
// group before it starts the next block, so only the group's first read
// and its last write touch the full-size buffers.
//
// The proof is static and O(log n) per stage boundary. The block bits are
// the top position bits [kGroupBlockBits, B) of a 2^B-position stage, so
// block j is the contiguous iteration range [j*block/cn, (j+1)*block/cn)
// of every stage. Adjacent stages a -> b (execution order) are linked when
// both sides are bit permutations and a's output gives every block bit
// the same stride as b's input: then block j of b reads exactly the
// elements block j of a wrote, and no block needs another's data.
//
// When the transform's buffer exceeds the team's combined L2, the group's
// last write cannot stay cached for the next step, so Program streams it
// with non-temporal stores (simd::StagePlan::stream_out): the lines are
// written without first being read for ownership.
#pragma once

#include <cstddef>
#include <vector>

#include "backend/stage.hpp"

namespace spiral::backend {

/// The per-core L2 the schedule is sized for (2 MiB).
inline constexpr std::size_t kL2Bytes = std::size_t{2} << 20;

/// log2 of the block: 2^13 positions, 8192 complex doubles (128 KiB), so
/// a worker's two block scratches fit a kL2Bytes L2 with room for the
/// twiddles streaming through.
inline constexpr int kGroupBlockBits = 13;
inline constexpr idx_t kGroupBlock = idx_t{1} << kGroupBlockBits;

/// A maximal run of >= 2 linked stages. Indices are in execution order:
/// execution index e is StageList::stages[size - 1 - e].
struct StageGroup {
  std::size_t first = 0;  ///< execution index of the group's first stage
  std::size_t count = 0;  ///< stages in the group (>= 2)

  /// StageList index of member m (m < count) in a list of `stages`.
  [[nodiscard]] std::size_t stage(std::size_t m, std::size_t stages) const {
    return stages - 1 - (first + m);
  }
};

/// The groups of a program, in execution order. Stages link when n is a
/// power of 2 above one block; both stages cover n positions through
/// bit-permutation sides; they share parallel_p, have sched_block == 0
/// and split into at least max(parallel_p, 1) blocks; and the link proof
/// above holds. Groups never overlap.
[[nodiscard]] std::vector<StageGroup> find_stage_groups(const StageList& list);

/// The side `m` (a bit permutation) addressed inside its block: block
/// bits get stride 0, and the other bits' strides are compacted to the
/// ranks of their address bits among those the block bits leave free —
/// a bijection of the block's positions onto [0, block). Across a linked
/// boundary both sides leave the same address bits free, so they rebase
/// with the same function.
[[nodiscard]] BitStrideMap rebase_to_block(const BitStrideMap& m);

/// Mutation-testing hook (spiral-lint --mutate-group): find_stage_groups
/// skips the stride check of the link proof, so every run of otherwise
/// groupable stages with one parallel_p becomes one group. The verifier's
/// group check must flag the leaks and execution must go wrong. Never
/// enable outside mutation tests.
void set_group_mutation(bool enabled) noexcept;
[[nodiscard]] bool group_mutation() noexcept;

}  // namespace spiral::backend
