// The kernel IR the backend executes: a formula is lowered into a flat
// sequence of *stages*, each a (possibly parallel) loop of codelet calls
// with explicit index maps — exactly the "skeleton loop plus merged
// decorations" structure Spiral's loop-merging produces (Section 3.1 and
// the code sample after rule (7)/(13) in the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/aligned_vector.hpp"
#include "util/common.hpp"

namespace spiral::backend {

/// Largest element count the int32 index maps of a Stage can address:
/// indices live in [0, 2^31), so programs up to 2^31 elements are
/// representable. Lowering larger transforms must fail loudly (see
/// checked_index) instead of silently wrapping the maps.
inline constexpr idx_t kMaxIndexableElems = idx_t{1} << 31;

/// Checked narrowing for index-map entries. Every index written into
/// Stage::in_map/out_map must pass through here: sizes near/above 2^31
/// elements would otherwise wrap to negative int32 values and corrupt
/// the program silently.
inline std::int32_t checked_index(idx_t v) {
  if (v < 0 || v >= kMaxIndexableElems) {
    throw std::overflow_error(
        "stage index " + std::to_string(v) +
        " does not fit the int32 index maps (max " +
        std::to_string(kMaxIndexableElems - 1) + ")");
  }
  return static_cast<std::int32_t>(v);
}

/// The closed form of an affine stage side,
///
///   index(it, l) = base + it * iter_stride + l * elem_stride,
///
/// as BitStrideMap::affine() reads it off a map's strides. Code that
/// prints or models a plain stride pattern (the C emitter, the locality
/// model) takes it from there; addressing itself always goes through
/// the map.
struct AffineMap {
  idx_t base = 0;
  idx_t iter_stride = 0;  ///< stride between consecutive iterations
  idx_t elem_stride = 0;  ///< stride between a codelet's elements
};

/// Bit-stride addressing for one side of a stage (loop merging made
/// symbolic, as the index functions of [11]). A side over
/// iters*cn = q * 2^B positions, q odd, maps the flattened position
/// k = it*cn + l to
///
///   index(k) = base + sum_{b<B} bit_b(k) * strides[b]
///                   + floor(k / 2^B) * outer_stride
///
/// Every map the lowering emits has this form: stride permutations are
/// bit rotations, 2-power loop nests are bit fields, and the loops of an
/// odd batch count fold into the outer digit. Fusion composes such maps
/// by composing their strides in O(log n) (backend/fuse). Evaluation goes
/// through two lookup tables — the low half of the bits, and the high
/// half together with the outer digit, base folded into the high one —
/// so a side at n = 2^22 costs 2 * 2^11 int32 entries instead of a
/// 2^22-entry table. The constructor range-checks every entry and the
/// largest reachable index through checked_index, so at() always yields
/// an index the int32 maps could hold.
class BitStrideMap {
 public:
  BitStrideMap() = default;
  /// outer_count must be odd; with outer_count == 1 there is no outer
  /// digit and outer_stride is ignored (stored as 0).
  BitStrideMap(idx_t base, std::vector<idx_t> strides, idx_t outer_count = 1,
               idx_t outer_stride = 0);

  [[nodiscard]] idx_t base() const noexcept { return base_; }
  [[nodiscard]] const std::vector<idx_t>& strides() const noexcept {
    return strides_;
  }
  /// Number of position bits B.
  [[nodiscard]] int bits() const noexcept {
    return static_cast<int>(strides_.size());
  }
  /// The outer digit: its (odd) count q and its stride.
  [[nodiscard]] idx_t outer_count() const noexcept { return outer_count_; }
  [[nodiscard]] idx_t outer_stride() const noexcept { return outer_stride_; }
  /// Number of positions the side addresses: q * 2^B.
  [[nodiscard]] idx_t positions() const noexcept {
    return outer_count_ << bits();
  }
  /// The side as base + it*iter_stride + l*elem_stride over codelets of
  /// cn positions (cn must divide positions()), or nullopt when it is
  /// not that pattern. O(log n): see stage.cpp.
  [[nodiscard]] std::optional<AffineMap> affine(idx_t cn) const;
  [[nodiscard]] idx_t at(idx_t k) const {
    return idx_t{lo_[static_cast<std::size_t>(k & lo_mask_)]} +
           hi_[static_cast<std::size_t>(k >> lo_bits_)];
  }
  /// row[l] = at(k0 + l) for l < count: one codelet's indices. When the
  /// run stays inside one low-half block, the high entry is shared.
  void row(idx_t k0, idx_t count, std::int32_t* out) const {
    const idx_t lo0 = k0 & lo_mask_;
    if (lo0 + count > lo_mask_ + 1) {
      for (idx_t l = 0; l < count; ++l) {
        out[l] = static_cast<std::int32_t>(at(k0 + l));
      }
      return;
    }
    const std::int32_t h = hi_[static_cast<std::size_t>(k0 >> lo_bits_)];
    const std::int32_t* lo = lo_.data() + lo0;
    for (idx_t l = 0; l < count; ++l) out[l] = lo[l] + h;
  }

 private:
  idx_t base_ = 0;
  std::vector<idx_t> strides_;
  idx_t outer_count_ = 1;
  idx_t outer_stride_ = 0;
  int lo_bits_ = 0;
  idx_t lo_mask_ = 0;
  std::vector<std::int32_t> lo_{0}, hi_{0};
};

/// Most factors a StageScale holds: a SIMD plan records one lane form
/// per factor (simd::StagePlan).
inline constexpr std::size_t kMaxScaleFactors = 2;

/// x, passed through a register the optimizer cannot see into: a product
/// sent through here is rounded on its own and never contracted with a
/// following add into a fused multiply-add. Works on double and on the
/// GCC/Clang vector types of the SIMD kernels.
template <class T>
inline T rounded(T x) noexcept {
#if defined(__GNUC__) && defined(__x86_64__)
  __asm__("" : "+x"(x));
#elif defined(__GNUC__) && defined(__aarch64__)
  __asm__("" : "+w"(x));
#endif
  return x;
}

/// The product of two scale factors: std::complex's a*b with every
/// partial product rounded before the sum. Each consumer of a factored
/// scale multiplies its factors this way (the SIMD kernels lane by lane),
/// so all of them apply the same value.
[[nodiscard]] inline cplx scale_product(cplx a, cplx b) noexcept {
  return {rounded(a.real() * b.real()) - rounded(a.imag() * b.imag()),
          rounded(a.real() * b.imag()) + rounded(a.imag() * b.real())};
}

/// A stage side's fused diagonal, kept symbolic (the scale function of
/// loop merging, [11]) as a product of factors. Each factor stores
/// distinct values, split re/im and shared by every copy, and a map with
/// stride 2^i on the position bit that value bit i reads, 0 elsewhere; its
/// value at position k = it*cn + l is values[map.at(k)]. The scale's value
/// at k is the factors' values multiplied left to right by
/// scale_product. A diagonal whose table would outgrow the L2 is stored as
/// two smaller factors (backend/fuse, kMaxScaleValues); every other one
/// has a single factor. Lowering orders each factor's values lane bits
/// first, then element bits, then the other iteration bits
/// (materialize_scales), so SIMD lanes read one broadcast value or W
/// contiguous ones per factor and a pack's values lie together.
class StageScale {
 public:
  class Factor {
   public:
    /// Every map entry must index the values.
    Factor(util::dvec re, util::dvec im, BitStrideMap map);

    /// Number of stored values.
    [[nodiscard]] std::size_t size() const noexcept {
      return values_->re.size();
    }
    [[nodiscard]] const BitStrideMap& map() const noexcept { return map_; }
    [[nodiscard]] const double* re() const noexcept {
      return values_->re.data();
    }
    [[nodiscard]] const double* im() const noexcept {
      return values_->im.data();
    }
    /// The factor's value at position k.
    [[nodiscard]] cplx at(idx_t k) const {
      const idx_t i = map_.at(k);
      return {re()[i], im()[i]};
    }

   private:
    struct Values {
      util::dvec re, im;
    };
    std::shared_ptr<const Values> values_;
    BitStrideMap map_;
  };

  StageScale() = default;
  /// One factor.
  StageScale(util::dvec re, util::dvec im, BitStrideMap map);
  /// 1 to kMaxScaleFactors factors over the same positions.
  explicit StageScale(std::vector<Factor> factors);
  /// An execution-order table: entry k at position k (empty: no scale).
  explicit StageScale(const util::cvec& table);

  [[nodiscard]] bool empty() const noexcept { return factors_.empty(); }
  [[nodiscard]] const std::vector<Factor>& factors() const noexcept {
    return factors_;
  }
  /// Number of stored values, over every factor (not positions).
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] idx_t positions() const noexcept {
    return factors_.front().map().positions();
  }
  /// The scale at position k.
  [[nodiscard]] cplx at(idx_t k) const {
    cplx v = factors_.front().at(k);
    for (std::size_t f = 1; f < factors_.size(); ++f) {
      v = scale_product(v, factors_[f].at(k));
    }
    return v;
  }
  /// The execution-order table (positions() entries), for printing.
  [[nodiscard]] util::cvec expand() const;

 private:
  std::vector<Factor> factors_;
};

/// One loop stage:
///
///   parallel-for (chunked over `parallel_p` threads when > 0)
///   for i in [0, iters):
///     y[out_map[i*cn + l]] = DFT_cn( in_scale[i*cn+l] * x[in_map[i*cn+l]] )
///
/// A stage with cn == 1 and no arithmetic (`is_perm`) is a pure data
/// permutation/scaling pass; the fusion pass tries to eliminate those by
/// merging them into neighbouring compute stages.
struct Stage {
  idx_t iters = 0;       ///< number of codelet invocations
  idx_t cn = 1;          ///< codelet size (1 for pure data stages)
  int sign = -1;         ///< DFT root sign for compute stages
  bool is_compute = false;  ///< true: codelet; false: copy/scale only
  bool wht = false;      ///< compute stages: WHT codelet instead of DFT
  idx_t parallel_p = 0;  ///< 0: sequential; else #tasks (threads)
  /// Iteration-to-task schedule for parallel stages (backend/schedule).
  /// 0 = contiguous chunks (rule (7)'s mu-aware schedule: task t gets
  /// iterations [t*iters/p, (t+1)*iters/p)). Otherwise block-cyclic with
  /// this block size: iteration i runs on task (i / sched_block) % p —
  /// the schedule the paper attributes to FFTW 3.1's loop parallelizer,
  /// which ignores the cache line length and can false-share.
  idx_t sched_block = 0;

  /// Addressing of the input and output sides. A lowered side is its
  /// BitStrideMap; the int32 tables (element (it, l) at [it*cn + l]) are
  /// empty. Only callers that rebuild a program entry by entry (hand-made
  /// verifier inputs, the emitted-C checker) fill a table, which then
  /// takes precedence; Program rejects such stages. Read either through
  /// in_index()/out_index().
  BitStrideMap in_bits;
  BitStrideMap out_bits;
  std::vector<std::int32_t> in_map;
  std::vector<std::int32_t> out_map;
  /// Set by lower_fused() when the side's map is a plain stride pattern
  /// (in_bits.affine(cn) holds): a fact about the map, recorded for the
  /// emitter, the locality model and the plan statistics.
  bool in_affine = false;
  bool out_affine = false;
  /// Optional fused diagonal applied on load, by position k = it*cn + l;
  /// empty if none.
  StageScale in_scale;
  /// Optional fused diagonal applied on store; empty if none.
  StageScale out_scale;

  /// Short diagnostic label ("Ip(x)||(DFT_8 (x) I_16)" etc.).
  std::string label;

  [[nodiscard]] idx_t total_elems() const { return iters * cn; }

  /// Input element index of (iteration it, element l): the table entry
  /// when there is one, else the bit-stride map.
  [[nodiscard]] idx_t in_index(idx_t it, idx_t l) const {
    if (in_map.empty()) return in_bits.at(it * cn + l);
    return in_map[static_cast<std::size_t>(it * cn + l)];
  }
  /// Output element index of (iteration it, element l).
  [[nodiscard]] idx_t out_index(idx_t it, idx_t l) const {
    if (out_map.empty()) return out_bits.at(it * cn + l);
    return out_map[static_cast<std::size_t>(it * cn + l)];
  }

  /// Arithmetic cost in real flops (codelets + fused scales).
  [[nodiscard]] double flops() const;
};

/// A lowered program: stages applied right-to-left (stages.back() first),
/// matching formula composition order y = S_0 S_1 ... S_{k-1} x.
struct StageList {
  idx_t n = 0;  ///< transform size
  std::vector<Stage> stages;

  [[nodiscard]] double flops() const;
  [[nodiscard]] std::string summary() const;
};

}  // namespace spiral::backend
