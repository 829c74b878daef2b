#include "backend/lower.hpp"

#include <atomic>
#include <sstream>

#include "backend/fuse.hpp"
#include "rewrite/engine.hpp"
#include "rewrite/simplify.hpp"
#include "spl/printer.hpp"
#include "spl/twiddle.hpp"

namespace spiral::backend {

using spl::Builder;
using spl::FormulaPtr;
using spl::I;
using spl::Kind;
using util::require;

namespace {

rewrite::RuleSet normalization_rules() {
  using rewrite::Rule;
  rewrite::RuleSet rules;

  // A (x) B -> (A (x) I_nb) . (I_na (x) B) when neither side is I.
  rules.push_back(Rule{
      "tensor-split-general",
      [](const FormulaPtr& f) -> FormulaPtr {
        if (f->kind != Kind::kTensor) return nullptr;
        const auto& a = f->child(0);
        const auto& b = f->child(1);
        if (a->kind == Kind::kIdentity || b->kind == Kind::kIdentity) {
          return nullptr;
        }
        return Builder::compose({
            Builder::tensor(a, I(b->size)),
            Builder::tensor(I(a->size), b),
        });
      }});

  // (A.B) (x) I_k -> (A (x) I_k) . (B (x) I_k)
  rules.push_back(Rule{
      "tensor-compose-left",
      [](const FormulaPtr& f) -> FormulaPtr {
        if (f->kind != Kind::kTensor) return nullptr;
        const auto& c = f->child(0);
        const auto& id = f->child(1);
        if (c->kind != Kind::kCompose || id->kind != Kind::kIdentity) {
          return nullptr;
        }
        std::vector<FormulaPtr> factors;
        for (const auto& g : c->children) {
          factors.push_back(Builder::tensor(g, I(id->n)));
        }
        return Builder::compose(std::move(factors));
      }});

  // I_m (x) (A.B) -> (I_m (x) A) . (I_m (x) B)
  rules.push_back(Rule{
      "tensor-compose-right",
      [](const FormulaPtr& f) -> FormulaPtr {
        if (f->kind != Kind::kTensor) return nullptr;
        const auto& id = f->child(0);
        const auto& c = f->child(1);
        if (id->kind != Kind::kIdentity || c->kind != Kind::kCompose) {
          return nullptr;
        }
        std::vector<FormulaPtr> factors;
        for (const auto& g : c->children) {
          factors.push_back(Builder::tensor(I(id->n), g));
        }
        return Builder::compose(std::move(factors));
      }});

  // (A.B) (x)v I_nu -> (A (x)v I_nu) . (B (x)v I_nu)
  rules.push_back(Rule{
      "vectensor-compose",
      [](const FormulaPtr& f) -> FormulaPtr {
        if (f->kind != Kind::kVecTensor) return nullptr;
        const auto& c = f->child(0);
        if (c->kind != Kind::kCompose) return nullptr;
        std::vector<FormulaPtr> factors;
        for (const auto& g : c->children) {
          factors.push_back(Builder::vec_tensor(g, f->mu));
        }
        return Builder::compose(std::move(factors));
      }});

  // I_p (x)|| (A.B) -> (I_p (x)|| A) . (I_p (x)|| B)
  rules.push_back(Rule{
      "tensorpar-compose",
      [](const FormulaPtr& f) -> FormulaPtr {
        if (f->kind != Kind::kTensorPar) return nullptr;
        const auto& c = f->child(0);
        if (c->kind != Kind::kCompose) return nullptr;
        std::vector<FormulaPtr> factors;
        for (const auto& g : c->children) {
          factors.push_back(Builder::tensor_par(f->p, g));
        }
        return Builder::compose(std::move(factors));
      }});

  for (auto& r : rewrite::simplification_rules()) rules.push_back(std::move(r));
  return rules;
}

/// Loop-nest context accumulated while descending through tensor
/// constructs. `dims` are outer-to-inner loop dimensions (count +
/// per-iteration element offset); `elem_stride` is the stride between the
/// leaf's logical elements; `base` is a constant offset (direct sums).
struct LoopCtx {
  struct Dim {
    idx_t count;
    idx_t stride;
  };
  std::vector<Dim> dims;
  /// Dimensions forced innermost regardless of nesting position: the SIMD
  /// lane dimension of A (x)v I_nu must iterate fastest so that lanes are
  /// adjacent iterations (backend::VecForm::kAcrossIterations).
  std::vector<Dim> inner_dims;
  idx_t elem_stride = 1;
  idx_t base = 0;
  idx_t parallel_p = 0;

  [[nodiscard]] idx_t total_iters() const {
    idx_t t = 1;
    for (const auto& d : dims) t *= d.count;
    for (const auto& d : inner_dims) t *= d.count;
    return t;
  }

  /// Bit strides of the flattened iteration index, lowest bit first (the
  /// fastest dimension owns the low bits), appended to `out`. The first
  /// loop whose count is not a power of two, and every loop outside it
  /// whose stride continues it (I_2 (x)|| (I_3 (x) A)), form one linear
  /// digit; its 2-power factor becomes more bits and the odd rest is
  /// returned as the map's outer digit {count, stride} ({1, 0}: none).
  [[nodiscard]] Dim iteration_strides(std::vector<idx_t>& out) const {
    std::vector<Dim> all = dims;
    all.insert(all.end(), inner_dims.begin(), inner_dims.end());
    Dim digit{1, 0};
    for (auto d = all.rbegin(); d != all.rend(); ++d) {
      if (digit.count == 1 && util::is_pow2(d->count)) {
        for (idx_t c = 1; c < d->count; c *= 2) out.push_back(c * d->stride);
      } else if (digit.count == 1) {
        digit = *d;
      } else if (d->count > 1) {
        if (d->stride != digit.count * digit.stride) {
          throw std::invalid_argument(
              "lower: a loop of count " + std::to_string(digit.count) +
              " is not outermost; it has no bit-stride form");
        }
        digit.count *= d->count;
      }
    }
    for (; digit.count % 2 == 0; digit.count /= 2, digit.stride *= 2) {
      out.push_back(digit.stride);
    }
    return digit;
  }
};

/// Bit strides of a permutation leaf (position bit b moves to table
/// value strides[b]; appended to `out`), read off the formula in
/// O(log n). False for sizes that are not powers of two and for
/// constructs outside the stride-permutation family the rewriting
/// emits.
bool permutation_bits(const FormulaPtr& f, std::vector<idx_t>& out) {
  if (!util::is_pow2(f->size)) return false;
  // Appends a child's strides scaled by `scale` (its block's weight).
  const auto child = [&out](const FormulaPtr& c, idx_t scale) {
    const std::size_t at = out.size();
    if (!permutation_bits(c, out)) return false;
    for (std::size_t b = at; b < out.size(); ++b) out[b] *= scale;
    return true;
  };
  switch (f->kind) {
    case Kind::kIdentity:
      for (idx_t c = 1; c < f->n; c *= 2) out.push_back(c);
      return true;
    case Kind::kStridePerm: {
      // table[i*nn + j] = j*m + i: the low log2(nn) bits (j) scale by m.
      const idx_t m = f->stride;
      if (!util::is_pow2(m)) return false;
      for (idx_t c = 1; c < f->size / m; c *= 2) out.push_back(c * m);
      for (idx_t c = 1; c < m; c *= 2) out.push_back(c);
      return true;
    }
    case Kind::kPermBar:
    case Kind::kVecTensor:
      // table[r*mu + k] = P[r]*mu + k.
      if (!util::is_pow2(f->mu)) return false;
      for (idx_t c = 1; c < f->mu; c *= 2) out.push_back(c);
      return child(f->child(0), f->mu);
    case Kind::kTensor: {
      // table[ra*nb + rb] = A[ra]*nb + B[rb].
      const idx_t nb = f->child(1)->size;
      return child(f->child(1), 1) && child(f->child(0), nb);
    }
    case Kind::kVecShuffle: {
      // I_k (x) L^{nu^2}_nu.
      const idx_t nu = f->mu;
      return child(spl::Builder::stride_perm(nu * nu, nu), 1) &&
             child(spl::I(f->n), nu * nu);
    }
    default:
      return false;
  }
}

/// A contiguous run [off, off + size) of the entries of D_{m,n}: what a
/// twiddle leaf, a segment, or a direct sum of consecutive segments of
/// one diagonal holds.
struct TwiddleSpan {
  idx_t m, n, off, size;
  int sign;
};

/// The diagonal of a span, over the leaf's low position bits. Up to
/// kMaxScaleValues entries it is one table of spl::twiddle_entry values.
/// A larger span of a 2-power D_{m,n}, aligned to its size, is two
/// factors: with entry t = i*n + j and j = j_hi*2^b + j_lo,
///
///   F_lo(i, j_lo) = w^{i j_lo},  F_hi(i, j_hi) = w^{i j_hi 2^b},
///   w = w_{mn},
///
/// each over the position bits of its own variables (i's varying bits in
/// both), and w^{ij} is their product. b is the smallest split that keeps
/// F_hi within the cap, but at least kLaneBits: D_{m,n} scales the
/// iterations j of DFT_m (x) I_n, whose adjacent iterations are the
/// vector lanes, so keeping the lanes' j bits in F_lo lets each factor
/// read as one broadcast value or one contiguous load.
///
/// With iv varying bits of i and jv of j, F_lo stores 2^(iv + b) values
/// and F_hi 2^(iv + jv - b). F_hi stays within kMaxScaleValues; F_lo does
/// while 2 iv + jv <= 2 log2 kMaxScaleValues, which the planner's
/// diagonals meet through n = 2^23. Above that F_lo outgrows the cap
/// (D_{4096,4096} at n = 2^24: 2^19 + 2^17 values). No two factors of
/// w^{ij} can stay within it there: every pair of an i bit and a j bit
/// must meet in one factor, so one factor holds all of i's or all of j's
/// bits.
DiagFactors twiddle_diag(const TwiddleSpan& sp) {
  const idx_t sz = sp.size;
  const bool aligned = util::is_pow2(sp.m) && util::is_pow2(sp.n) &&
                       util::is_pow2(sz) && sp.off % sz == 0;
  const int s = aligned ? util::log2_exact(sz) : 0;
  const int ln = aligned ? util::log2_exact(sp.n) : 0;
  const int jv = std::min(s, ln);  // varying j bits: position bits [0, jv)
  if (sz <= kMaxScaleValues || !aligned || jv < 2) {
    util::cvec diag(static_cast<std::size_t>(sz));
    for (idx_t l = 0; l < sz; ++l) {
      diag[static_cast<std::size_t>(l)] =
          spl::twiddle_entry(sp.m, sp.n, sp.off + l, sp.sign);
    }
    // The entry index is the low log2(sz) position bits.
    std::vector<int> low;
    for (int b = 0; (idx_t{1} << b) < sz; ++b) low.push_back(b);
    return {BitDiag{std::move(diag), std::move(low)}};
  }
  const int iv = s - jv;  // varying i bits: position bits [ln, s)
  const int cap = util::log2_exact(kMaxScaleValues);
  const int b =
      std::min(std::max(iv + jv - cap, std::min(jv - 1, kLaneBits)), jv - 1);
  const idx_t mn = sp.m * sp.n;
  const idx_t i0 = sp.off >> ln;
  const idx_t j0 = sp.off & (sp.n - 1);
  // The factor over j bits [lo, lo + count), j's other bits fixed at
  // jfix: value index u holds those j bits low, i's varying bits high.
  auto factor = [&](int lo, int count, idx_t jfix) {
    BitDiag d;
    for (int r = lo; r < lo + count; ++r) d.bits.push_back(r);
    for (int r = ln; r < s; ++r) d.bits.push_back(r);
    d.values.resize(std::size_t{1} << (count + iv));
    const idx_t jmask = (idx_t{1} << count) - 1;
    for (idx_t u = 0; u < static_cast<idx_t>(d.values.size()); ++u) {
      const idx_t i = i0 + (u >> count);
      const idx_t j = jfix + ((u & jmask) << lo);
      d.values[static_cast<std::size_t>(u)] =
          spl::root_of_unity(mn, i * j, sp.sign);
    }
    return d;
  };
  return {factor(0, b, 0), factor(b, jv - b, j0)};
}

/// Emits a formula's leaves as stages: every index map a BitStrideMap,
/// every diagonal a symbolic BitDiag. A leaf without a bit-stride form
/// (a non-2-power codelet, diagonal or permutation) throws.
class Lowerer {
 public:
  [[nodiscard]] bool empty() const noexcept { return stages_.empty(); }
  std::vector<LoweredStage> take() && { return std::move(stages_); }

  void walk(const FormulaPtr& f, LoopCtx ctx) {
    switch (f->kind) {
      case Kind::kCompose: {
        require(ctx.dims.empty() && ctx.elem_stride == 1,
                "lower: nested composition survived normalization");
        for (const auto& g : f->children) walk(g, ctx);
        return;
      }
      case Kind::kIdentity:
        return;  // no-op factor
      case Kind::kTensor: {
        const auto& a = f->child(0);
        const auto& b = f->child(1);
        if (a->kind == Kind::kIdentity) {
          ctx.dims.push_back({a->n, b->size * ctx.elem_stride});
          walk(b, ctx);
          return;
        }
        if (b->kind == Kind::kIdentity) {
          ctx.dims.push_back({b->n, ctx.elem_stride});
          ctx.elem_stride *= b->n;
          walk(a, ctx);
          return;
        }
        require(false, "lower: general tensor survived normalization");
        return;
      }
      case Kind::kTensorPar: {
        require(ctx.parallel_p == 0, "lower: nested parallel tensor");
        ctx.parallel_p = f->p;
        ctx.dims.push_back({f->p, f->child(0)->size * ctx.elem_stride});
        walk(f->child(0), ctx);
        return;
      }
      case Kind::kVecTensor: {
        // A (x)v I_nu lowers like A (x) I_nu with the nu dimension forced
        // innermost: SIMD lanes are adjacent iterations.
        ctx.inner_dims.push_back({f->mu, ctx.elem_stride});
        ctx.elem_stride *= f->mu;
        walk(f->child(0), ctx);
        return;
      }
      case Kind::kVecShuffle:
        emit_perm(f, ctx);
        return;
      case Kind::kVecTag:
        require(false, "lower: unresolved vec tag (run vectorize first)");
        return;
      case Kind::kDFT:
      case Kind::kWHT:
      case Kind::kF2:
        emit_compute(f, ctx);
        return;
      case Kind::kStridePerm:
      case Kind::kPermBar:
        emit_perm(f, ctx);
        return;
      case Kind::kTwiddleDiag:
      case Kind::kDiagSeg: {
        const TwiddleSpan sp{f->tw_m, f->tw_n,
                             f->kind == Kind::kDiagSeg ? f->seg_off : 0,
                             f->size, f->root_sign};
        emit_scale(f, ctx, twiddle_diag(sp), ctx.parallel_p);
        return;
      }
      case Kind::kDirectSum:
      case Kind::kDirectSumPar:
        emit_direct_sum(f, ctx);
        return;
      case Kind::kSmpTag:
        require(false, "lower: unresolved smp tag (run parallelize first)");
        return;
    }
    require(false, "lower: unhandled construct");
  }

  /// The explicit copy stage of an identity formula I_n: a loop of n
  /// one-element copies, so an odd n becomes the outer digit.
  void emit_identity(idx_t n) {
    Stage s;
    s.iters = n;
    s.cn = 1;
    s.is_compute = false;
    s.label = "I";
    LoopCtx ctx;
    ctx.dims.push_back({n, 1});
    set_maps(s, ctx, 1, nullptr);
  }

 private:
  /// Sets both index maps of `s` over the loop nest, flattened position
  /// k = it*sz + l:  out(k) = off(it) + l*es,  in(k) = off(it) + perm(l)*es
  /// (perm == nullptr: the identity), then appends the stage.
  void set_maps(Stage& s, const LoopCtx& ctx, idx_t sz, const FormulaPtr* perm,
                DiagFactors diag = {}) {
    const idx_t es = ctx.elem_stride;
    if (!util::is_pow2(sz)) {
      throw std::invalid_argument("lower: " + s.label + " has size " +
                                  std::to_string(sz) +
                                  ", not a power of two; no bit-stride form");
    }
    std::vector<idx_t> in;
    std::vector<idx_t> out;
    if (perm != nullptr) {
      if (!permutation_bits(*perm, in)) {
        throw std::invalid_argument("lower: permutation " + s.label +
                                    " has no bit-stride form");
      }
      for (auto& v : in) v *= es;
    }
    for (idx_t c = 1; c < sz; c *= 2) out.push_back(c * es);
    if (perm == nullptr) in = out;
    std::vector<idx_t> it;
    const LoopCtx::Dim outer = ctx.iteration_strides(it);
    in.insert(in.end(), it.begin(), it.end());
    out.insert(out.end(), it.begin(), it.end());
    s.in_bits =
        BitStrideMap(ctx.base, std::move(in), outer.count, outer.stride);
    s.out_bits =
        BitStrideMap(ctx.base, std::move(out), outer.count, outer.stride);
    stages_.push_back(LoweredStage{std::move(s), std::move(diag), {}});
  }

  void emit_compute(const FormulaPtr& f, const LoopCtx& ctx) {
    const idx_t n = f->n;
    require(n <= 64, "lower: DFT leaf too large for a codelet; expand it");
    Stage s;
    s.iters = ctx.total_iters();
    s.cn = n;
    s.sign = f->root_sign;
    s.is_compute = true;
    s.wht = f->kind == Kind::kWHT;
    s.parallel_p = ctx.parallel_p;
    s.label = stage_label(f, ctx);
    set_maps(s, ctx, n, nullptr);
  }

  void emit_perm(const FormulaPtr& f, const LoopCtx& ctx) {
    Stage s;
    s.iters = ctx.total_iters() * f->size;
    s.cn = 1;
    s.is_compute = false;
    s.parallel_p = ctx.parallel_p;
    s.label = stage_label(f, ctx);
    set_maps(s, ctx, f->size, &f);
  }

  /// A diagonal leaf: `diag` holds its f->size entries, evaluated once
  /// (they depend on the element, not the loop iteration).
  void emit_scale(const FormulaPtr& f, const LoopCtx& ctx, DiagFactors diag,
                  idx_t parallel_p) {
    const idx_t sz = f->size;
    Stage s;
    s.iters = ctx.total_iters() * sz;
    s.cn = 1;
    s.is_compute = false;
    s.parallel_p = parallel_p;
    s.label = stage_label(f, ctx);
    set_maps(s, ctx, sz, nullptr, std::move(diag));
  }

  void emit_direct_sum(const FormulaPtr& f, const LoopCtx& ctx) {
    // The common (and, for parallel sums, the only supported) case: all
    // blocks are twiddle-diagonal segments -> one fused scale stage.
    bool all_diag = true;
    for (const auto& c : f->children) {
      all_diag = all_diag && c->kind == Kind::kDiagSeg;
    }
    require(all_diag,
            "lower: direct sums are supported for diagonal segments only");
    const idx_t p = (f->kind == Kind::kDirectSumPar)
                        ? static_cast<idx_t>(f->arity())
                        : ctx.parallel_p;
    // The rewriting splits one diagonal into consecutive segments, so the
    // sum is one span of it.
    const auto& c0 = f->child(0);
    TwiddleSpan sp{c0->tw_m, c0->tw_n, c0->seg_off, 0, c0->root_sign};
    for (const auto& c : f->children) {
      require(c->tw_m == sp.m && c->tw_n == sp.n &&
                  c->root_sign == sp.sign && c->seg_off == sp.off + sp.size,
              "lower: a direct sum's segments must be consecutive pieces of "
              "one diagonal");
      sp.size += c->size;
    }
    emit_scale(f, ctx, twiddle_diag(sp), p);
  }

  static std::string stage_label(const FormulaPtr& f, const LoopCtx& ctx) {
    std::ostringstream os;
    if (ctx.parallel_p > 0) os << "par" << ctx.parallel_p << ":";
    os << spl::to_string(f);
    return os.str();
  }

  std::vector<LoweredStage> stages_;
};

std::atomic<LoweringObserver> g_lowering_observer{nullptr};
std::atomic<std::int32_t> g_affine_stride_mutation{0};
std::atomic<idx_t> g_batch_stride_mutation{0};
std::atomic<bool> g_twiddle_mutation{false};

/// The program as executed: diagonals as symbolic stage scales.
StageList materialize(idx_t n, std::vector<LoweredStage> lowered) {
  StageList list;
  list.n = n;
  list.stages.reserve(lowered.size());
  for (auto& ls : lowered) {
    list.stages.push_back(materialize_scales(std::move(ls)));
  }
  return list;
}

/// Normalizes and lowers to bit-stride stages.
std::vector<LoweredStage> lower_stages(const FormulaPtr& f, idx_t* n) {
  FormulaPtr g = normalize(f);
  // Fail loudly before building maps that int32 cannot address (the
  // checked_index casts are the backstop; this catches the whole-transform
  // case before any allocation).
  require(g->size <= kMaxIndexableElems,
          "lower: transform size exceeds the int32 index-map limit (2^31 "
          "elements)");
  *n = g->size;
  Lowerer lw;
  lw.walk(g, LoopCtx{});
  // Formula was the identity: emit an explicit copy stage.
  if (lw.empty()) lw.emit_identity(g->size);
  return std::move(lw).take();
}

/// The map base + it*a.iter_stride + l*a.elem_stride over m's positions
/// and codelets of 2-power cn. A seeded stride mutation is rebuilt into
/// the map this way, since the map is what execution, the verifier and
/// the emitter read.
BitStrideMap affine_bits(const BitStrideMap& m, idx_t cn, const AffineMap& a) {
  const int c = util::log2_exact(cn);
  std::vector<idx_t> st;
  for (int b = 0; b < m.bits(); ++b) {
    st.push_back(b < c ? a.elem_stride << b : a.iter_stride << (b - c));
  }
  return BitStrideMap(a.base, std::move(st), m.outer_count(),
                      a.iter_stride << (m.bits() - c));
}

/// Records which sides are plain stride patterns (Stage::in_affine /
/// out_affine), applying the seeded stride mutations to affine out-sides.
void mark_affine(StageList& list) {
  const std::int32_t mutate = affine_stride_mutation();
  const idx_t batch_mutate = batch_stride_mutation();
  for (auto& s : list.stages) {
    s.in_affine = s.in_bits.affine(s.cn).has_value();
    const auto out = s.out_bits.affine(s.cn);
    s.out_affine = out.has_value();
    if (!out || (mutate == 0 && batch_mutate == 0)) continue;
    AffineMap a = *out;
    if (mutate != 0) {
      // Seeded defect (see set_affine_stride_mutation): skew the stride
      // that actually participates in addressing for this stage shape.
      if (s.cn > 1) {
        a.elem_stride += mutate;
      } else {
        a.iter_stride += mutate;
      }
    }
    if (batch_mutate != 0 && s.is_compute && s.cn > 1 && s.iters > 1) {
      // Seeded batch-stride defect (see set_batch_stride_mutation):
      // consecutive coalesced transforms land batch_mutate elements
      // apart from where they should.
      a.iter_stride += batch_mutate;
    }
    s.out_bits = affine_bits(s.out_bits, s.cn, a);
  }
}

}  // namespace

void set_lowering_observer(LoweringObserver obs) noexcept {
  g_lowering_observer.store(obs, std::memory_order_release);
}

void set_affine_stride_mutation(std::int32_t delta) noexcept {
  g_affine_stride_mutation.store(delta, std::memory_order_release);
}

std::int32_t affine_stride_mutation() noexcept {
  return g_affine_stride_mutation.load(std::memory_order_acquire);
}

void set_batch_stride_mutation(idx_t delta) noexcept {
  g_batch_stride_mutation.store(delta, std::memory_order_release);
}

idx_t batch_stride_mutation() noexcept {
  return g_batch_stride_mutation.load(std::memory_order_acquire);
}

void set_twiddle_mutation(bool enabled) noexcept {
  g_twiddle_mutation.store(enabled, std::memory_order_release);
}

bool twiddle_mutation() noexcept {
  return g_twiddle_mutation.load(std::memory_order_acquire);
}

LoweringObserver lowering_observer() noexcept {
  return g_lowering_observer.load(std::memory_order_acquire);
}

FormulaPtr normalize(const FormulaPtr& f) {
  return rewrite::rewrite_fixpoint(f, normalization_rules());
}

StageList lower(const FormulaPtr& f) {
  idx_t n = 0;
  std::vector<LoweredStage> st = lower_stages(f, &n);
  StageList list = materialize(n, std::move(st));
  if (auto* obs = lowering_observer()) obs(list);
  return list;
}

StageList lower_fused(const FormulaPtr& f) {
  idx_t n = 0;
  std::vector<LoweredStage> st = lower_stages(f, &n);
  if (auto* obs = lowering_observer()) obs(materialize(n, st));
  fuse_lowered(st);
  if (twiddle_mutation()) {
    // Seeded defect (see set_twiddle_mutation): wrong twiddle values with
    // perfectly intact structure.
    for (auto& ls : st) {
      for (DiagFactors* d : {&ls.in_diag, &ls.out_diag}) {
        for (BitDiag& g : *d) {
          for (auto& w : g.values) w = std::conj(w);
        }
      }
    }
  }
  StageList list = materialize(n, std::move(st));
  mark_affine(list);
  if (auto* obs = lowering_observer()) obs(list);
  return list;
}

}  // namespace spiral::backend
