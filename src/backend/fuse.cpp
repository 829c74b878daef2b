#include "backend/fuse.hpp"

#include <algorithm>
#include <utility>

#include "backend/vectorize.hpp"

namespace spiral::backend {

bool is_bit_permutation(const BitStrideMap& m) {
  if (m.base() != 0) return false;
  const idx_t all = (idx_t{1} << m.bits()) - 1;
  if (m.outer_count() > 1 && m.outer_stride() != all + 1) return false;
  idx_t seen = 0;
  for (const idx_t s : m.strides()) {
    if (!util::is_pow2(s) || s > all || (seen & s) != 0) return false;
    seen |= s;
  }
  return seen == all;
}

BitStrideMap invert(const BitStrideMap& m) {
  util::require(is_bit_permutation(m), "invert: not a bit permutation");
  std::vector<idx_t> inv(m.strides().size());
  for (std::size_t b = 0; b < inv.size(); ++b) {
    inv[static_cast<std::size_t>(util::log2_exact(m.strides()[b]))] =
        idx_t{1} << b;
  }
  return BitStrideMap(0, std::move(inv), m.outer_count(), m.outer_stride());
}

BitStrideMap compose(const BitStrideMap& outer, const BitStrideMap& inner) {
  util::require(is_bit_permutation(inner) && inner.bits() == outer.bits() &&
                    inner.outer_count() == outer.outer_count(),
                "compose: inner map is not a bit permutation of outer's "
                "positions");
  // Bit b of k lands on bit log2(inner.strides[b]) of inner(k), which
  // outer scales by its stride for that bit; the outer digit stays put.
  std::vector<idx_t> s(inner.strides().size());
  for (std::size_t b = 0; b < s.size(); ++b) {
    s[b] = outer.strides()[static_cast<std::size_t>(
        util::log2_exact(inner.strides()[b]))];
  }
  return BitStrideMap(outer.base(), std::move(s), outer.outer_count(),
                      outer.outer_stride());
}

namespace {

/// Gathers the bits at `positions` of a `total_bits`-bit position into a
/// compact index: bit positions[i] becomes bit i.
BitStrideMap bit_gather(const std::vector<int>& positions, int total_bits) {
  std::vector<idx_t> s(static_cast<std::size_t>(total_bits), 0);
  for (std::size_t i = 0; i < positions.size(); ++i) {
    s[static_cast<std::size_t>(positions[i])] = idx_t{1} << i;
  }
  return BitStrideMap(0, std::move(s));
}

/// acc := acc * f (f's bits already in acc's position space), evaluated
/// over the union of both projections. A missing acc counts as the
/// constant 1, so the products keep the exact operation order of
/// multiplying into a table initialized to ones.
void multiply(BitDiag& acc, const util::cvec& f, const std::vector<int>& fbits) {
  if (acc.values.empty()) acc = BitDiag{util::cvec{cplx{1.0, 0.0}}, {}};
  // uni: acc's bits, then f's new ones; fpos[i]: where f's bit i sits.
  std::vector<int> uni = acc.bits;
  std::vector<int> fpos;
  for (const int b : fbits) {
    const auto at = std::find(uni.begin(), uni.end(), b);
    fpos.push_back(static_cast<int>(at - uni.begin()));
    if (at == uni.end()) uni.push_back(b);
  }
  const int ubits = static_cast<int>(uni.size());
  const idx_t amask = (idx_t{1} << acc.bits.size()) - 1;
  const BitStrideMap g = bit_gather(fpos, ubits);
  util::cvec out(std::size_t{1} << ubits);
  for (std::size_t u = 0; u < out.size(); ++u) {
    out[u] = acc.values[u & static_cast<std::size_t>(amask)] *
             f[static_cast<std::size_t>(g.at(static_cast<idx_t>(u)))];
  }
  acc = BitDiag{std::move(out), std::move(uni)};
}

/// acc := acc * f. f multiplies into acc's last factor while the merged
/// table stays within kMaxScaleValues (or acc is at kMaxScaleFactors),
/// and becomes a factor of its own otherwise. The scale's product of
/// factors rounds as std::complex's product does, so the appended factor
/// gives the values the merged table would; an empty acc starts from a
/// table of ones, as a single multiply does.
void multiply(DiagFactors& acc, const util::cvec& f,
              const std::vector<int>& fbits) {
  if (acc.empty()) acc.emplace_back();
  BitDiag& last = acc.back();
  std::size_t merged = last.bits.size();
  for (const int b : fbits) {
    merged += std::find(last.bits.begin(), last.bits.end(), b) ==
              last.bits.end();
  }
  if (last.values.empty() || (idx_t{1} << merged) <= kMaxScaleValues ||
      acc.size() == kMaxScaleFactors) {
    multiply(last, f, fbits);
  } else {
    acc.push_back(BitDiag{f, fbits});
  }
}

/// Number of position bits of a stage of `positions` = q * 2^B
/// positions, q odd. Diagonals never depend on the outer digit.
int position_bits(idx_t positions) {
  return __builtin_ctzll(static_cast<unsigned long long>(positions));
}

/// A diagonal factor as a scale factor of a stage of `positions`
/// positions and codelets of cn, its values reordered by the projected
/// position bits: the lane bits [log2 cn, log2 cn + kLaneBits) first, so
/// the W <= 8 lanes of a pack read one broadcast value or W contiguous
/// ones; then the element bits, so one pack's values for its cn elements
/// lie together instead of in cn runs 2^k values apart (which, at 2-power
/// strides of 4 KiB and more, all fall into one L1 set); then the other
/// iteration bits. Each group ascending. O(|values|).
StageScale::Factor to_factor(const BitDiag& d, idx_t positions, idx_t cn) {
  const int c = position_bits(cn);
  auto group = [c](int q) {
    if (q < c) return 1;
    return q < c + kLaneBits ? 0 : 2;
  };
  std::vector<int> sorted = d.bits;
  std::sort(sorted.begin(), sorted.end(), [&group](int x, int y) {
    return std::pair{group(x), x} < std::pair{group(y), y};
  });
  // Old value bit i is new bit rank[i], its position bit's place in
  // sorted; g maps a new value index to the old one.
  std::vector<int> rank;
  for (const int q : d.bits) {
    rank.push_back(static_cast<int>(
        std::find(sorted.begin(), sorted.end(), q) - sorted.begin()));
  }
  const BitStrideMap g = bit_gather(rank, static_cast<int>(rank.size()));
  util::dvec re(d.values.size());
  util::dvec im(d.values.size());
  for (idx_t u = 0; u < static_cast<idx_t>(re.size()); ++u) {
    const cplx z = d.values[static_cast<std::size_t>(g.at(u))];
    re[static_cast<std::size_t>(u)] = z.real();
    im[static_cast<std::size_t>(u)] = z.imag();
  }
  const int b = position_bits(positions);
  return {std::move(re), std::move(im),
          BitStrideMap(0, bit_gather(sorted, b).strides(), positions >> b)};
}

StageScale to_scale(const DiagFactors& d, idx_t positions, idx_t cn) {
  if (d.empty()) return {};
  std::vector<StageScale::Factor> factors;
  for (const BitDiag& f : d) factors.push_back(to_factor(f, positions, cn));
  return StageScale(std::move(factors));
}

/// Folds a pure stage's diagonal f, read at position map pos
/// (pos == nullptr: the identity), into acc: each factor's bits are
/// renamed through pos, then multiplied in.
void scale_by(DiagFactors& acc, const DiagFactors& f,
              const BitStrideMap* pos) {
  std::vector<int> from;
  if (pos != nullptr) {
    // Bit q of pos(j) is bit b of j where pos.strides[b] == 2^q.
    from.resize(pos->strides().size());
    for (std::size_t b = 0; b < from.size(); ++b) {
      from[static_cast<std::size_t>(util::log2_exact(pos->strides()[b]))] =
          static_cast<int>(b);
    }
  }
  for (const BitDiag& g : f) {
    std::vector<int> fbits = g.bits;
    if (pos != nullptr) {
      for (int& q : fbits) q = from[static_cast<std::size_t>(q)];
    }
    multiply(acc, g.values, fbits);
  }
}

}  // namespace

Stage materialize_scales(LoweredStage&& ls) {
  Stage s = std::move(ls.stage);
  s.in_scale = to_scale(ls.in_diag, s.total_elems(), s.cn);
  s.out_scale = to_scale(ls.out_diag, s.total_elems(), s.cn);
  return s;
}

int fuse_lowered(std::vector<LoweredStage>& st) {
  int eliminated = 0;

  // Largest vector width fusion must preserve (see the lane-safe guard
  // below), cached per stage and recomputed only when the stage changes.
  constexpr idx_t kMaxNu = 16;
  std::vector<idx_t> widths(st.size(), 0);  // 0: not yet computed
  auto width = [&](std::size_t i) {
    if (widths[i] == 0) {
      widths[i] = stage_vector_info(st[i].stage, kMaxNu).width;
    }
    return widths[i];
  };
  auto erase = [&](std::size_t i) {
    st.erase(st.begin() + static_cast<std::ptrdiff_t>(i));
    widths.erase(widths.begin() + static_cast<std::ptrdiff_t>(i));
  };

  // A fold of pure stage p into side `side` of a neighbour goes through
  // the position map pos = via^-1 o side (via = p's side facing the
  // neighbour), after which the side becomes far o pos (far = p's other
  // side) and p's diagonal, read at pos, multiplies in. With `lane_safe`,
  // the fold is tried in place and undone when it would shrink st[ci]'s
  // proven vector width. Returns whether it was kept, and pos.
  auto fold = [&](std::size_t ci, BitStrideMap& side, const BitStrideMap& via,
                  const BitStrideMap& far, bool lane_safe) {
    const BitStrideMap pos = compose(invert(via), side);
    BitStrideMap next = compose(far, pos);
    if (lane_safe) {
      const idx_t before = width(ci);
      std::swap(side, next);
      const idx_t after = stage_vector_info(st[ci].stage, kMaxNu).width;
      if (after < before) {
        std::swap(side, next);
        return std::pair{false, pos};
      }
      widths[ci] = after;
    } else {
      side = std::move(next);
      widths[ci] = 0;
    }
    return std::pair{true, pos};
  };

  // Tries one fusion step at priority `level`, returns true if applied.
  //   0: input-side,  lane-safe only
  //   1: output-side, lane-safe only
  //   2: pure-pure composition
  //   3: input-side,  unconditional
  //   4: output-side, unconditional
  // The lane-safe guard keeps a compute stage's vector-alignment
  // structure (backend::stage_vector_info) intact: without it, the
  // in-register-shuffle permutations of one vectorized block can drift
  // across a block boundary into a neighbouring loop's gather and break
  // its SIMD lanes. Unconditional fusion remains as a fallback so fused
  // programs never have more data passes than before.
  auto try_level = [&](int level) -> bool {
    for (std::size_t i = 0; i + 1 < st.size(); ++i) {
      LoweredStage& left = st[i];
      LoweredStage& right = st[i + 1];
      if ((level == 0 || level == 3) && left.stage.is_compute &&
          !right.stage.is_compute) {
        // right applies first: left now reads through right's maps.
        const auto [ok, pos] =
            fold(i, left.stage.in_bits, right.stage.out_bits,
                 right.stage.in_bits, level == 0 && width(i) > 1);
        if (!ok) continue;
        scale_by(left.in_diag, right.in_diag, &pos);
        left.stage.label += " o " + right.stage.label;
        erase(i + 1);
        return true;
      }
      if ((level == 1 || level == 4) && !left.stage.is_compute &&
          right.stage.is_compute) {
        // left applies after: right now writes through left's maps.
        const auto [ok, pos] =
            fold(i + 1, right.stage.out_bits, left.stage.in_bits,
                 left.stage.out_bits, level == 1 && width(i + 1) > 1);
        if (!ok) continue;
        scale_by(right.out_diag, left.in_diag, &pos);
        right.stage.label = left.stage.label + " o " + right.stage.label;
        erase(i);
        return true;
      }
      if (level == 2 && !left.stage.is_compute && !right.stage.is_compute) {
        // One pure stage: left's iteration order, right applied first.
        LoweredStage c;
        Stage& s = c.stage;
        s.iters = left.stage.iters;
        s.cn = 1;
        s.is_compute = false;
        s.parallel_p = std::max(left.stage.parallel_p, right.stage.parallel_p);
        s.label = left.stage.label + " o " + right.stage.label;
        const BitStrideMap pos =
            compose(invert(right.stage.out_bits), left.stage.in_bits);
        s.in_bits = compose(right.stage.in_bits, pos);
        s.out_bits = std::move(left.stage.out_bits);
        scale_by(c.in_diag, left.in_diag, nullptr);
        scale_by(c.in_diag, right.in_diag, &pos);
        left = std::move(c);
        widths[i] = 0;
        erase(i + 1);
        return true;
      }
    }
    return false;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (int level = 0; level < 5; ++level) {
      if (try_level(level)) {
        ++eliminated;
        changed = true;
        break;
      }
    }
  }
  return eliminated;
}

}  // namespace spiral::backend
