#include "backend/fuse.hpp"

#include <algorithm>
#include <utility>

#include "backend/vectorize.hpp"

namespace spiral::backend {

bool is_bit_permutation(const BitStrideMap& m) {
  if (m.base() != 0) return false;
  const idx_t all = (idx_t{1} << m.bits()) - 1;
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
  return BitStrideMap(0, std::move(inv));
}

BitStrideMap compose(const BitStrideMap& outer, const BitStrideMap& inner) {
  util::require(is_bit_permutation(inner) && inner.bits() == outer.bits(),
                "compose: inner map is not a bit permutation of outer's "
                "positions");
  // Bit b of k lands on bit log2(inner.strides[b]) of inner(k), which
  // outer scales by its stride for that bit.
  std::vector<idx_t> s(inner.strides().size());
  for (std::size_t b = 0; b < s.size(); ++b) {
    s[b] = outer.strides()[static_cast<std::size_t>(
        util::log2_exact(inner.strides()[b]))];
  }
  return BitStrideMap(outer.base(), std::move(s));
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

/// Execution-order table of a diagonal over 2^total_bits positions.
util::cvec diag_table(BitDiag&& d, int total_bits) {
  if (d.values.empty()) return {};
  bool identity = static_cast<int>(d.bits.size()) == total_bits;
  for (std::size_t i = 0; identity && i < d.bits.size(); ++i) {
    identity = d.bits[i] == static_cast<int>(i);
  }
  if (identity) return std::move(d.values);
  const BitStrideMap g = bit_gather(d.bits, total_bits);
  util::cvec t(std::size_t{1} << total_bits);
  for (std::size_t k = 0; k < t.size(); ++k) {
    t[k] = d.values[static_cast<std::size_t>(g.at(static_cast<idx_t>(k)))];
  }
  return t;
}

int total_bits(const Stage& s) { return util::log2_exact(s.total_elems()); }

// ---------------------------------------------------------------------------
// The two representations fusion works on. A fold of pure stage `p` into
// side `side` of a neighbour goes through the position map
//   pos = through(side, via) = via^-1 o side
// (via = p's side facing the neighbour), after which the side becomes
// gather(p's far side, pos) and p's diagonal, read at pos, multiplies in.

/// Mixed-radix programs: int32 tables, composed entry by entry.
struct TablePath {
  using Map = std::vector<std::int32_t>;
  static constexpr bool kBits = false;
  static Map& in(Stage& s) { return s.in_map; }
  static Map& out(Stage& s) { return s.out_map; }
  static util::cvec& in_scale(LoweredStage& ls) { return ls.stage.in_scale; }
  static util::cvec& out_scale(LoweredStage& ls) { return ls.stage.out_scale; }

  static Map through(const Map& side, const Map& via) {
    Map inv(via.size());
    for (std::size_t k = 0; k < via.size(); ++k) {
      inv[static_cast<std::size_t>(via[k])] = static_cast<std::int32_t>(k);
    }
    Map pos(side.size());
    for (std::size_t j = 0; j < side.size(); ++j) {
      pos[j] = inv[static_cast<std::size_t>(side[j])];
    }
    return pos;
  }
  static Map gather(const Map& map, const Map& pos) {
    Map out(pos.size());
    for (std::size_t j = 0; j < pos.size(); ++j) {
      out[j] = map[static_cast<std::size_t>(pos[j])];
    }
    return out;
  }
  /// acc[j] *= f[pos[j]] (pos == nullptr: identity); acc starts at ones.
  static void scale_by(util::cvec& acc, const util::cvec& f, const Map* pos,
                       std::size_t total) {
    if (f.empty()) return;
    if (acc.empty()) acc.assign(total, cplx{1.0, 0.0});
    for (std::size_t j = 0; j < total; ++j) {
      acc[j] *= f[pos != nullptr ? static_cast<std::size_t>((*pos)[j]) : j];
    }
  }
};

/// 2-power programs: bit permutations and symbolic diagonals.
struct BitPath {
  using Map = BitStrideMap;
  static constexpr bool kBits = true;
  static Map& in(Stage& s) { return s.in_bits; }
  static Map& out(Stage& s) { return s.out_bits; }
  static BitDiag& in_scale(LoweredStage& ls) { return ls.in_diag; }
  static BitDiag& out_scale(LoweredStage& ls) { return ls.out_diag; }

  static Map through(const Map& side, const Map& via) {
    return compose(invert(via), side);
  }
  static Map gather(const Map& map, const Map& pos) {
    return compose(map, pos);
  }
  /// acc(j) *= f(pos(j)): f's bits renamed through pos, then multiplied.
  static void scale_by(BitDiag& acc, const BitDiag& f, const Map* pos,
                       std::size_t /*total*/) {
    if (f.values.empty()) return;
    std::vector<int> fbits = f.bits;
    if (pos != nullptr) {
      // Bit q of pos(j) is bit b of j where pos.strides[b] == 2^q.
      std::vector<int> from(pos->strides().size());
      for (std::size_t b = 0; b < from.size(); ++b) {
        from[static_cast<std::size_t>(util::log2_exact(pos->strides()[b]))] =
            static_cast<int>(b);
      }
      for (int& q : fbits) q = from[static_cast<std::size_t>(q)];
    }
    multiply(acc, f.values, fbits);
  }
};

template <class P>
int fuse_with(std::vector<LoweredStage>& st) {
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

  // Folds a pure stage into side `side` of compute stage st[ci]: `via`
  // is the pure stage's side facing st[ci], `far` its other side. With
  // `lane_safe`, the fold is tried in place and undone when it would
  // shrink st[ci]'s proven vector width. Returns whether it was kept,
  // and the position map its diagonal is read through.
  auto fold = [&](std::size_t ci, typename P::Map& side,
                  const typename P::Map& via, const typename P::Map& far,
                  bool lane_safe) {
    const typename P::Map pos = P::through(side, via);
    typename P::Map next = P::gather(far, pos);
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
  // Affine-compacted stages (normally produced only *after* fusion by
  // compact_affine) are left alone.
  auto compacted = [](const Stage& s) { return s.in_affine || s.out_affine; };

  auto try_level = [&](int level) -> bool {
    for (std::size_t i = 0; i + 1 < st.size(); ++i) {
      LoweredStage& left = st[i];
      LoweredStage& right = st[i + 1];
      if (compacted(left.stage) || compacted(right.stage)) continue;
      const auto total = static_cast<std::size_t>(left.stage.total_elems());
      const auto right_total =
          static_cast<std::size_t>(right.stage.total_elems());
      if ((level == 0 || level == 3) && left.stage.is_compute &&
          !right.stage.is_compute) {
        // right applies first: left now reads through right's maps.
        const auto [ok, pos] =
            fold(i, P::in(left.stage), P::out(right.stage),
                 P::in(right.stage), level == 0 && width(i) > 1);
        if (!ok) continue;
        P::scale_by(P::in_scale(left), P::in_scale(right), &pos, total);
        left.stage.label += " o " + right.stage.label;
        erase(i + 1);
        return true;
      }
      if ((level == 1 || level == 4) && !left.stage.is_compute &&
          right.stage.is_compute) {
        // left applies after: right now writes through left's maps.
        const auto [ok, pos] =
            fold(i + 1, P::out(right.stage), P::in(left.stage),
                 P::out(left.stage), level == 1 && width(i + 1) > 1);
        if (!ok) continue;
        P::scale_by(P::out_scale(right), P::in_scale(left), &pos, right_total);
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
        s.in_bit_encoded = s.out_bit_encoded = P::kBits;
        const typename P::Map pos =
            P::through(P::in(left.stage), P::out(right.stage));
        P::in(s) = P::gather(P::in(right.stage), pos);
        P::out(s) = std::move(P::out(left.stage));
        P::scale_by(P::in_scale(c), P::in_scale(left), nullptr, total);
        P::scale_by(P::in_scale(c), P::in_scale(right), &pos, total);
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

/// Turns a bit-encoded lowered stage into the table representation.
void tabulate(LoweredStage& ls) {
  Stage& s = ls.stage;
  const auto tab = [&s](const BitStrideMap& m) {
    std::vector<std::int32_t> t(static_cast<std::size_t>(s.total_elems()));
    for (std::size_t k = 0; k < t.size(); ++k) {
      t[k] = static_cast<std::int32_t>(m.at(static_cast<idx_t>(k)));
    }
    return t;
  };
  if (s.in_bit_encoded) {
    s.in_map = tab(s.in_bits);
    s.in_bits = {};
    s.in_bit_encoded = false;
  }
  if (s.out_bit_encoded) {
    s.out_map = tab(s.out_bits);
    s.out_bits = {};
    s.out_bit_encoded = false;
  }
  ls.stage = materialize_scales(std::move(ls));
  ls.in_diag = {};
  ls.out_diag = {};
}

}  // namespace

Stage materialize_scales(LoweredStage&& ls) {
  Stage s = std::move(ls.stage);
  if (!ls.in_diag.values.empty()) {
    s.in_scale = diag_table(std::move(ls.in_diag), total_bits(s));
  }
  if (!ls.out_diag.values.empty()) {
    s.out_scale = diag_table(std::move(ls.out_diag), total_bits(s));
  }
  return s;
}

int fuse_lowered(std::vector<LoweredStage>& stages) {
  // Bit path only when every fusable stage is a pair of bit permutations
  // (a complete 2-power program) with its diagonals still symbolic;
  // anything else is composed as tables.
  const bool bits = std::all_of(
      stages.begin(), stages.end(), [](const LoweredStage& ls) {
        const Stage& s = ls.stage;
        return s.in_affine || s.out_affine ||
               (s.in_bit_encoded && s.out_bit_encoded &&
                is_bit_permutation(s.in_bits) &&
                is_bit_permutation(s.out_bits) && s.in_scale.empty() &&
                s.out_scale.empty());
      });
  if (bits) return fuse_with<BitPath>(stages);
  for (auto& ls : stages) {
    if (!ls.stage.in_affine && !ls.stage.out_affine) tabulate(ls);
  }
  return fuse_with<TablePath>(stages);
}

int fuse(StageList& list) {
  std::vector<LoweredStage> lowered;
  lowered.reserve(list.stages.size());
  for (auto& s : list.stages) lowered.push_back({std::move(s), {}, {}});
  const int eliminated = fuse_lowered(lowered);
  list.stages.clear();
  for (auto& ls : lowered) {
    list.stages.push_back(materialize_scales(std::move(ls)));
  }
  return eliminated;
}

}  // namespace spiral::backend
