#include "backend/vectorize.hpp"

namespace spiral::backend {

const char* to_string(VecForm f) {
  switch (f) {
    case VecForm::kNone: return "none";
    case VecForm::kAcrossIterations: return "across-iterations";
    case VecForm::kWithinCodelet: return "within-codelet";
    case VecForm::kStridedLanes: return "strided-lanes(shuffle)";
  }
  return "?";
}

namespace {

/// Checks the lane-structured shape on one int32 table (given as a flat
/// accessor k -> index; only rebuilt programs carry tables, lowered sides
/// take the bit-stride proof below): for every nu-pack of iterations, lane v
/// reads/writes address(lane 0) + v*lane_stride, with lane 0 nu-aligned.
/// lane_stride == 1 is the plain A (x) I_nu shape; lane_stride == nu is
/// the fused in-register-transpose shape.
template <class MapFn>
bool across_iterations_ok(const MapFn& map, idx_t iters, idx_t cn, idx_t nu,
                          idx_t lane_stride) {
  if (iters % nu != 0) return false;
  for (idx_t it = 0; it < iters; it += nu) {
    for (idx_t l = 0; l < cn; ++l) {
      const idx_t base = map(it * cn + l);
      // lane_stride == 1 (plain A (x) I_nu): the pack itself must be one
      // aligned vector. lane_stride == nu (register-transpose shape): the
      // lanes hit the same offset of nu consecutive aligned vectors —
      // any intra-vector base offset works (neighbouring packs fill the
      // remaining offsets of the nu x nu tile).
      if (lane_stride == 1 && base % nu != 0) return false;
      for (idx_t v = 1; v < nu; ++v) {
        if (map((it + v) * cn + l) != base + v * lane_stride) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Checks the aligned-contiguous-runs shape on one map: each codelet's cn
/// addresses split into cn/nu runs of nu consecutive aligned elements.
template <class MapFn>
bool within_codelet_ok(const MapFn& map, idx_t iters, idx_t cn, idx_t nu) {
  if (cn % nu != 0) return false;
  for (idx_t it = 0; it < iters; ++it) {
    for (idx_t g = 0; g < cn; g += nu) {
      const idx_t base = map(it * cn + g);
      if (base % nu != 0) return false;
      for (idx_t v = 1; v < nu; ++v) {
        if (map(it * cn + g + v) != base + v) return false;
      }
    }
  }
  return true;
}

/// One-map shape check shared by the combined and per-side analyses:
/// tries the forms in cost order (plain lanes, aligned runs, shuffle
/// lanes) and reports the first that holds at width nu.
template <class MapFn>
VecForm one_map_form(const MapFn& map, idx_t iters, idx_t cn, idx_t nu) {
  if (across_iterations_ok(map, iters, cn, nu, 1)) {
    return VecForm::kAcrossIterations;
  }
  if (within_codelet_ok(map, iters, cn, nu)) {
    return VecForm::kWithinCodelet;
  }
  if (across_iterations_ok(map, iters, cn, nu, nu)) {
    return VecForm::kStridedLanes;
  }
  return VecForm::kNone;
}

/// The same forms on a bit-stride side, proven on its strides in
/// O(log n) with exactly the table check's verdict. The nu lanes of a
/// pack occupy log2(nu) consecutive position bits from `first` (the
/// iteration bits for the across-iterations shapes, the element bits
/// for within-codelet), so lane v sits v * lane_stride from lane 0 iff
/// those bits carry strides lane_stride * 2^j; lane 0 is nu-aligned for
/// every pack iff the base, all other strides and the outer stride are
/// multiples of nu. The outer count is odd, so when nu divides the
/// iteration count a pack never spans the outer digit.
bool bit_lanes_ok(const BitStrideMap& m, int first, int w, idx_t lane_stride,
                  bool aligned) {
  const auto& st = m.strides();
  const idx_t nu = idx_t{1} << w;
  if (first + w > m.bits()) return false;
  for (int j = 0; j < w; ++j) {
    if (st[static_cast<std::size_t>(first + j)] != lane_stride << j) {
      return false;
    }
  }
  if (!aligned) return true;
  if (m.base() % nu != 0 || m.outer_stride() % nu != 0) return false;
  for (int b = 0; b < m.bits(); ++b) {
    if ((b < first || b >= first + w) &&
        st[static_cast<std::size_t>(b)] % nu != 0) {
      return false;
    }
  }
  return true;
}

VecForm bit_map_form(const BitStrideMap& m, idx_t cn, idx_t nu) {
  const int c = util::log2_exact(cn);
  const int w = util::log2_exact(nu);
  if (bit_lanes_ok(m, c, w, 1, true)) return VecForm::kAcrossIterations;
  if (w <= c && bit_lanes_ok(m, 0, w, 1, true)) return VecForm::kWithinCodelet;
  if (bit_lanes_ok(m, c, w, nu, false)) return VecForm::kStridedLanes;
  return VecForm::kNone;
}

/// Shape of one side of a stage at width nu: proven on its bit-stride
/// map, or walked entry by entry on a table.
VecForm side_form(const Stage& s, bool input, idx_t nu) {
  const auto& table = input ? s.in_map : s.out_map;
  if (table.empty()) {
    return bit_map_form(input ? s.in_bits : s.out_bits, s.cn, nu);
  }
  return one_map_form(
      [&table](idx_t k) { return idx_t{table[static_cast<std::size_t>(k)]}; },
      s.iters, s.cn, nu);
}

}  // namespace

VecInfo stage_vector_info(const Stage& s, idx_t max_nu) {
  util::require(util::is_pow2(max_nu), "vector width must be a 2-power");
  for (idx_t nu = max_nu; nu >= 2; nu /= 2) {
    const VecForm fin = side_form(s, true, nu);
    const VecForm fout =
        (fin == VecForm::kNone) ? VecForm::kNone : side_form(s, false, nu);
    if (fin != VecForm::kNone && fout != VecForm::kNone) {
      // Report the "weakest" of the two forms (shuffles dominate cost).
      VecForm form = fin;
      if (fout == VecForm::kStridedLanes || fin == VecForm::kStridedLanes) {
        form = VecForm::kStridedLanes;
      } else if (fin != fout) {
        form = VecForm::kWithinCodelet;
      }
      return {form, nu};
    }
  }
  return {VecForm::kNone, 1};
}

SideVecInfo stage_vector_sides(const Stage& s, idx_t max_nu) {
  util::require(util::is_pow2(max_nu), "vector width must be a 2-power");
  for (idx_t nu = max_nu; nu >= 2; nu /= 2) {
    const VecForm fin = side_form(s, true, nu);
    if (fin == VecForm::kNone) continue;
    const VecForm fout = side_form(s, false, nu);
    if (fout == VecForm::kNone) continue;
    return {fin, fout, nu};
  }
  return {};
}

std::vector<VecInfo> program_vector_info(const StageList& list,
                                         idx_t max_nu) {
  std::vector<VecInfo> out;
  out.reserve(list.stages.size());
  for (const auto& s : list.stages) {
    out.push_back(stage_vector_info(s, max_nu));
  }
  return out;
}

bool fully_vectorizable(const StageList& list, idx_t nu) {
  for (const auto& s : list.stages) {
    if (stage_vector_info(s, nu).width < nu) return false;
  }
  return true;
}

}  // namespace spiral::backend
