#include "backend/stage.hpp"

#include <sstream>

#include "backend/codelets.hpp"

namespace spiral::backend {

BitStrideMap::BitStrideMap(idx_t base, std::vector<idx_t> strides,
                           idx_t outer_count, idx_t outer_stride)
    : base_(base),
      strides_(std::move(strides)),
      outer_count_(outer_count),
      outer_stride_(outer_count == 1 ? 0 : outer_stride) {
  util::require(base_ >= 0, "bit-stride map: negative base");
  util::require(outer_count_ >= 1 && outer_count_ % 2 == 1,
                "bit-stride map: the outer count must be odd");
  util::require(outer_stride_ >= 0, "bit-stride map: negative outer stride");
  idx_t top = base_ + (outer_count_ - 1) * outer_stride_;
  for (const idx_t s : strides_) {
    util::require(s >= 0, "bit-stride map: negative stride");
    top += s;
  }
  // Every table entry and every sum of a lo and a hi entry is at most the
  // largest reachable index, so this one check guards them all.
  checked_index(top);
  const int b = bits();
  lo_bits_ = b / 2;
  lo_mask_ = (idx_t{1} << lo_bits_) - 1;
  // Entry j = entry (j without its lowest set bit) + that bit's stride.
  auto fill = [this](std::vector<std::int32_t>& t, int first, int count,
                     idx_t start) {
    t.assign(std::size_t{1} << count, 0);
    t[0] = static_cast<std::int32_t>(start);
    for (std::size_t j = 1; j < t.size(); ++j) {
      const int low = __builtin_ctzll(j);
      t[j] = static_cast<std::int32_t>(
          t[j & (j - 1)] + strides_[static_cast<std::size_t>(first + low)]);
    }
  };
  fill(lo_, 0, lo_bits_, 0);
  fill(hi_, lo_bits_, b - lo_bits_, base_);
  // The outer digit repeats the high block, one outer stride further each.
  const std::size_t block = hi_.size();
  hi_.resize(block * static_cast<std::size_t>(outer_count_));
  for (std::size_t j = block; j < hi_.size(); ++j) {
    hi_[j] = static_cast<std::int32_t>(hi_[j - block] + outer_stride_);
  }
}

std::optional<AffineMap> BitStrideMap::affine(idx_t cn) const {
  util::require(cn >= 1 && positions() % cn == 0,
                "bit-stride map: the codelet size must divide the positions");
  // Digit d < B is position bit d, digit B the outer digit. The pattern
  // gives element digit d the stride elem_stride * 2^d and iteration
  // digit d the stride iter_stride * 2^(d - c): a 2-power cn = 2^c splits
  // the digits at c. An odd factor of cn splits no digit, so the pattern
  // must then be linear in k (the step from k = 2^d - 1 to 2^d never
  // crosses a codelet boundary and must add elem_stride): every digit is
  // an element digit and iter_stride = cn * elem_stride.
  const int b_all = bits();
  const int c = util::is_pow2(cn) ? util::log2_exact(cn) : b_all + 1;
  auto stride = [this, b_all](int d) {
    return d < b_all ? strides_[static_cast<std::size_t>(d)] : outer_stride_;
  };
  AffineMap a;
  a.base = base_;
  if (cn > 1) a.elem_stride = stride(0);
  if (positions() > cn) {
    a.iter_stride = c > b_all ? cn * a.elem_stride : stride(c);
  }
  const int digits = outer_count_ > 1 ? b_all + 1 : b_all;
  for (int d = 0; d < digits; ++d) {
    const idx_t want = d < c ? a.elem_stride << d : a.iter_stride << (d - c);
    if (stride(d) != want) return std::nullopt;
  }
  return a;
}

StageScale::Factor::Factor(util::dvec re, util::dvec im, BitStrideMap map)
    : map_(std::move(map)) {
  util::require(!re.empty() && re.size() == im.size(),
                "stage scale: needs as many real as imaginary parts");
  // The last position sets every bit: it reaches the largest index.
  util::require(map_.at(map_.positions() - 1) < static_cast<idx_t>(re.size()),
                "stage scale: the map indexes past the values");
  values_ =
      std::make_shared<const Values>(Values{std::move(re), std::move(im)});
}

StageScale::StageScale(util::dvec re, util::dvec im, BitStrideMap map) {
  factors_.emplace_back(std::move(re), std::move(im), std::move(map));
}

StageScale::StageScale(std::vector<Factor> factors)
    : factors_(std::move(factors)) {
  util::require(!factors_.empty() && factors_.size() <= kMaxScaleFactors,
                "stage scale: needs 1 to kMaxScaleFactors factors");
  for (const Factor& f : factors_) {
    util::require(f.map().positions() == positions(),
                  "stage scale: the factors cover different positions");
  }
}

StageScale::StageScale(const util::cvec& table) {
  if (table.empty()) return;
  util::dvec re, im;
  for (const cplx& z : table) {
    re.push_back(z.real());
    im.push_back(z.imag());
  }
  const auto n = static_cast<idx_t>(table.size());
  const int b = __builtin_ctzll(static_cast<unsigned long long>(n));
  std::vector<idx_t> st;
  for (int i = 0; i < b; ++i) st.push_back(idx_t{1} << i);
  *this = StageScale(std::move(re), std::move(im),
                     BitStrideMap(0, std::move(st), n >> b, idx_t{1} << b));
}

std::size_t StageScale::size() const noexcept {
  std::size_t n = 0;
  for (const Factor& f : factors_) n += f.size();
  return n;
}

util::cvec StageScale::expand() const {
  util::cvec t;
  for (idx_t k = 0; !empty() && k < positions(); ++k) t.push_back(at(k));
  return t;
}

double Stage::flops() const {
  double f = 0.0;
  if (is_compute) {
    f += static_cast<double>(iters) *
         (wht ? wht_codelet_flops(cn) : codelet_flops(cn));
  }
  if (!in_scale.empty()) f += 6.0 * static_cast<double>(total_elems());
  if (!out_scale.empty()) f += 6.0 * static_cast<double>(total_elems());
  return f;
}

double StageList::flops() const {
  double f = 0.0;
  for (const auto& s : stages) f += s.flops();
  return f;
}

std::string StageList::summary() const {
  std::ostringstream os;
  os << "program for n=" << n << ", " << stages.size() << " stage(s):\n";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stage& s = stages[i];
    os << "  [" << i << "] " << (s.is_compute ? "DFT_" : "data cn=")
       << s.cn << " x" << s.iters;
    if (s.parallel_p > 0) os << " par=" << s.parallel_p;
    if (!s.in_scale.empty()) os << " +in_scale";
    if (!s.out_scale.empty()) os << " +out_scale";
    os << "  " << s.label << "\n";
  }
  return os.str();
}

}  // namespace spiral::backend
