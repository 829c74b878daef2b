// Tests for the DFT codelets as the interpreter runs them: one-stage
// programs of one codelet, every size, sides strided and bit-permuted,
// scales on load and on store, against the direct-summation reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "backend/codelets.hpp"
#include "backend/program.hpp"
#include "test_helpers.hpp"

namespace spiral::backend {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

/// The side of one codelet of n = 2^strides.size() elements whose
/// element bit b moves the index by strides[b].
BitStrideMap side(std::vector<idx_t> strides) {
  return BitStrideMap(0, std::move(strides));
}

/// Element l of one codelet of n at index l.
BitStrideMap contiguous(idx_t n) {
  std::vector<idx_t> strides;
  for (idx_t s = 1; s < n; s *= 2) strides.push_back(s);
  return side(std::move(strides));
}

/// One DFT_n of the given sign reading through `in`, writing through
/// `out`.
Stage dft_stage(idx_t n, int sign, BitStrideMap in, BitStrideMap out) {
  Stage s;
  s.iters = 1;
  s.cn = n;
  s.sign = sign;
  s.is_compute = true;
  s.in_bits = std::move(in);
  s.out_bits = std::move(out);
  return s;
}

/// y = the one-stage program of `s` over x.size() elements (the
/// positions `s` does not write stay zero).
util::cvec run(const Stage& s, const util::cvec& x) {
  const auto size = static_cast<idx_t>(x.size());
  Program prog(StageList{size, {s}}, ExecPolicy::kSequential);
  util::cvec y(x.size(), cplx{0, 0});
  prog.execute(x.data(), y.data());
  return y;
}

/// y = DFT_n(x) of the given sign, both sides contiguous.
util::cvec dft(const util::cvec& x, int sign) {
  const auto n = static_cast<idx_t>(x.size());
  return run(dft_stage(n, sign, contiguous(n), contiguous(n)), x);
}

class CodeletSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(CodeletSizes, ForwardMatchesReference) {
  const idx_t n = GetParam();
  util::Rng rng(n);
  const auto x = rng.complex_signal(n);
  EXPECT_LT(max_diff(dft(x, -1), reference_dft(x, -1)), fft_tolerance(n))
      << "n=" << n;
}

TEST_P(CodeletSizes, InverseMatchesReference) {
  const idx_t n = GetParam();
  util::Rng rng(n + 1);
  const auto x = rng.complex_signal(n);
  EXPECT_LT(max_diff(dft(x, +1), reference_dft(x, +1)), fft_tolerance(n))
      << "n=" << n;
}

TEST_P(CodeletSizes, RoundTripRecoversInput) {
  const idx_t n = GetParam();
  util::Rng rng(2 * n);
  const auto x = rng.complex_signal(n);
  util::cvec back = dft(dft(x, -1), +1);
  for (auto& v : back) v /= static_cast<double>(n);
  EXPECT_LT(max_diff(back, x), fft_tolerance(n));
}

INSTANTIATE_TEST_SUITE_P(AllSizes, CodeletSizes,
                         ::testing::Values<idx_t>(1, 2, 4, 8, 16, 32, 64));

TEST(Codelets, StridedInput) {
  // Read every 3rd element of a larger buffer.
  const idx_t n = 8, stride = 3;
  util::Rng rng(5);
  const auto big = rng.complex_signal(n * stride);
  util::cvec packed(n);
  for (idx_t l = 0; l < n; ++l) packed[size_t(l)] = big[size_t(l * stride)];
  const auto y =
      run(dft_stage(n, -1, side({stride, 2 * stride, 4 * stride}),
                    contiguous(n)),
          big);
  const util::cvec head(y.begin(), y.begin() + n);
  EXPECT_LT(max_diff(head, dft(packed, -1)), 1e-14);
}

TEST(Codelets, StridedOutput) {
  const idx_t n = 4, stride = 5;
  util::Rng rng(6);
  const auto x = rng.complex_signal(n);
  util::cvec padded(n * stride, cplx{0, 0});
  std::copy(x.begin(), x.end(), padded.begin());
  const auto y =
      run(dft_stage(n, -1, contiguous(n), side({stride, 2 * stride})),
          padded);
  const auto ref = reference_dft(x);
  for (idx_t l = 0; l < n; ++l) {
    EXPECT_LT(std::abs(y[size_t(l * stride)] - ref[size_t(l)]), 1e-13);
  }
}

TEST(Codelets, BitPermutedGatherScatter) {
  // Bit-reversed gather, bit-rotated scatter: element l is read from
  // rev(l) and written to rot(l), rot moving bit 0 to bit 1, bit 1 to
  // bit 2 and bit 2 to bit 0.
  const idx_t n = 8;
  util::Rng rng(7);
  const auto x = rng.complex_signal(n);
  const auto y = run(dft_stage(n, -1, side({4, 2, 1}), side({2, 4, 1})), x);
  auto rev = [](idx_t l) { return (l & 1) * 4 + (l & 2) + (l >> 2); };
  auto rot = [](idx_t l) { return (l & 1) * 2 + (l & 2) * 2 + (l >> 2); };
  util::cvec xr(n);
  for (idx_t l = 0; l < n; ++l) xr[size_t(l)] = x[size_t(rev(l))];
  const auto ref = reference_dft(xr);
  for (idx_t l = 0; l < n; ++l) {
    EXPECT_LT(std::abs(y[size_t(rot(l))] - ref[size_t(l)]), 1e-13);
  }
}

TEST(Codelets, InputScaleIsAppliedBeforeTransform) {
  const idx_t n = 4;
  util::Rng rng(8);
  const auto x = rng.complex_signal(n);
  const auto d = rng.complex_signal(n);
  util::cvec scaled(n);
  for (idx_t l = 0; l < n; ++l) scaled[size_t(l)] = x[size_t(l)] * d[size_t(l)];
  Stage s = dft_stage(n, -1, contiguous(n), contiguous(n));
  s.in_scale = StageScale(d);
  EXPECT_LT(max_diff(run(s, x), reference_dft(scaled)), 1e-13);
}

TEST(Codelets, OutputScaleIsAppliedAfterTransform) {
  const idx_t n = 4;
  util::Rng rng(9);
  const auto x = rng.complex_signal(n);
  const auto d = rng.complex_signal(n);
  Stage s = dft_stage(n, -1, contiguous(n), contiguous(n));
  s.out_scale = StageScale(d);
  auto ref = reference_dft(x);
  for (idx_t l = 0; l < n; ++l) ref[size_t(l)] *= d[size_t(l)];
  EXPECT_LT(max_diff(run(s, x), ref), 1e-13);
}

TEST(Codelets, FlopCountMonotoneAndPositive) {
  double prev = 0.0;
  for (idx_t n : {2, 4, 8, 16, 32}) {
    const double f = codelet_flops(n);
    EXPECT_GT(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(codelet_flops(1), 0.0);
}

}  // namespace
}  // namespace spiral::backend
