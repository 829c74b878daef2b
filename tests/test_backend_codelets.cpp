// Tests for the DFT codelets: every size, every addressing mode
// (strided, mapped, scaled), against the direct-summation reference.
#include <gtest/gtest.h>

#include <numeric>

#include "backend/codelets.hpp"
#include "test_helpers.hpp"

namespace spiral::backend {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

class CodeletSizes : public ::testing::TestWithParam<idx_t> {};

TEST_P(CodeletSizes, ForwardMatchesReference) {
  const idx_t n = GetParam();
  util::Rng rng(n);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  CodeletIo io;
  io.x = x.data();
  io.y = y.data();
  dft_codelet(n, -1, io);
  EXPECT_LT(max_diff(y, reference_dft(x, -1)), fft_tolerance(n)) << "n=" << n;
}

TEST_P(CodeletSizes, InverseMatchesReference) {
  const idx_t n = GetParam();
  util::Rng rng(n + 1);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  CodeletIo io;
  io.x = x.data();
  io.y = y.data();
  dft_codelet(n, +1, io);
  EXPECT_LT(max_diff(y, reference_dft(x, +1)), fft_tolerance(n)) << "n=" << n;
}

TEST_P(CodeletSizes, RoundTripRecoversInput) {
  const idx_t n = GetParam();
  util::Rng rng(2 * n);
  const auto x = rng.complex_signal(n);
  util::cvec mid(x.size()), back(x.size());
  CodeletIo fwd;
  fwd.x = x.data();
  fwd.y = mid.data();
  dft_codelet(n, -1, fwd);
  CodeletIo inv;
  inv.x = mid.data();
  inv.y = back.data();
  dft_codelet(n, +1, inv);
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
  util::cvec y(n), y_ref(n);
  CodeletIo io;
  io.x = big.data();
  io.in_stride = stride;
  io.y = y.data();
  dft_codelet(n, -1, io);
  CodeletIo io_ref;
  io_ref.x = packed.data();
  io_ref.y = y_ref.data();
  dft_codelet(n, -1, io_ref);
  EXPECT_LT(max_diff(y, y_ref), 1e-14);
}

TEST(Codelets, StridedOutput) {
  const idx_t n = 4, stride = 5;
  util::Rng rng(6);
  const auto x = rng.complex_signal(n);
  util::cvec y(n * stride, cplx{0, 0});
  CodeletIo io;
  io.x = x.data();
  io.y = y.data();
  io.out_stride = stride;
  dft_codelet(n, -1, io);
  const auto ref = reference_dft(x);
  for (idx_t l = 0; l < n; ++l) {
    EXPECT_LT(std::abs(y[size_t(l * stride)] - ref[size_t(l)]), 1e-13);
  }
}

TEST(Codelets, MappedGatherScatter) {
  const idx_t n = 8;
  util::Rng rng(7);
  const auto x = rng.complex_signal(n);
  // Reverse gather, shifted scatter.
  std::vector<std::int32_t> in_map(n), out_map(n);
  for (idx_t l = 0; l < n; ++l) {
    in_map[size_t(l)] = static_cast<std::int32_t>(n - 1 - l);
    out_map[size_t(l)] = static_cast<std::int32_t>((l + 3) % n);
  }
  util::cvec y(n);
  CodeletIo io;
  io.x = x.data();
  io.y = y.data();
  io.in_map = in_map.data();
  io.out_map = out_map.data();
  dft_codelet(n, -1, io);
  util::cvec xr(n);
  for (idx_t l = 0; l < n; ++l) xr[size_t(l)] = x[size_t(n - 1 - l)];
  const auto ref = reference_dft(xr);
  for (idx_t l = 0; l < n; ++l) {
    EXPECT_LT(std::abs(y[size_t((l + 3) % n)] - ref[size_t(l)]), 1e-13);
  }
}

TEST(Codelets, InputScaleIsAppliedBeforeTransform) {
  const idx_t n = 4;
  util::Rng rng(8);
  const auto x = rng.complex_signal(n);
  const auto d = rng.complex_signal(n);
  util::cvec scaled(n);
  for (idx_t l = 0; l < n; ++l) scaled[size_t(l)] = x[size_t(l)] * d[size_t(l)];
  util::cvec y(n);
  CodeletIo io;
  io.x = x.data();
  io.y = y.data();
  io.in_scale = d.data();
  dft_codelet(n, -1, io);
  EXPECT_LT(max_diff(y, reference_dft(scaled)), 1e-13);
}

TEST(Codelets, OutputScaleIsAppliedAfterTransform) {
  const idx_t n = 4;
  util::Rng rng(9);
  const auto x = rng.complex_signal(n);
  const auto d = rng.complex_signal(n);
  util::cvec y(n);
  CodeletIo io;
  io.x = x.data();
  io.y = y.data();
  io.out_scale = d.data();
  dft_codelet(n, -1, io);
  auto ref = reference_dft(x);
  for (idx_t l = 0; l < n; ++l) ref[size_t(l)] *= d[size_t(l)];
  EXPECT_LT(max_diff(y, ref), 1e-13);
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
