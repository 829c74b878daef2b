// Numerical error against n: the relative L2 error of the planned DFT,
// measured against a long-double radix-2 reference for n = 2^4 ... 2^20
// (over 2^16 points per size: several independent signals below 2^16)
// on every execution path (the one-lane driver at nu = 0, W = 4 and
// W = 8 vector packs) at p = 1 and p = 4. A radix-2 FFT in floating point
// has a relative error of O(log2(n) * u), u = 2^-53; the gate holds the
// planned programs to 0.5 * log2(n) * u, which the loose fft_tolerance
// of the other suites (1e-10 scale) cannot see move.
//
// The per-path and per-size maxima, in units of log2(n) * u, are printed
// so a change to the codelets or the twiddles can quote them. From 2^18
// on, the plans store their largest twiddle diagonal as two factors
// (backend/fuse, kMaxScaleValues); the test asserts it, so the reference
// covers the factored path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "core/spiral_fft.hpp"
#include "test_helpers.hpp"

namespace spiral {
namespace {

using spiral::testing::kUnitRoundoff;

TEST(Accuracy, RelativeL2ErrorGrowsAtMostHalfLog2NUnits) {
  constexpr int kMinPoints = 1 << 16;  // per size, over independent signals
  std::map<idx_t, double> worst;       // nu -> max error / (log2(n) u)
  std::map<int, double> worst_n;       // log2(n) -> the same over paths
  for (int k = 4; k <= 20; ++k) {
    const idx_t n = idx_t{1} << k;
    const int trials = std::max(1, kMinPoints >> k);
    // All trials back to back: signal t is x[t*n, (t+1)*n).
    util::Rng rng(util::kDefaultSeed ^ static_cast<std::uint64_t>(n));
    const util::cvec x = rng.complex_signal(n * trials);
    std::vector<spiral::testing::cplx_ld> want;
    for (int t = 0; t < trials; ++t) {
      const util::cvec xt(x.begin() + t * n, x.begin() + (t + 1) * n);
      const auto wt = spiral::testing::reference_fft_ld(xt);
      want.insert(want.end(), wt.begin(), wt.end());
    }
    const double units = static_cast<double>(k) * kUnitRoundoff;
    for (idx_t nu : {idx_t{0}, idx_t{4}, idx_t{8}}) {
      for (int p : {1, 4}) {
        core::PlannerOptions o;
        o.threads = p;
        o.vector_nu = nu;
        const auto plan = core::plan_dft(n, o);
        std::size_t factors = 0;
        for (const auto& s : plan->stages().stages) {
          factors = std::max({factors, s.in_scale.factors().size(),
                              s.out_scale.factors().size()});
        }
        if (k >= 18) {
          EXPECT_EQ(factors, 2U) << "n=2^" << k << " nu=" << nu << " p=" << p;
        } else {
          EXPECT_LE(factors, 1U) << "n=2^" << k << " nu=" << nu << " p=" << p;
        }
        util::cvec y(x.size());
        for (int t = 0; t < trials; ++t) {
          plan->execute(x.data() + t * n, y.data() + t * n);
        }
        const double err = spiral::testing::rel_l2(y, want);
        EXPECT_LE(err, 0.5 * units)
            << "n=2^" << k << " nu=" << nu << " p=" << p << ": " << err;
        worst[nu] = std::max(worst[nu], err / units);
        worst_n[k] = std::max(worst_n[k], err / units);
      }
    }
  }
  for (const auto& [k, w] : worst_n) {
    std::printf("max relative L2 error, n=2^%d: %.3f log2(n) u\n", k, w);
  }
  for (const auto& [nu, w] : worst) {
    std::printf("max relative L2 error, nu=%lld: %.3f log2(n) u\n",
                static_cast<long long>(nu), w);
  }
}

}  // namespace
}  // namespace spiral
