// Tests for the SIMD codelet layer (backend/simd): lane-batched vector
// drivers selected per stage from the proven VecForm shapes, with the
// scalar interpreter as both the fallback and the parity oracle. The
// whole suite also runs under SPIRAL_SIMD=OFF (ctest leg
// test_simd_forced_off), where every assertion must hold with the
// drivers disabled — parity trivially, activation checks via the guard.
#include <gtest/gtest.h>

#include <cstdint>

#include "backend/codelets.hpp"
#include "backend/program.hpp"
#include "backend/simd.hpp"
#include "backend/vectorize.hpp"
#include "core/spiral_fft.hpp"
#include "test_helpers.hpp"
#include "util/aligned_vector.hpp"

namespace spiral::backend {
namespace {

using core::PlannerOptions;
using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

bool host_has_simd() { return simd::detect_isa() != simd::Isa::kScalar; }

util::cvec random_signal(idx_t n, std::uint64_t salt) {
  util::Rng rng(util::kDefaultSeed ^ salt);
  return rng.complex_signal(n);
}

/// Executes the plan's stage list through the scalar interpreter (no
/// enable_simd), giving a same-program scalar oracle without a second
/// planner run.
util::cvec scalar_oracle(const core::FftPlan& plan, const util::cvec& x) {
  Program prog(plan.stages(), ExecPolicy::kThreadPool);
  EXPECT_FALSE(prog.simd_active());
  util::cvec y(x.size());
  prog.execute(x.data(), y.data());
  return y;
}

// The tentpole acceptance sweep: scalar vs SIMD parity over
// 2^4..2^16 x p in {1,2,4} x nu in {2,4}, on the identical stage list.
TEST(Simd, ParitySweepDft) {
  for (int k = 4; k <= 16; ++k) {
    const idx_t n = idx_t{1} << k;
    for (int p : {1, 2, 4}) {
      for (idx_t nu : {idx_t{2}, idx_t{4}}) {
        PlannerOptions o;
        o.threads = p;
        o.vector_nu = nu;
        const auto plan = core::plan_dft(n, o);
        const util::cvec x = random_signal(n, n * 31 + p * 7 + nu);
        const util::cvec want = scalar_oracle(*plan, x);
        util::cvec got(x.size());
        plan->execute(x.data(), got.data());
        EXPECT_LE(max_diff(got, want), fft_tolerance(n))
            << "n=" << n << " p=" << p << " nu=" << nu;
        if (n <= (idx_t{1} << 10)) {
          EXPECT_LE(max_diff(got, reference_dft(x)), fft_tolerance(n))
              << "n=" << n << " p=" << p << " nu=" << nu;
        }
      }
    }
  }
}

TEST(Simd, ParityWht) {
  for (idx_t n : {idx_t{64}, idx_t{1024}, idx_t{4096}}) {
    for (idx_t nu : {idx_t{2}, idx_t{4}}) {
      PlannerOptions o;
      o.threads = 2;
      o.vector_nu = nu;
      const auto plan = core::plan_wht(n, o);
      const util::cvec x = random_signal(n, n ^ 0xabcd);
      const util::cvec want = scalar_oracle(*plan, x);
      util::cvec got(x.size());
      plan->execute(x.data(), got.data());
      EXPECT_LE(max_diff(got, want), fft_tolerance(n)) << "n=" << n;
    }
  }
}

// Vector drivers engage on real derivations whenever the host has any
// vector ISA: the sweep above must not be vacuously scalar-vs-scalar.
TEST(Simd, DriversEngageOnVectorPlans) {
  if (!host_has_simd()) GTEST_SKIP() << "no vector ISA on this host";
  PlannerOptions o;
  o.threads = 2;
  o.vector_nu = 4;
  const auto plan = core::plan_dft(4096, o);
  Program prog(plan->stages(), ExecPolicy::kThreadPool);
  prog.enable_simd(4);
  ASSERT_TRUE(prog.simd_active());
  int active = 0;
  for (const auto& sp : prog.simd_plans()) {
    if (!sp.active) continue;
    ++active;
    EXPECT_GE(sp.width, 2);
    EXPECT_NE(sp.in_form, VecForm::kNone);
    EXPECT_NE(sp.out_form, VecForm::kNone);
    EXPECT_NE(sp.fn, nullptr);
  }
  EXPECT_GE(active, 2) << plan->describe();
}

// The n=4096 derivation proves the strided-lane shape (the L^{nu^2}_nu
// register-transpose base case) on at least one input side — the shape
// the mutation gate below relies on being exercised.
TEST(Simd, StridedLaneShapeOccurs) {
  if (!host_has_simd()) GTEST_SKIP() << "no vector ISA on this host";
  PlannerOptions o;
  o.vector_nu = 4;
  const auto plan = core::plan_dft(4096, o);
  bool strided = false;
  for (const auto& s : plan->stages().stages) {
    const auto sp = simd::plan_stage(s, 4, simd::detect_isa());
    strided = strided || (sp.active &&
                          (sp.in_form == VecForm::kStridedLanes ||
                           sp.out_form == VecForm::kStridedLanes));
  }
  EXPECT_TRUE(strided);
}

// Boundary at the codelet-size cap: a whole-transform single codelet
// (iters == 1) cannot batch lanes across iterations; cn above the table
// cap or non-2-power cn must refuse a plan before touching the maps.
TEST(Simd, CodeletBoundary) {
  PlannerOptions o;
  o.vector_nu = 4;
  const auto plan32 = core::plan_dft(32, o);
  Program p32(plan32->stages(), ExecPolicy::kSequential);
  p32.enable_simd(4);
  for (const auto& s : plan32->stages().stages) {
    if (s.is_compute && s.iters < 2) {
      EXPECT_FALSE(
          simd::plan_stage(s, 4, simd::Isa::kAvx2).active);
    }
  }

  // Synthetic ineligible codelet sizes: the gate must trip on cn alone.
  Stage s = plan32->stages().stages.front();
  s.cn = 33;  // kMaxCodeletSize + 1, not a 2-power
  EXPECT_FALSE(simd::plan_stage(s, 4, simd::Isa::kAvx2).active);
  s.cn = 128;  // 2-power but beyond the shared codelet-table cap
  EXPECT_FALSE(simd::plan_stage(s, 4, simd::Isa::kAvx2).active);

  if (host_has_simd()) {
    const auto plan64 = core::plan_dft(64, o);
    Program p64(plan64->stages(), ExecPolicy::kSequential);
    p64.enable_simd(4);
    EXPECT_TRUE(p64.simd_active());
  }
}

// Forced scalar dispatch: the test hook (and the SPIRAL_SIMD=off env
// override it models) must keep every plan on the scalar codelets.
TEST(Simd, ForcedScalarDispatch) {
  simd::set_isa_override(simd::Isa::kScalar);
  EXPECT_EQ(simd::detect_isa(), simd::Isa::kScalar);
  PlannerOptions o;
  o.threads = 2;
  o.vector_nu = 4;
  const auto plan = core::plan_dft(1024, o);
  Program prog(plan->stages(), ExecPolicy::kThreadPool);
  prog.enable_simd(4);
  EXPECT_FALSE(prog.simd_active());
  const util::cvec x = random_signal(1024, 77);
  util::cvec y(x.size());
  plan->execute(x.data(), y.data());
  simd::clear_isa_override();
  EXPECT_LE(max_diff(y, reference_dft(x)), fft_tolerance(1024));
}

// The ISA override clamps to the host: requesting a stronger ISA than
// the machine has must never dispatch unsupported instructions.
TEST(Simd, IsaOverrideClampsToHost) {
  const simd::Isa host = simd::detect_isa();
  simd::set_isa_override(simd::Isa::kAvx512);
  EXPECT_LE(static_cast<int>(simd::detect_isa()), static_cast<int>(host));
  simd::clear_isa_override();
  EXPECT_EQ(simd::detect_isa(), host);
}

// Signal buffers and the pre-split scale tables must be aligned for
// 512-bit vector loads (the static_asserts in util/aligned_vector.hpp
// back this at compile time; this checks the allocator at runtime).
TEST(Simd, BufferAlignment) {
  static_assert(util::kBufferAlignment >= 64);
  for (idx_t n : {idx_t{2}, idx_t{33}, idx_t{4096}}) {
    util::cvec c(n);
    util::dvec d(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(c.data()) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d.data()) % 64, 0u);
  }
}

// Scalar and vector codelets read the same twiddle tables: the accessor
// must hand out exactly the process-lifetime tables pow2_tables builds.
TEST(Simd, CodeletTablesShared) {
  const CodeletTables t = codelet_tables(16, -1);
  ASSERT_NE(t.bitrev, nullptr);
  for (int st = 0; st < 4; ++st) ASSERT_NE(t.stage_tw[st], nullptr);
  // Same pointers on re-query: tables are shared, not rebuilt.
  const CodeletTables t2 = codelet_tables(16, -1);
  EXPECT_EQ(t.bitrev, t2.bitrev);
  EXPECT_EQ(t.stage_tw[0], t2.stage_tw[0]);
}

// Mutation detectability: mis-reporting a strided-lane stage as
// contiguous must change executed values (the drivers address lanes by
// the recorded form, not by re-deriving it), so the lint
// execution-parity gate catches the defect.
TEST(Simd, VecformMutationIsDetectable) {
  if (!host_has_simd()) GTEST_SKIP() << "no vector ISA on this host";
  PlannerOptions o;
  o.vector_nu = 4;
  const auto plan = core::plan_dft(4096, o);
  const util::cvec x = random_signal(4096, 4096);
  const util::cvec want = scalar_oracle(*plan, x);

  simd::set_vecform_mutation(true);
  Program mut(plan->stages(), ExecPolicy::kSequential);
  mut.enable_simd(4);
  simd::set_vecform_mutation(false);
  ASSERT_TRUE(mut.simd_active());
  util::cvec got(x.size());
  mut.execute(x.data(), got.data());
  EXPECT_GT(max_diff(got, want), 1e-6);
}

}  // namespace
}  // namespace spiral::backend
