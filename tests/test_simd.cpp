// Tests for the SIMD codelet layer (backend/simd): one lane-batched
// stage driver, run per stage at the width its proven VecForm shapes
// allow, at one lane (the scalar program) where none proves, with a
// same-program parity oracle. Every width expands one template
// (codelet_template.hpp), so every result is also checked against
// references that share no code with it: the radix-2 baseline, direct
// sums, and long-double transforms. The whole suite also runs under
// SPIRAL_SIMD=OFF (ctest leg test_simd_forced_off), where every
// assertion must hold with only the one-lane drivers — parity
// trivially, activation checks via the guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "backend/program.hpp"
#include "backend/simd.hpp"
#include "backend/vectorize.hpp"
#include "baselines/fft_iterative.hpp"
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

/// Executes the plan's stage list at one lane (no enable_simd), giving a
/// same-program scalar oracle without a second planner run.
util::cvec scalar_oracle(const core::FftPlan& plan, const util::cvec& x) {
  Program prog(plan.stages(), ExecPolicy::kThreadPool);
  EXPECT_FALSE(prog.simd_active());
  util::cvec y(x.size());
  prog.execute(x.data(), y.data());
  return y;
}

// Scalar vs SIMD parity over 2^4..2^16 x p in {1,2,4} x nu in {2,4,8},
// on the identical stage list (nu = 8 is where the W = 8 bodies run),
// and every output against the radix-2 baseline.
TEST(Simd, ParitySweepDft) {
  for (int k = 4; k <= 16; ++k) {
    const idx_t n = idx_t{1} << k;
    for (int p : {1, 2, 4}) {
      for (idx_t nu : {idx_t{2}, idx_t{4}, idx_t{8}}) {
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
        EXPECT_LE(max_diff(got, baselines::fft_iterative(x)), fft_tolerance(n))
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
    const util::cvec x = random_signal(n, n ^ 0xabcd);
    const auto hadamard = spiral::testing::reference_wht_ld(x);
    for (idx_t nu : {idx_t{2}, idx_t{4}, idx_t{8}}) {
      PlannerOptions o;
      o.threads = 2;
      o.vector_nu = nu;
      const auto plan = core::plan_wht(n, o);
      const util::cvec want = scalar_oracle(*plan, x);
      util::cvec got(x.size());
      plan->execute(x.data(), got.data());
      EXPECT_LE(max_diff(got, want), fft_tolerance(n)) << "n=" << n;
      EXPECT_LE(spiral::testing::rel_l2(got, hadamard),
                util::log2_exact(n) * spiral::testing::kUnitRoundoff)
          << "n=" << n << " nu=" << nu;
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
  for (const auto& sp : prog.stage_plans()) {
    EXPECT_NE(sp.edge_fn, nullptr);
    if (sp.width == 1) continue;
    ++active;
    EXPECT_NE(sp.in_form, VecForm::kNone);
    EXPECT_NE(sp.out_form, VecForm::kNone);
    EXPECT_NE(sp.fn, nullptr);
  }
  EXPECT_GE(active, 2) << plan->describe();
}

// The n=4096 derivation at leaf 32 (64 x 64 splits its DFT_64s as 8 x 8)
// proves the strided-lane shape (the L^{nu^2}_nu register-transpose base
// case) on at least one input side — the shape the mutation gate below
// relies on being exercised. At the default leaf 4096 is 64 x 64: two
// codelet stages with contiguous lanes only.
TEST(Simd, StridedLaneShapeOccurs) {
  if (!host_has_simd()) GTEST_SKIP() << "no vector ISA on this host";
  PlannerOptions o;
  o.vector_nu = 4;
  o.leaf = 32;
  const auto plan = core::plan_dft(4096, o);
  bool strided = false;
  for (const auto& s : plan->stages().stages) {
    const auto sp = simd::plan_stage(s, 4, simd::detect_isa());
    strided = strided || (sp.width > 1 &&
                          (sp.in_form == VecForm::kStridedLanes ||
                           sp.out_form == VecForm::kStridedLanes));
  }
  EXPECT_TRUE(strided);
}

// Boundary at the codelet-size cap: a whole-transform single codelet
// (iters == 1) cannot batch lanes across iterations and stays at one
// lane; cn above 64 or non-2-power cn has no driver at any width, and
// a program over such a stage is refused.
TEST(Simd, CodeletBoundary) {
  PlannerOptions o;
  o.vector_nu = 4;
  const auto plan32 = core::plan_dft(32, o);
  Program p32(plan32->stages(), ExecPolicy::kSequential);
  p32.enable_simd(4);
  for (const auto& s : plan32->stages().stages) {
    if (s.is_compute && s.iters < 2) {
      EXPECT_EQ(simd::plan_stage(s, 4, simd::Isa::kAvx2).width, 1);
    }
  }

  // Synthetic ineligible codelet sizes: the gate must trip on cn alone.
  Stage s = plan32->stages().stages.front();
  s.cn = 33;  // kMaxCodeletSize + 1, not a 2-power
  EXPECT_EQ(simd::plan_stage(s, 4, simd::Isa::kAvx2).fn, nullptr);
  s.cn = 128;  // 2-power but beyond the largest codelet
  EXPECT_EQ(simd::plan_stage(s, 4, simd::Isa::kAvx2).fn, nullptr);
  EXPECT_THROW(Program(StageList{32, {s}}, ExecPolicy::kSequential),
               std::invalid_argument);

  if (host_has_simd()) {
    const auto plan64 = core::plan_dft(64, o);
    Program p64(plan64->stages(), ExecPolicy::kSequential);
    p64.enable_simd(4);
    EXPECT_TRUE(p64.simd_active());
  }
}

// Every driver instantiation — codelet sizes 2..64 x (forward DFT,
// inverse DFT, WHT) x each width a variant TU holds, the generic TU's
// one-lane drivers included — in every TU the host can dispatch, run on
// one pack and checked lane by lane against long-double references
// (radix-2 DFT, Hadamard sum) within 2 log2(cn) u.
TEST(Simd, EveryCodeletInstantiation) {
  if (!host_has_simd()) GTEST_SKIP() << "no vector ISA on this host";
  const simd::Isa isa = simd::detect_isa();
  struct Variant {
    const char* name;
    simd::Isa needs;
    simd::PackFn (*resolve)(idx_t, idx_t, int);
  };
  const Variant variants[] = {
      {"generic", simd::Isa::kVec128, &simd::pack_fn_generic},
      {"avx2", simd::Isa::kAvx2, &simd::pack_fn_avx2},
      {"avx512", simd::Isa::kAvx512, &simd::pack_fn_avx512}};
  int ran = 0;
  for (const Variant& v : variants) {
    if (static_cast<int>(isa) < static_cast<int>(v.needs)) continue;
    for (idx_t w : {idx_t{1}, idx_t{2}, idx_t{4}, idx_t{8}}) {
      for (int c = 1; c <= 6; ++c) {
        const idx_t cn = idx_t{1} << c;
        for (int kind : {-1, 1, 0}) {
          const simd::PackFn fn = v.resolve(w, cn, kind);
          // The detected tier's TU holds every width from 2 up to its
          // own; the generic TU alone holds width 1.
          if (w == 1 ? v.needs == simd::Isa::kVec128
                     : v.needs == isa && w <= simd::isa_width(isa)) {
            EXPECT_NE(fn, nullptr) << v.name << " W=" << w << " cn=" << cn;
          }
          if (fn == nullptr) continue;
          // One pack: lane `it` of element l sits at l*w + it on both
          // sides, the contiguous-lane form.
          const int lw = util::log2_exact(w);
          std::vector<idx_t> strides;
          for (int b = 0; b < c; ++b) strides.push_back(w << b);
          for (int b = 0; b < lw; ++b) strides.push_back(idx_t{1} << b);
          Stage s;
          s.iters = w;
          s.cn = cn;
          s.is_compute = true;
          s.wht = kind == 0;
          s.sign = kind == 0 ? -1 : kind;
          s.in_bits = BitStrideMap(0, strides);
          s.out_bits = s.in_bits;
          simd::StagePlan plan;
          plan.width = w;
          plan.in_form = VecForm::kAcrossIterations;
          plan.out_form = VecForm::kAcrossIterations;
          plan.fn = fn;
          const util::cvec x = random_signal(w * cn, cn * 131 + w + kind);
          util::cvec y(x.size());
          fn(s, s.in_bits, s.out_bits, plan, x.data(), y.data(), 0, w);
          for (idx_t it = 0; it < w; ++it) {
            util::cvec lane_x(cn), lane_y(cn);
            for (idx_t l = 0; l < cn; ++l) {
              lane_x[l] = x[l * w + it];
              lane_y[l] = y[l * w + it];
            }
            const auto want = kind == 0
                                  ? spiral::testing::reference_wht_ld(lane_x)
                                  : spiral::testing::reference_fft_ld(
                                        lane_x, kind);
            EXPECT_LE(spiral::testing::rel_l2(lane_y, want),
                      2 * c * spiral::testing::kUnitRoundoff)
                << v.name << " W=" << w << " cn=" << cn << " kind=" << kind
                << " lane=" << it;
          }
          ++ran;
        }
      }
    }
  }
  // The generic TU alone holds 6 sizes x 3 kinds at W = 1 and at W = 2.
  EXPECT_GE(ran, 36);
}

// Forced scalar dispatch: the test hook (and the SPIRAL_SIMD=off env
// override it models) must keep every plan at one lane.
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

/// True when a and b hold the same bytes.
bool same_bytes(const util::cvec& a, const util::cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// The scalar program is the pack driver at one lane: a stage list run
// at width 1 and the same list run at W = 2 from the generic TU give the
// same bytes. Both widths expand one codelet and scale in one order, and
// the generic TU has no FMA to contract into on x86-64, so any
// difference is an addressing or driver fault. Also covers a p = 4
// batch of 12 DFT_64s, whose 12-iteration stage splits into chunks of 3
// with unaligned bounds (one-lane head and tail around the packs), and a
// block-cyclic stage (sched_block = 1: every block is one iteration).
TEST(Simd, ScalarPathIsThePackDriverBitForBit) {
#if !defined(__x86_64__)
  GTEST_SKIP() << "bit identity across widths is an x86-64 property";
#else
  simd::set_isa_override(simd::Isa::kVec128);
  if (simd::detect_isa() != simd::Isa::kVec128) {
    simd::clear_isa_override();
    GTEST_SKIP() << "vector drivers forced off";
  }
  auto same_at_both_widths = [&](const StageList& list) {
    Program scalar(list, ExecPolicy::kThreadPool);
    Program vec(list, ExecPolicy::kThreadPool);
    vec.enable_simd(2);
    EXPECT_FALSE(scalar.simd_active());
    const util::cvec x = random_signal(list.n, list.n * 3);
    util::cvec want(x.size()), got(x.size());
    ExecContext a, b;
    scalar.execute(a, x.data(), want.data());
    vec.execute(b, x.data(), got.data());
    return vec.simd_active() && same_bytes(got, want);
  };
  for (int k = 4; k <= 18; ++k) {
    const idx_t n = idx_t{1} << k;
    for (int p : {1, 2, 4}) {
      for (idx_t nu : {idx_t{2}, idx_t{4}}) {
        PlannerOptions o;
        o.threads = p;
        o.vector_nu = nu;
        const StageList list = core::plan_dft(n, o)->stages();
        EXPECT_TRUE(same_at_both_widths(list))
            << "n=" << n << " p=" << p << " nu=" << nu;
      }
    }
  }
  PlannerOptions o;
  o.threads = 4;
  o.vector_nu = 2;
  const StageList batch = core::plan_batch_dft(64, 12, o)->stages();
  ASSERT_EQ(batch.stages.size(), 1u);
  ASSERT_EQ(batch.stages[0].parallel_p, 4);
  ASSERT_EQ(batch.stages[0].iters, 12);
  EXPECT_TRUE(same_at_both_widths(batch)) << "chunks of 3 iterations";
  StageList list = core::plan_dft(idx_t{1} << 12, o)->stages();
  auto parallel =
      std::find_if(list.stages.begin(), list.stages.end(),
                   [](const Stage& s) { return s.parallel_p > 1; });
  EXPECT_NE(parallel, list.stages.end());
  if (parallel != list.stages.end()) parallel->sched_block = 1;
  EXPECT_TRUE(same_at_both_widths(list)) << "sched_block = 1";
  simd::clear_isa_override();
#endif
}

// Mutation detectability: mis-reporting a strided-lane stage as
// contiguous must change executed values (the drivers address lanes by
// the recorded form, not by re-deriving it), so the lint
// execution-parity gate catches the defect.
TEST(Simd, VecformMutationIsDetectable) {
  if (!host_has_simd()) GTEST_SKIP() << "no vector ISA on this host";
  PlannerOptions o;
  o.vector_nu = 4;
  o.leaf = 32;  // the strided-lane plan of StridedLaneShapeOccurs
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
