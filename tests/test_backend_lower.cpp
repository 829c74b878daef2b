// Tests for lowering and loop-merging: every lowered (and fused) program
// must compute the same matrix as the formula it came from, and fusion
// must actually eliminate the data passes.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdio>
#include <numbers>

#include "analysis/verify.hpp"
#include "backend/fuse.hpp"
#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "spl/printer.hpp"
#include "spl/twiddle.hpp"
#include "test_helpers.hpp"

namespace spiral::backend {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spl::Builder;
using spl::DFT;
using spl::I;
using spl::Kind;
using spl::L;
using spl::Tw;

/// Executes a stage list sequentially and compares with dense semantics.
void expect_program_matches_formula(const spl::FormulaPtr& f,
                                    const StageList& list,
                                    std::uint64_t seed = 1) {
  ASSERT_EQ(list.n, f->size);
  util::Rng rng(seed);
  const auto x = rng.complex_signal(f->size);
  util::cvec y(x.size());
  Program prog(list, ExecPolicy::kSequential);
  prog.execute(x.data(), y.data());
  const auto ref = spl::to_dense(f).apply(x);
  EXPECT_LT(max_diff(y, ref), fft_tolerance(f->size))
      << "formula: " << spl::to_string(f) << "\n" << list.summary();
}

TEST(Normalize, PullsComposeOutOfTensor) {
  auto f = Builder::tensor(Builder::compose({DFT(2), Tw(2, 1, -1)}), I(4));
  auto g = normalize(f);
  EXPECT_EQ(g->kind, Kind::kCompose);
  for (const auto& c : g->children) EXPECT_EQ(c->kind, Kind::kTensor);
  spiral::testing::expect_same_matrix(f, g);
}

TEST(Normalize, SplitsGeneralTensor) {
  auto f = Builder::tensor(DFT(2), DFT(4));
  auto g = normalize(f);
  EXPECT_EQ(g->kind, Kind::kCompose);
  spiral::testing::expect_same_matrix(f, g);
}

TEST(Normalize, DistributesOverTensorPar) {
  auto f = Builder::tensor_par(2, Builder::compose({DFT(4), Tw(2, 2)}));
  auto g = normalize(f);
  EXPECT_EQ(g->kind, Kind::kCompose);
  for (const auto& c : g->children) EXPECT_EQ(c->kind, Kind::kTensorPar);
  spiral::testing::expect_same_matrix(f, g);
}

TEST(Lower, PlainCodeletLeaf) {
  auto f = DFT(8);
  expect_program_matches_formula(f, lower(f));
}

TEST(Lower, IdentityBecomesCopy) {
  auto f = I(16);
  auto list = lower(f);
  ASSERT_EQ(list.stages.size(), 1u);
  EXPECT_FALSE(list.stages[0].is_compute);
  expect_program_matches_formula(f, list);
}

TEST(Lower, TensorIdentityLeft) {
  auto f = Builder::tensor(I(4), DFT(8));
  auto list = lower(f);
  ASSERT_EQ(list.stages.size(), 1u);
  EXPECT_EQ(list.stages[0].iters, 4);
  EXPECT_EQ(list.stages[0].cn, 8);
  expect_program_matches_formula(f, list);
}

TEST(Lower, TensorIdentityRight) {
  auto f = Builder::tensor(DFT(4), I(8));
  auto list = lower(f);
  ASSERT_EQ(list.stages.size(), 1u);
  EXPECT_EQ(list.stages[0].iters, 8);
  expect_program_matches_formula(f, list);
}

TEST(Lower, NestedTensors) {
  auto f = Builder::tensor(I(2), Builder::tensor(DFT(4), I(4)));
  expect_program_matches_formula(f, lower(f));
  auto g = Builder::tensor(Builder::tensor(I(2), DFT(4)), I(2));
  expect_program_matches_formula(g, lower(normalize(g)));
}

TEST(Lower, StridePermStage) {
  auto f = L(32, 4);
  expect_program_matches_formula(f, lower(f));
}

TEST(Lower, PermBarStage) {
  auto f = Builder::perm_bar(L(8, 2), 4);
  expect_program_matches_formula(f, lower(f));
}

TEST(Lower, TwiddleStage) {
  auto f = Tw(4, 8);
  expect_program_matches_formula(f, lower(f));
}

TEST(Lower, DirectSumParOfSegments) {
  std::vector<spl::FormulaPtr> segs;
  for (idx_t i = 0; i < 4; ++i) {
    segs.push_back(Builder::diag_seg(8, 4, i * 8, 8));
  }
  auto f = Builder::direct_sum_par(segs);
  auto list = lower(f);
  ASSERT_EQ(list.stages.size(), 1u);
  EXPECT_EQ(list.stages[0].parallel_p, 4);
  expect_program_matches_formula(f, list);
}

TEST(Lower, CooleyTukeyFormula) {
  auto f = rewrite::cooley_tukey(4, 8);
  expect_program_matches_formula(f, lower(f));
}

TEST(Lower, RejectsUnexpandedLargeDft) {
  EXPECT_THROW((void)lower(DFT(128)), std::invalid_argument);
}

TEST(Lower, RejectsNonTwoPowerCodelet) {
  // The codelets are 2-power only; a DFT_3 leaf has no bit-stride form.
  EXPECT_THROW((void)lower(DFT(3)), std::invalid_argument);
}

TEST(Lower, RejectsOddLoopThatIsNotOutermost) {
  // The I_2 loop outside I_3 does not continue its stride, so the odd
  // count cannot be the maps' outer digit.
  const auto f = Builder::tensor(Builder::tensor(I(3), DFT(2)), I(2));
  EXPECT_THROW((void)lower(f), std::invalid_argument);
}

TEST(Lower, RejectsUnresolvedTag) {
  EXPECT_THROW((void)lower(Builder::smp(2, 4, DFT(16))),
               std::invalid_argument);
}

TEST(Fuse, EliminatesPermutationStages) {
  auto f = rewrite::cooley_tukey(8, 8);
  auto unfused = lower(f);
  auto fused = lower_fused(f);
  EXPECT_GT(unfused.stages.size(), fused.stages.size());
  // All pure data stages must have been folded into the two compute loops.
  EXPECT_EQ(fused.stages.size(), 2u) << fused.summary();
  for (const auto& s : fused.stages) EXPECT_TRUE(s.is_compute);
  expect_program_matches_formula(f, fused);
}

TEST(Fuse, PreservesSemanticsOnMulticoreFormula) {
  auto f = rewrite::multicore_ct_reference(8, 8, 2, 2);
  expect_program_matches_formula(f, lower_fused(f), 3);
}

TEST(Fuse, MulticoreFormulaHasNoExplicitDataStage) {
  // The paper: "permutations are usually not performed explicitly, but
  // folded with adjacent computation blocks".
  auto f = rewrite::multicore_ct_reference(16, 16, 2, 4);
  auto fused = lower_fused(f);
  for (const auto& s : fused.stages) {
    EXPECT_TRUE(s.is_compute) << "unfused data stage: " << s.label;
  }
  expect_program_matches_formula(f, fused, 4);
}

TEST(Fuse, ExpandedMulticoreFormulaSemantics) {
  auto f = rewrite::derive_multicore_ct(1 << 8, 1 << 4, 2, 2);
  auto g = rewrite::expand_dfts_balanced(f, 8);
  expect_program_matches_formula(g, lower_fused(g), 5);
}

TEST(Fuse, PurePermProgramSurvives) {
  auto f = L(64, 8);
  auto fused = lower_fused(f);
  ASSERT_EQ(fused.stages.size(), 1u);
  EXPECT_FALSE(fused.stages[0].is_compute);
  expect_program_matches_formula(f, fused);
}

TEST(Fuse, ComposedPermsCollapseToOne) {
  auto f = Builder::compose({L(64, 8), L(64, 4), Tw(8, 8)});
  auto fused = lower_fused(f);
  EXPECT_EQ(fused.stages.size(), 1u) << fused.summary();
  expect_program_matches_formula(f, fused, 7);
}

TEST(Fuse, SequentialExpansionMatchesDftUpTo1024) {
  for (idx_t n : {64, 256, 1024}) {
    auto tree = rewrite::balanced_ruletree(n);
    auto f = rewrite::formula_from_ruletree(tree);
    auto fused = lower_fused(f);
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    Program prog(fused, ExecPolicy::kSequential);
    prog.execute(x.data(), y.data());
    const auto ref = spiral::testing::reference_dft(x);
    EXPECT_LT(max_diff(y, ref), fft_tolerance(n)) << "n=" << n;
  }
}

TEST(Affine, MarkedSidesKeepTheirMapsAndPreserveSemantics) {
  // lower_fused() marks the sides that are plain stride patterns exactly
  // when their map's affine view holds; marked or not, every side keeps
  // its bit-stride map, no table appears, and the program computes the
  // formula.
  auto f = rewrite::cooley_tukey(8, 8);
  const auto list = lower_fused(f);
  int sides = 0;
  for (const auto& s : list.stages) {
    EXPECT_EQ(s.in_affine, s.in_bits.affine(s.cn).has_value()) << s.label;
    EXPECT_EQ(s.out_affine, s.out_bits.affine(s.cn).has_value()) << s.label;
    EXPECT_TRUE(s.in_map.empty() && s.out_map.empty()) << s.label;
    EXPECT_EQ(s.in_bits.positions(), s.total_elems()) << s.label;
    EXPECT_EQ(s.out_bits.positions(), s.total_elems()) << s.label;
    sides += (s.in_affine ? 1 : 0) + (s.out_affine ? 1 : 0);
  }
  EXPECT_GT(sides, 0) << list.summary();
  expect_program_matches_formula(f, list, 31);
}

TEST(Affine, ClosedFormMatchesTheMap) {
  // On every marked side, base + it*iter_stride + l*elem_stride from the
  // map's affine view reproduces in_index/out_index entry by entry.
  auto f = rewrite::derive_multicore_ct(1 << 8, 1 << 4, 2, 2);
  const auto list = lower_fused(rewrite::expand_dfts_balanced(f, 8));
  int sides = 0;
  for (std::size_t si = 0; si < list.stages.size(); ++si) {
    const Stage& s = list.stages[si];
    for (const bool input : {true, false}) {
      if (!(input ? s.in_affine : s.out_affine)) continue;
      ++sides;
      const AffineMap a = (input ? s.in_bits : s.out_bits).affine(s.cn).value();
      for (idx_t it = 0; it < s.iters; ++it) {
        for (idx_t l = 0; l < s.cn; ++l) {
          ASSERT_EQ(a.base + it * a.iter_stride + l * a.elem_stride,
                    input ? s.in_index(it, l) : s.out_index(it, l))
              << "stage " << si << (input ? " in(" : " out(") << it << ","
              << l << ")";
        }
      }
    }
  }
  EXPECT_GT(sides, 0) << list.summary();
}

TEST(Affine, PlannerSweepHasAffineSidesAndVerifiesClean) {
  // Acceptance sweep 2^4..2^16 x p in {2,4,8}: planner programs have
  // affine sides somewhere in the range and every one passes the static
  // verifier (test_analysis runs the same sweep; here we additionally pin
  // that the affine marking actually engages).
  int affine_sides = 0;
  for (int k = 4; k <= 16; k += 2) {
    for (int p : {2, 4, 8}) {
      core::PlannerOptions opt;
      opt.threads = p;
      opt.verify_lowering = false;
      auto list = lower_fused(
          core::planner_formula(idx_t{1} << k, opt));
      for (const auto& s : list.stages) {
        affine_sides += (s.in_affine ? 1 : 0) + (s.out_affine ? 1 : 0);
      }
      const auto rep = analysis::verify(list);
      EXPECT_TRUE(rep.clean())
          << "n=2^" << k << " p=" << p << "\n" << rep.to_string();
    }
  }
  EXPECT_GT(affine_sides, 0) << "no planner program has an affine side";
}

TEST(Affine, StrideMutationIsCaughtByVerifier) {
  // Mutation test of the verifier itself: a wrong affine stride must
  // produce bounds/coverage findings, never a silent pass. lower_fused()
  // rebuilds the skewed out-side maps, which is what execution, the
  // verifier and the emitter read. The suite's lowering observer
  // (which verifies every lower_fused product) is off while the hook is
  // set.
  auto g = rewrite::expand_dfts_balanced(
      rewrite::derive_multicore_ct(1 << 8, 1 << 4, 2, 2), 8);
  const LoweringObserver saved = lowering_observer();
  set_lowering_observer(nullptr);
  set_affine_stride_mutation(1);
  const StageList list = lower_fused(g);
  set_affine_stride_mutation(0);
  set_lowering_observer(saved);
  int sides = 0;
  for (const auto& s : list.stages) sides += s.out_affine ? 1 : 0;
  ASSERT_GT(sides, 0);
  const auto rep = analysis::verify(list);
  EXPECT_FALSE(rep.ok()) << "skewed stride not flagged:\n" << rep.to_string();
}

/// A random bit permutation of [0, q * 2^bits): strides are the powers
/// of two in shuffled order, the outer digit (odd count q) the identity.
BitStrideMap random_bit_permutation(int bits, util::Rng& rng, idx_t q = 1) {
  std::vector<idx_t> s;
  for (int b = 0; b < bits; ++b) s.push_back(idx_t{1} << b);
  for (int b = bits - 1; b > 0; --b) {
    std::swap(s[static_cast<std::size_t>(b)],
              s[static_cast<std::size_t>(rng.uniform_int(0, b))]);
  }
  return BitStrideMap(0, std::move(s), q, idx_t{1} << bits);
}

std::vector<idx_t> table_of(const BitStrideMap& m) {
  std::vector<idx_t> t(static_cast<std::size_t>(m.positions()));
  for (std::size_t k = 0; k < t.size(); ++k) t[k] = m.at(idx_t(k));
  return t;
}

TEST(BitStride, AffineViewMatchesBruteForceFit) {
  // affine(cn) holds exactly when some base + it*is + l*es reproduces the
  // map at every position (the only candidate takes es from the first
  // step and is from the first codelet boundary), and its closed form is
  // then the map. Random bit permutations, affine stride patterns, the
  // same with one digit disturbed, and random strides; outer counts 1, 3
  // and 5; every codelet size up to 32 that divides the positions.
  util::Rng rng(0xaff1);
  int holds = 0;
  int fails = 0;
  for (const idx_t q : {1, 3, 5}) {
    for (int bits = 0; bits <= 7; ++bits) {
      for (int trial = 0; trial < 12; ++trial) {
        BitStrideMap m = random_bit_permutation(bits, rng, q);
        if (trial % 4 != 0) {
          const int c = static_cast<int>(rng.uniform_int(0, bits));
          const idx_t es = rng.uniform_int(0, 3);
          const idx_t is = rng.uniform_int(0, 9);
          std::vector<idx_t> st;
          for (int b = 0; b < bits; ++b) {
            st.push_back(trial % 4 == 3 ? rng.uniform_int(0, 9)
                         : b < c        ? es << b
                                        : is << (b - c));
          }
          idx_t os = is << (bits - c);
          if (trial % 4 == 2) {
            const auto d = static_cast<std::size_t>(rng.uniform_int(0, bits));
            (d < st.size() ? st[d] : os) += rng.uniform_int(1, 3);
          }
          m = BitStrideMap(rng.uniform_int(0, 5), std::move(st), q, os);
        }
        for (idx_t cn = 1; cn <= 32; ++cn) {
          if (m.positions() % cn != 0) continue;
          const idx_t iters = m.positions() / cn;
          const idx_t es = cn > 1 ? m.at(1) - m.at(0) : 0;
          const idx_t is = iters > 1 ? m.at(cn) - m.at(0) : 0;
          bool fit = true;
          for (idx_t k = 0; k < m.positions(); ++k) {
            fit = fit && m.at(k) == m.at(0) + (k / cn) * is + (k % cn) * es;
          }
          const auto a = m.affine(cn);
          ASSERT_EQ(a.has_value(), fit)
              << "q=" << q << " bits=" << bits << " trial=" << trial
              << " cn=" << cn;
          if (!a) {
            ++fails;
            continue;
          }
          ++holds;
          for (idx_t k = 0; k < m.positions(); ++k) {
            ASSERT_EQ(a->base + (k / cn) * a->iter_stride +
                          (k % cn) * a->elem_stride,
                      m.at(k))
                << "q=" << q << " bits=" << bits << " cn=" << cn << " k=" << k;
          }
        }
      }
    }
  }
  EXPECT_GT(holds, 0);
  EXPECT_GT(fails, 0);
}

TEST(BitStride, EvaluatesTheStrideSum) {
  const BitStrideMap m(5, {3, 0, 8, 1, 2});
  for (idx_t k = 0; k < 32; ++k) {
    idx_t want = 5;
    for (int b = 0; b < 5; ++b) {
      if ((k >> b) & 1) want += m.strides()[static_cast<std::size_t>(b)];
    }
    EXPECT_EQ(m.at(k), want) << "k=" << k;
  }
  EXPECT_FALSE(is_bit_permutation(m));
  // An outer digit of 3 adds floor(k / 2^5) * 7.
  const BitStrideMap o(5, {3, 0, 8, 1, 2}, 3, 7);
  ASSERT_EQ(o.positions(), 96);
  for (idx_t k = 0; k < 96; ++k) {
    EXPECT_EQ(o.at(k), m.at(k % 32) + (k / 32) * 7) << "k=" << k;
  }
  EXPECT_THROW(BitStrideMap(0, {1, 2}, 2, 4), std::invalid_argument);
  // The int32 guard covers the largest reachable index.
  EXPECT_THROW(BitStrideMap(0, {idx_t{1} << 30, idx_t{1} << 30}),
               std::overflow_error);
  EXPECT_THROW(BitStrideMap(0, {1}, 3, idx_t{1} << 30), std::overflow_error);
}

TEST(BitStride, InvertMatchesTableInverse) {
  util::Rng rng(0xb175);
  for (int bits = 0; bits <= 14; ++bits) {
    for (int trial = 0; trial < 4; ++trial) {
      const BitStrideMap m =
          random_bit_permutation(bits, rng, trial < 2 ? 1 : 3);
      ASSERT_TRUE(is_bit_permutation(m));
      const auto t = table_of(m);
      std::vector<idx_t> inv(t.size());
      for (std::size_t k = 0; k < t.size(); ++k) {
        inv[static_cast<std::size_t>(t[k])] = idx_t(k);
      }
      EXPECT_EQ(table_of(invert(m)), inv) << "bits=" << bits;
    }
  }
}

TEST(BitStride, ComposeMatchesTableComposition) {
  util::Rng rng(0xc0de);
  for (int bits = 0; bits <= 14; ++bits) {
    for (int trial = 0; trial < 4; ++trial) {
      const idx_t q = trial < 2 ? 1 : 5;
      const BitStrideMap inner = random_bit_permutation(bits, rng, q);
      // outer: a permutation, or a general map with a base and scaled,
      // repeated strides (compose only needs inner to be a permutation).
      BitStrideMap outer = random_bit_permutation(bits, rng, q);
      if (trial % 2 == 1) {
        std::vector<idx_t> s = outer.strides();
        for (auto& v : s) v = 3 * v + rng.uniform_int(0, 2);
        outer = BitStrideMap(rng.uniform_int(0, 7), std::move(s), q,
                             3 * outer.outer_stride() + 1);
      }
      const auto to = table_of(outer);
      const auto ti = table_of(inner);
      std::vector<idx_t> want(ti.size());
      for (std::size_t k = 0; k < ti.size(); ++k) {
        want[k] = to[static_cast<std::size_t>(ti[k])];
      }
      EXPECT_EQ(table_of(compose(outer, inner)), want) << "bits=" << bits;
    }
  }
}

TEST(BitStride, TwoPowerDftPlansMaterializeNoIndexMap) {
  // Every side of a 2-power DFT program is bit-stride encoded, before
  // and after fusion: no O(n) int32 map anywhere. (The lowering
  // observer is off here; this pins the representation, not the
  // verifier, and keeps the 2^20 plans quick.)
  const LoweringObserver saved = lowering_observer();
  set_lowering_observer(nullptr);
  for (int k = 10; k <= 20; ++k) {
    for (int p : {1, 4}) {
      for (idx_t nu : {0, 4}) {
        core::PlannerOptions opt;
        opt.threads = p;
        opt.vector_nu = nu;
        opt.verify_lowering = false;
        const auto f = core::planner_formula(idx_t{1} << k, opt);
        for (const StageList& list : {lower(f), lower_fused(f)}) {
          for (const Stage& s : list.stages) {
            EXPECT_TRUE(s.in_map.empty() && s.out_map.empty())
                << "n=2^" << k << " p=" << p << " nu=" << nu << ": "
                << s.label;
            EXPECT_EQ(s.in_bits.positions(), s.total_elems()) << s.label;
            EXPECT_EQ(s.out_bits.positions(), s.total_elems()) << s.label;
          }
        }
      }
    }
  }
  set_lowering_observer(saved);
}

TEST(BitStride, OddBatchesFoldIntoTheOuterDigit) {
  // 3 * 64 and 6 * 64 elements: the odd factor of the batch count is the
  // outer digit of every map, so no side is tabulated, and the programs
  // still compute their formulas.
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.verify_lowering = false;
  const spl::FormulaPtr formulas[] = {
      Builder::tensor(I(3), rewrite::cooley_tukey(8, 8)),
      core::plan_batch_dft(64, 6, opt)->formula(),
  };
  for (const auto& f : formulas) {
    for (const StageList& list : {lower(f), lower_fused(f)}) {
      for (const Stage& s : list.stages) {
        EXPECT_TRUE(s.in_map.empty() && s.out_map.empty()) << s.label;
        EXPECT_EQ(s.in_bits.positions(), s.total_elems()) << s.label;
        EXPECT_EQ(s.out_bits.positions(), s.total_elems()) << s.label;
      }
      expect_program_matches_formula(f, list, 5);
    }
  }
}

TEST(StageScales, Large4mStoresDistinctValuesOnly) {
  // n = 2^22, p = 4, nu = 4: the two sub-n diagonals (D_{32,64} twice)
  // store at most 2048 values each in one factor, and the one diagonal
  // over every position bit (D_{2048,2048}, 2^22 entries) stores two
  // factors of 2^16 and 2^17 values: no factor outgrows the L2, and the
  // plan stores at most 2^18 values in all.
  const idx_t n = idx_t{1} << 22;
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.vector_nu = 4;
  opt.verify_lowering = false;
  const StageList list = lower_fused(core::planner_formula(n, opt));
  int small = 0;
  int factored = 0;
  std::size_t values = 0;
  for (const Stage& s : list.stages) {
    for (const StageScale* sc : {&s.in_scale, &s.out_scale}) {
      if (sc->empty()) continue;
      EXPECT_EQ(sc->positions(), s.total_elems()) << s.label;
      values += sc->size();
      for (const auto& f : sc->factors()) {
        EXPECT_LE(static_cast<idx_t>(f.size()), kMaxScaleValues) << s.label;
      }
      if (sc->size() <= 2048) {
        EXPECT_EQ(sc->factors().size(), 1U) << s.label;
        ++small;
      } else {
        ASSERT_EQ(sc->factors().size(), 2U) << s.label;
        EXPECT_EQ(sc->factors()[0].size(), std::size_t{1} << 16) << s.label;
        EXPECT_EQ(sc->factors()[1].size(), std::size_t{1} << 17) << s.label;
        ++factored;
      }
    }
  }
  EXPECT_EQ(small, 2);
  EXPECT_EQ(factored, 1);
  EXPECT_LE(values, std::size_t{1} << 18);
}

TEST(StageScales, FactorSizesAboveLarge4m) {
  // Plans only. F_hi never outgrows the cap; F_lo holds 2^(iv + b)
  // values, within the cap while 2 iv + jv <= 34 (backend/lower.cpp,
  // twiddle_diag). The planner's diagonals meet that through n = 2^23
  // (D_{2048,4096}: two factors of 2^17); at n = 2^24, D_{4096,4096}
  // stores F_lo = 2^19 and F_hi = 2^17 values. (The lowering observer
  // is off here; this pins the scale sizes, not the verifier, and keeps
  // the 2^24 plan quick.)
  const LoweringObserver saved = lowering_observer();
  set_lowering_observer(nullptr);
  for (const int k : {23, 24}) {
    core::PlannerOptions opt;
    opt.threads = 4;
    opt.vector_nu = 4;
    opt.verify_lowering = false;
    const StageList list =
        lower_fused(core::planner_formula(idx_t{1} << k, opt));
    int factored = 0;
    for (const Stage& s : list.stages) {
      for (const StageScale* sc : {&s.in_scale, &s.out_scale}) {
        if (sc->empty() || sc->factors().size() == 1) {
          EXPECT_LE(static_cast<idx_t>(sc->size()), kMaxScaleValues);
          continue;
        }
        ++factored;
        ASSERT_EQ(sc->factors().size(), 2U) << s.label;
        const std::size_t lo = sc->factors()[0].size();
        const std::size_t hi = sc->factors()[1].size();
        EXPECT_EQ(static_cast<idx_t>(hi), kMaxScaleValues) << s.label;
        EXPECT_EQ(lo, std::size_t{1} << (k == 23 ? 17 : 19)) << s.label;
      }
    }
    EXPECT_EQ(factored, 1) << "n = 2^" << k;
  }
  set_lowering_observer(saved);
}

TEST(StageScales, FactoredValuesMatchTheTwiddles) {
  // At 2^18 and 2^22 (p = 4, nu = 4) the diagonal over every position
  // bit, D_{m,m} with m*m = n, is stored as two factors. Every position k
  // of the fused stage's scale is checked against the twiddle it stands
  // for: k reads element e = in_bits(k) of a buffer, which the unfused
  // pure stages the fusion folded in before D move (a -> out(in^-1(a)))
  // to the element D scales at entry t = D.in_bits^-1(a). A wrong factor
  // map, bit split or fused renaming shows as a wrong angle (>= 2 pi / n
  // off, ~1e-6 here). spl::twiddle_entry rounds its angle at up to 2 pi
  // and is itself several u from the exact root (measured 6.6 u at
  // 2^22), so the factored value is held to the same distance from the
  // exact root (long double) as the worst single-table entry, plus 2 u.
  constexpr double u = spiral::testing::kUnitRoundoff;
  for (const int k : {18, 22}) {
    SCOPED_TRACE("n=2^" + std::to_string(k));
    const idx_t n = idx_t{1} << k;
    const idx_t m = idx_t{1} << (k / 2);
    core::PlannerOptions opt;
    opt.threads = 4;
    opt.vector_nu = 4;
    opt.verify_lowering = false;
    const spl::FormulaPtr f = core::planner_formula(n, opt);
    const std::string d = "D_{" + std::to_string(m) + "," +
                          std::to_string(m) + "}";
    const Stage* diag = nullptr;
    std::size_t at = 0;
    const StageList unfused = lower(f);
    for (std::size_t i = 0; i < unfused.stages.size(); ++i) {
      if (unfused.stages[i].in_scale.factors().size() == 2) {
        diag = &unfused.stages[i];
        at = i;
      }
    }
    ASSERT_NE(diag, nullptr);
    ASSERT_NE(diag->label.find(d), std::string::npos) << diag->label;
    ASSERT_EQ(diag->total_elems(), n);
    const Stage* fused = nullptr;
    const StageList list = lower_fused(f);
    for (const Stage& s : list.stages) {
      if (s.in_scale.factors().size() == 2) fused = &s;
    }
    ASSERT_NE(fused, nullptr);
    // The labels after D's in the fused label are the stages folded in
    // before it: the next ones in the unfused list.
    const std::size_t d_at = fused->label.find(diag->label);
    ASSERT_NE(d_at, std::string::npos);
    std::vector<std::pair<BitStrideMap, BitStrideMap>> before;  // in^-1, out
    for (std::size_t i = at + 1, c = fused->label.find(" o ", d_at);
         c != std::string::npos; ++i, c = fused->label.find(" o ", c + 1)) {
      ASSERT_LT(i, unfused.stages.size());
      const Stage& q = unfused.stages[i];
      ASSERT_FALSE(q.is_compute) << q.label;
      before.emplace_back(invert(q.in_bits), q.out_bits);
    }
    const BitStrideMap entry = invert(diag->in_bits);
    // w_n^r = w_n^{(r / m) m} w_n^{r % m} in long double, ~1e-19 off.
    std::vector<std::complex<long double>> lo(static_cast<std::size_t>(m));
    std::vector<std::complex<long double>> hi(lo.size());
    for (idx_t r = 0; r < m; ++r) {
      for (const idx_t scale : {idx_t{1}, m}) {
        const long double a = -2.0L * std::numbers::pi_v<long double> *
                              static_cast<long double>(r * scale) /
                              static_cast<long double>(n);
        (scale == 1 ? lo : hi)[static_cast<std::size_t>(r)] = {std::cos(a),
                                                               std::sin(a)};
      }
    }
    auto exact = [&](idx_t t) {
      const idx_t r = (t / m) * (t % m) % n;
      return hi[static_cast<std::size_t>(r / m)] *
             lo[static_cast<std::size_t>(r % m)];
    };
    auto dist = [](cplx a, std::complex<long double> b) {
      return static_cast<double>(
          std::abs(std::complex<long double>(a.real(), a.imag()) - b));
    };
    // Every position visits every entry t once.
    double table_err = 0.0;
    double worst = 0.0;
    for (idx_t p = 0; p < n; ++p) {
      idx_t a = fused->in_bits.at(p);
      for (auto q = before.rbegin(); q != before.rend(); ++q) {
        a = q->second.at(q->first.at(a));
      }
      const idx_t t = entry.at(a);
      const auto want = exact(t);
      table_err = std::max(table_err, dist(spl::twiddle_entry(m, m, t), want));
      worst = std::max(worst, dist(fused->in_scale.at(p), want));
    }
    EXPECT_LE(worst, table_err + 2.0 * u)
        << "worst " << worst / u << " u, single table " << table_err / u
        << " u";
    std::printf("n=2^%d: factored scale %.2f u from the exact twiddles, "
                "one table of twiddle_entry %.2f u\n",
                k, worst / u, table_err / u);
  }
}

TEST(StageScales, ValuesAreLaneBitsThenElementBits) {
  // Value order: the projected lane bits (position bits [log2 cn,
  // log2 cn + 3)), then the element bits (< log2 cn), then the other
  // iteration bits, each group ascending, so the map strides are
  // increasing powers of two in that order. A diagonal over every bit
  // puts a pack's values together: value index
  // (it % 8) + 8 * l + 8 * cn * (it / 8). At 2^16 every diagonal fits one
  // factor.
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.vector_nu = 4;
  opt.verify_lowering = false;
  const StageList list =
      lower_fused(core::planner_formula(idx_t{1} << 16, opt));
  bool saw_full = false;
  for (const Stage& s : list.stages) {
    for (const StageScale* sc : {&s.in_scale, &s.out_scale}) {
      if (sc->empty()) continue;
      ASSERT_EQ(sc->factors().size(), 1U) << s.label;
      const BitStrideMap& map = sc->factors()[0].map();
      const int c = util::log2_exact(s.cn);
      const auto& st = map.strides();
      auto group = [c](int b) { return b < c ? 1 : (b < c + 3 ? 0 : 2); };
      idx_t next = 1;
      for (const int g : {0, 1, 2}) {
        for (int b = 0; b < map.bits(); ++b) {
          if (group(b) != g || st[static_cast<std::size_t>(b)] == 0) {
            continue;
          }
          EXPECT_EQ(st[static_cast<std::size_t>(b)], next) << s.label;
          next *= 2;
        }
      }
      EXPECT_EQ(next, static_cast<idx_t>(sc->size())) << s.label;
      if (static_cast<idx_t>(sc->size()) != s.total_elems()) continue;
      saw_full = true;
      for (const idx_t it : {idx_t{0}, idx_t{5}, idx_t{13}, s.iters - 1}) {
        for (idx_t l = 0; l < s.cn; ++l) {
          EXPECT_EQ(map.at(it * s.cn + l),
                    it % 8 + 8 * l + 8 * s.cn * (it / 8));
        }
      }
    }
  }
  EXPECT_TRUE(saw_full);
}

TEST(StageTest, FlopsAccounting) {
  auto list = lower_fused(rewrite::cooley_tukey(8, 8));
  EXPECT_GT(list.flops(), 0.0);
  EXPECT_FALSE(list.summary().empty());
}

}  // namespace
}  // namespace spiral::backend
