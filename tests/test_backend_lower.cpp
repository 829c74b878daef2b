// Tests for lowering and loop-merging: every lowered (and fused) program
// must compute the same matrix as the formula it came from, and fusion
// must actually eliminate the data passes.
#include <gtest/gtest.h>

#include "analysis/verify.hpp"
#include "backend/fuse.hpp"
#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "spl/printer.hpp"
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
    // fuse() on the materialized program lifts its scale tables back
    // into diagonals, which repeat over the outer digit.
    StageList refused = lower(f);
    fuse(refused);
    for (const StageList& list : {lower(f), lower_fused(f), refused}) {
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
  // store at most 2048 values each, and the one diagonal over every
  // position bit (D_{2048,2048}) stores n, once.
  const idx_t n = idx_t{1} << 22;
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.vector_nu = 4;
  opt.verify_lowering = false;
  const StageList list = lower_fused(core::planner_formula(n, opt));
  int small = 0;
  int full = 0;
  double bytes = 0.0;
  for (const Stage& s : list.stages) {
    for (const StageScale* sc : {&s.in_scale, &s.out_scale}) {
      if (sc->empty()) continue;
      EXPECT_EQ(sc->positions(), s.total_elems()) << s.label;
      bytes += static_cast<double>(sizeof(cplx) * sc->size());
      if (sc->size() <= 2048) {
        ++small;
      } else {
        EXPECT_EQ(static_cast<idx_t>(sc->size()), n) << s.label;
        ++full;
      }
    }
  }
  EXPECT_EQ(small, 2);
  EXPECT_EQ(full, 1);
  EXPECT_LE(bytes, 64.1 * 1024 * 1024);
}

TEST(StageScales, ValuesAreIterationBitsFirst) {
  // Value order: projected iteration bits (position bits >= log2 cn)
  // ascending, then element bits, so the map strides are increasing
  // powers of two in that order. A diagonal over every bit is
  // iteration-major: value index it + l * iters.
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
      const int c = util::log2_exact(s.cn);
      const auto& st = sc->map().strides();
      idx_t next = 1;
      for (const bool element : {false, true}) {
        for (int b = 0; b < sc->map().bits(); ++b) {
          if ((b < c) != element || st[static_cast<std::size_t>(b)] == 0) {
            continue;
          }
          EXPECT_EQ(st[static_cast<std::size_t>(b)], next) << s.label;
          next *= 2;
        }
      }
      EXPECT_EQ(next, static_cast<idx_t>(sc->size())) << s.label;
      if (static_cast<idx_t>(sc->size()) != s.total_elems()) continue;
      saw_full = true;
      for (const idx_t it : {idx_t{0}, idx_t{5}, s.iters - 1}) {
        for (idx_t l = 0; l < s.cn; ++l) {
          EXPECT_EQ(sc->map().at(it * s.cn + l), it + l * s.iters);
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
