// Tests for analysis::codegen_check — static translation validation of
// the emitted C (DESIGN.md §5h).
//
// Three layers of evidence that the validator is both sound and live:
//   1. the unmutated planner sweep (2^4..2^14, p in {1,2,4}, nu in
//      {1,4}) validates clean — no false positives on real plans;
//   2. every seeded emitter defect (--mutate-codegen kinds) is rejected
//      with exactly the intended typed diagnostic — mutation testing of
//      the validator itself, mirrored by the WILL_FAIL ctest lint gates;
//   3. string-level tampering with an otherwise clean emission (removed
//      barrier, de-atomized job pointer, a perturbed root or a flipped
//      operator in a DFT or WHT codelet body, a flipped operator in the
//      fixed code) is caught — the validator reads the *text*, not the
//      emitter's intentions.
#include <gtest/gtest.h>

#include <string>

#include "analysis/codegen_check.hpp"
#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"

namespace spiral {
namespace {

/// RAII seed/clear of an emitter defect: no test can leave a mutation
/// behind for the rest of the suite.
class MutationGuard {
 public:
  explicit MutationGuard(backend::CodegenMutation m) {
    backend::set_codegen_mutation(m);
  }
  ~MutationGuard() {
    backend::set_codegen_mutation(backend::CodegenMutation::kNone);
  }
  MutationGuard(const MutationGuard&) = delete;
  MutationGuard& operator=(const MutationGuard&) = delete;
};

/// Emits `list` — pthreads pool when any stage is parallel, sequential
/// otherwise — at the requested SIMD width.
std::string emit_validated(const backend::StageList& list, idx_t nu) {
  backend::CodegenOptions cg;
  cg.simd_nu = nu;
  return backend::emit_c(list, cg);
}

/// Plan n at (threads, nu) through the real planner and return the
/// lowered+fused program — the same StageList the interpreter runs.
backend::StageList planned_list(idx_t n, int threads, idx_t nu) {
  core::PlannerOptions opt;
  opt.threads = threads;
  opt.vector_nu = nu >= 2 ? nu : 0;
  auto plan = core::plan_dft(n, opt);
  return plan->stages();
}

/// The canonical mutant configuration (matches the WILL_FAIL lint
/// gates): n=4096, p=4, nu=4 — parallel pooled dispatch with vectorized
/// stages, so every mutation kind has something to bite.
const backend::StageList& mutant_list() {
  static const backend::StageList list = planned_list(4096, 4, 4);
  return list;
}

analysis::CodegenReport check_mutant_emission(backend::CodegenMutation m) {
  const backend::StageList& list = mutant_list();
  MutationGuard guard(m);
  const std::string source = emit_validated(list, 4);
  return analysis::check_codegen(source, list);
}

// ---------------------------------------------------------------------
// 1. Clean validation: no false positives.
// ---------------------------------------------------------------------

// Every planner output across 2^4..2^14 x p in {1,2,4} x nu in {1,4}
// must emit a program the validator accepts without a single finding,
// and that reads back into a model which writes the same text.
TEST(CodegenCheckSweep, PlannerSweepValidatesClean) {
  for (int logn = 4; logn <= 14; ++logn) {
    const idx_t n = idx_t{1} << logn;
    for (int p : {1, 2, 4}) {
      for (idx_t nu : {idx_t{1}, idx_t{4}}) {
        const backend::StageList list = planned_list(n, p, nu);
        const std::string source = emit_validated(list, nu);
        const analysis::CodegenReport rep =
            analysis::check_codegen(source, list);
        EXPECT_TRUE(rep.clean()) << "n=" << n << " p=" << p << " nu=" << nu
                                 << "\n" << rep.to_string();
        backend::CProgram model;
        std::string err;
        ASSERT_TRUE(backend::read_c(source, &model, &err)) << err;
        EXPECT_TRUE(backend::write_c(model) == source)
            << "n=" << n << " p=" << p << " nu=" << nu;
      }
    }
  }
}

TEST(CodegenCheck, VecStageRecordNamesVectorBodies) {
  const backend::StageList& list = mutant_list();
  const std::string source = emit_validated(list, 4);
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  ASSERT_TRUE(rep.clean()) << rep.to_string();
  // The canonical config provably vectorizes (this is also the
  // non-vacuity anchor for the swap-lanes mutant below).
  ASSERT_FALSE(rep.vec_stage_ids.empty());
  ASSERT_EQ(rep.vec_stage_ids.size(), rep.vec_stage_widths.size());
  for (idx_t w : rep.vec_stage_widths) EXPECT_GE(w, 2);
  // Every recorded stage really was emitted with a vector body (its
  // scalar body is then renamed stage<si>_scalar).
  for (int si : rep.vec_stage_ids) {
    EXPECT_NE(source.find("static void stage" + std::to_string(si) +
                          "_scalar("),
              std::string::npos)
        << "stage " << si;
  }
}

// ---------------------------------------------------------------------
// 2. Seeded emitter defects: each kind yields its intended diagnostic.
// ---------------------------------------------------------------------

TEST(CodegenCheckMutants, StrideSkewCaughtAsFootprintMismatch) {
  const analysis::CodegenReport rep =
      check_mutant_emission(backend::CodegenMutation::kStrideSkew);
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.count(analysis::CodegenDiag::kFootprintMismatch), 0)
      << rep.to_string();
  // The skewed footprint also walks off the end of the buffers, which
  // the verify() re-run of the reconstructed program must notice.
  EXPECT_GT(rep.count(analysis::CodegenDiag::kEmittedUnsafe), 0)
      << rep.to_string();
}

TEST(CodegenCheckMutants, DropBarrierCaughtAsMissingBarrier) {
  const analysis::CodegenReport rep =
      check_mutant_emission(backend::CodegenMutation::kDropBarrier);
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.count(analysis::CodegenDiag::kMissingBarrier), 0)
      << rep.to_string();
}

TEST(CodegenCheckMutants, SwapLanesCaughtAsLaneMismatch) {
  // Non-vacuity: the unmutated emission of this config has vector
  // stages (asserted in VecStageRecordNamesVectorBodies), so the lane
  // swap is live.
  const analysis::CodegenReport rep =
      check_mutant_emission(backend::CodegenMutation::kSwapLanes);
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.count(analysis::CodegenDiag::kLaneMismatch), 0)
      << rep.to_string();
}

TEST(CodegenCheckMutants, NarrowIndexCaughtAsNarrowedIndex) {
  const analysis::CodegenReport rep =
      check_mutant_emission(backend::CodegenMutation::kNarrowIndex);
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.count(analysis::CodegenDiag::kNarrowedIndex), 0)
      << rep.to_string();
}

// Clearing the mutation restores byte-identical clean emission.
TEST(CodegenCheckMutants, MutationIsScopedAndRestorable) {
  const backend::StageList& list = mutant_list();
  const std::string before = emit_validated(list, 4);
  {
    MutationGuard guard(backend::CodegenMutation::kStrideSkew);
    EXPECT_NE(emit_validated(list, 4), before);
  }
  EXPECT_EQ(backend::codegen_mutation(), backend::CodegenMutation::kNone);
  EXPECT_EQ(emit_validated(list, 4), before);
}

// ---------------------------------------------------------------------
// 3. String-level tampering: the validator reads the text, so defects
//    introduced *after* emission (or by an emitter bug we did not seed)
//    are caught too.
// ---------------------------------------------------------------------

class CodegenTamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    list_ = mutant_list();
    source_ = emit_validated(list_, 4);
    analysis::CodegenReport rep = analysis::check_codegen(source_, list_);
    ASSERT_TRUE(rep.clean()) << rep.to_string();
  }

  [[nodiscard]] analysis::CodegenReport check(const std::string& src) const {
    return analysis::check_codegen(src, list_);
  }

  /// Replaces the first occurrence of `from` (must exist) with `to`.
  [[nodiscard]] std::string tampered(const std::string& from,
                                     const std::string& to) const {
    std::string src = source_;
    const std::size_t pos = src.find(from);
    EXPECT_NE(pos, std::string::npos) << "tamper anchor missing: " << from;
    if (pos != std::string::npos) src.replace(pos, from.size(), to);
    return src;
  }

  backend::StageList list_;
  std::string source_;
};

TEST_F(CodegenTamperTest, RemovedInterStageBarrierFlagged) {
  // Drop the first pool_barrier() inside run_program (the stage walk),
  // leaving the pool protocol's own barriers intact.
  const std::size_t walk = source_.find("static void run_program(");
  ASSERT_NE(walk, std::string::npos);
  const std::string barrier = "  pool_barrier();\n";
  std::string src = source_;
  const std::size_t pos = src.find(barrier, walk);
  ASSERT_NE(pos, std::string::npos);
  src.erase(pos, barrier.size());
  const analysis::CodegenReport rep = check(src);
  EXPECT_GT(rep.count(analysis::CodegenDiag::kMissingBarrier), 0)
      << rep.to_string();
}

TEST_F(CodegenTamperTest, NonAtomicJobPointerFlagged) {
  // The gcc IPA-modref miscompile class: a plain (non-_Atomic) job
  // pointer lets the compiler hoist its load above the dispatch barrier.
  const analysis::CodegenReport rep = check(tampered(
      "static const double *_Atomic job_x;", "static const double *job_x;"));
  EXPECT_GT(rep.count(analysis::CodegenDiag::kNonAtomicJobDispatch), 0)
      << rep.to_string();
}

TEST_F(CodegenTamperTest, PerturbedTwiddleValueFlagged) {
  // One wrong root constant in a straight-line DFT body: the text still
  // parses, but the body's linear map no longer equals the DFT matrix —
  // only applying it to unit vectors can see this.
  const analysis::CodegenReport rep =
      check(tampered(" * 0.70710678118654757;", " * 0.125;"));
  EXPECT_EQ(rep.count(analysis::CodegenDiag::kParseError), 0)
      << rep.to_string();
  EXPECT_GT(rep.count(analysis::CodegenDiag::kCodeletMismatch), 0)
      << rep.to_string();
}

TEST_F(CodegenTamperTest, ForwardReferenceInCodeletFlagged) {
  // A body reading a temporary before its declaration would not compile;
  // the validator names it without a compiler.
  const analysis::CodegenReport rep =
      check(tampered("t2 = t0 + t1;", "t2 = t9 + t1;"));
  EXPECT_GT(rep.count(analysis::CodegenDiag::kCodeletMismatch), 0)
      << rep.to_string();
}

TEST(CodegenTamper, FlippedWhtOperatorFlagged) {
  // WHT bodies are straight-line op lists too: one `+` turned into `-`
  // still parses and must be caught as a wrong linear map.
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.vector_nu = 4;
  const backend::StageList list = core::plan_wht(1024, opt)->stages();
  std::string source = emit_validated(list, 4);
  ASSERT_TRUE(analysis::check_codegen(source, list).clean());
  const std::size_t pos = source.find(" + ", source.find("static void wht"));
  ASSERT_NE(pos, std::string::npos);
  source.replace(pos, 3, " - ");
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  EXPECT_EQ(rep.count(analysis::CodegenDiag::kParseError), 0)
      << rep.to_string();
  EXPECT_GT(rep.count(analysis::CodegenDiag::kCodeletMismatch), 0)
      << rep.to_string();
}

TEST_F(CodegenTamperTest, FlippedOperatorInFixedCodeIsParseError) {
  // The code around the values is fixed text: one flipped operator in a
  // scaled load makes the source leave the emitted syntax.
  const analysis::CodegenReport rep =
      check(tampered("re[l] = ar*iscl[2*l] - ai*iscl[2*l+1];",
                     "re[l] = ar*iscl[2*l] + ai*iscl[2*l+1];"));
  EXPECT_EQ(rep.count(analysis::CodegenDiag::kParseError), 1)
      << rep.to_string();
}

TEST_F(CodegenTamperTest, ForeignDialectRejected) {
  // A TU the emitter never produced (e.g. OpenMP output) must be a
  // parse error, not a silent pass.
  const analysis::CodegenReport rep =
      check("#pragma omp parallel for\nint main(void) { return 0; }\n");
  EXPECT_FALSE(rep.clean());
  EXPECT_GT(rep.count(analysis::CodegenDiag::kParseError) +
                rep.count(analysis::CodegenDiag::kShapeMismatch),
            0)
      << rep.to_string();
}

// ---------------------------------------------------------------------
// 4. Edge cases of the dialect.
// ---------------------------------------------------------------------

// Single codelet stage (n <= leaf): one stage, no barriers, trivial
// ping-pong chain.
TEST(CodegenCheckEdge, SingleStageCodeletProgram) {
  const backend::StageList list = backend::lower_fused(
      rewrite::formula_from_ruletree(rewrite::balanced_ruletree(16)));
  ASSERT_EQ(list.stages.size(), 1u);
  const std::string source = emit_validated(list, 0);
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.stages, 1);
}

// Sequential-only derivation (p=1): no pool, no pthreads preamble at
// all — and the validator accepts the sequential entry shape.
TEST(CodegenCheckEdge, SequentialPlanHasNoPthreadsAndValidates) {
  const backend::StageList list = planned_list(256, 1, 0);
  const std::string source = emit_validated(list, 0);
  EXPECT_EQ(source.find("pthread"), std::string::npos);
  EXPECT_EQ(source.find("pool_"), std::string::npos);
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

// A deterministic multicore derivation (not via the planner): the
// paper's DFT_256 = CT(16,16) smp(2,2) program, vectorized at nu=4.
TEST(CodegenCheckEdge, MulticoreDerivationValidates) {
  const backend::StageList list = backend::lower_fused(
      rewrite::expand_dfts_balanced(rewrite::derive_multicore_ct(256, 16, 2, 2)));
  const std::string source = emit_validated(list, 4);
  EXPECT_NE(source.find("pool_barrier"), std::string::npos);
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

// Unfused lower() lists keep copy stages (one of them scaled) and
// table-addressed sides, which no fused plan emits.
TEST(CodegenCheckEdge, UnfusedListsValidate) {
  // Leaf 32 splits DFT_64 as CT(8, 8), whose unfused lowering has copy
  // loops; a DFT_64 leaf would be one codelet stage without any.
  const spl::FormulaPtr balanced = rewrite::formula_from_ruletree(
      rewrite::balanced_ruletree(64, /*leaf=*/32));
  const spl::FormulaPtr multicore = rewrite::expand_dfts_balanced(
      rewrite::derive_multicore_ct(256, 16, 2, 2));
  for (const spl::FormulaPtr& f : {balanced, multicore}) {
    const backend::StageList list = backend::lower(f);
    for (idx_t nu : {idx_t{0}, idx_t{4}}) {
      const std::string source = emit_validated(list, nu);
      EXPECT_NE(source.find("for (long j = lo; j < hi; ++j)"),
                std::string::npos);
      const analysis::CodegenReport rep =
          analysis::check_codegen(source, list);
      EXPECT_TRUE(rep.clean()) << "n=" << list.n << " nu=" << nu << "\n"
                               << rep.to_string();
    }
  }
}

// Per-thread chunk bounds that are not multiples of the vector width
// (p=3 over pow2 iteration counts) force the emitted scalar head/tail
// remainder loops around every vector loop; the validator must accept
// the remainder structure and still prove the footprints.
TEST(CodegenCheckEdge, RemainderLoopsFromUnalignedChunksValidate) {
  backend::StageList list = planned_list(4096, 4, 4);
  bool retagged = false;
  for (auto& s : list.stages) {
    if (s.parallel_p > 1) {
      s.parallel_p = 3;
      retagged = true;
    }
  }
  ASSERT_TRUE(retagged);
  const std::string source = emit_validated(list, 4);
  // Non-vacuity: the emission contains a scalar-head call, i.e. at
  // least one chunk really is vector-unaligned.
  EXPECT_NE(source.find("if (lo < va) stage"), std::string::npos);
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

// nu=2 (half-width) emission also validates: the width recorded per
// stage is what the maps prove, not blindly opts.simd_nu.
TEST(CodegenCheckEdge, HalfWidthVectorEmissionValidates) {
  const backend::StageList& list = mutant_list();
  const std::string source = emit_validated(list, 2);
  const analysis::CodegenReport rep = analysis::check_codegen(source, list);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  for (idx_t w : rep.vec_stage_widths) EXPECT_EQ(w, 2);
}

}  // namespace
}  // namespace spiral
