// Integration tests for the C code generator: emit a program, compile it
// with the system C compiler, run it, and check its self-test result.
// This exercises the full Spiral pipeline ending in actual generated code.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>

#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"

namespace spiral::backend {
namespace {

/// Compile flags for vector emission (simd_nu > 0): C11 and the host
/// ISA, so the GNU-C vector bodies lower to the widest registers the
/// machine has. Later flags override the harness's -std=c99.
const std::string kVectorFlags = "-std=c11 -march=native";

/// The program of a vector_nu=4 plan: its across-iterations stages emit
/// as GNU-C vector bodies under CodegenOptions::simd_nu = 4.
StageList vector_plan_stages(idx_t n, int threads) {
  core::PlannerOptions o;
  o.threads = threads;
  o.vector_nu = 4;
  return core::plan_dft(n, o)->stages();
}

/// Writes `src` to dir/name.c, compiles and runs it; returns the exit
/// status of the generated binary (or -1 on compile failure). The emitted
/// main() calls the entry point with its own static scratch buffers and
/// checks the result against a direct DFT.
int compile_and_run(const std::string& src, const std::string& name,
                    const std::string& extra_flags) {
  const std::string dir = ::testing::TempDir();
  const std::string cfile = dir + "/" + name + ".c";
  const std::string bin = dir + "/" + name + ".bin";
  {
    std::ofstream os(cfile);
    os << src;
  }
  const std::string compile = "cc -O2 -std=c99 " + extra_flags + " -o " +
                              bin + " " + cfile + " -lm 2>" + dir + "/" +
                              name + ".log";
  if (std::system(compile.c_str()) != 0) return -1;
  const int rc = std::system(bin.c_str());
  return WEXITSTATUS(rc);
}

TEST(CodegenC, SequentialProgramSelfTests) {
  for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
    SCOPED_TRACE("simd_nu=" + std::to_string(nu));
    const StageList list =
        nu == 0 ? lower_fused(rewrite::formula_from_ruletree(
                      rewrite::balanced_ruletree(64)))
                : vector_plan_stages(1024, 1);
    CodegenOptions opts;
    opts.function_name = "dft_seq";
    opts.emit_main = true;
    opts.simd_nu = nu;
    const std::string src = emit_c(list, opts);
    EXPECT_NE(src.find("void dft_seq(const double *x, double *y, "
                       "double *b0, double *b1)"),
              std::string::npos);
    EXPECT_EQ(src.find("typedef double vd4") != std::string::npos, nu == 4);
    EXPECT_EQ(compile_and_run(src, "seq_nu" + std::to_string(nu),
                              nu == 0 ? "" : kVectorFlags),
              0);
  }
}

TEST(CodegenC, MulticoreOpenMPProgramSelfTests) {
  auto f = rewrite::derive_multicore_ct(256, 16, 2, 2);
  auto g = rewrite::expand_dfts_balanced(f);
  auto list = lower_fused(g);
  CodegenOptions opts;
  opts.function_name = "dft256_smp";
  opts.threading = CodegenThreading::kOpenMP;
  opts.emit_main = true;
  const std::string src = emit_c(list, opts);
  EXPECT_NE(src.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_EQ(compile_and_run(src, "omp256", "-fopenmp"), 0);
}

TEST(CodegenC, MulticorePthreadsProgramSelfTests) {
  auto f = rewrite::derive_multicore_ct(256, 16, 2, 2);
  auto g = rewrite::expand_dfts_balanced(f);
  auto list = lower_fused(g);
  CodegenOptions opts;
  opts.function_name = "dft256_pt";
  opts.threading = CodegenThreading::kPthreads;
  opts.emit_main = true;
  const std::string src = emit_c(list, opts);
  EXPECT_NE(src.find("pthread_create"), std::string::npos);
  EXPECT_EQ(compile_and_run(src, "pt256", "-pthread"), 0);
}

TEST(CodegenC, PersistentPoolProgramSelfTests) {
  // The paper's generated-code execution model: persistent team +
  // sense-reversing spin barriers, created on first call.
  for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
    SCOPED_TRACE("simd_nu=" + std::to_string(nu));
    const StageList list =
        nu == 0 ? lower_fused(rewrite::expand_dfts_balanced(
                      rewrite::derive_multicore_ct(256, 16, 2, 2)))
                : vector_plan_stages(4096, 2);
    CodegenOptions opts;
    opts.function_name = "dft_pool";
    opts.threading = CodegenThreading::kPthreadsPool;
    opts.emit_main = true;
    opts.simd_nu = nu;
    const std::string src = emit_c(list, opts);
    EXPECT_NE(src.find("pool_barrier"), std::string::npos);
    EXPECT_NE(src.find("sense"), std::string::npos);
    EXPECT_NE(src.find("pthread_create"), std::string::npos);
    EXPECT_EQ(src.find("typedef double vd4") != std::string::npos, nu == 4);
    EXPECT_EQ(compile_and_run(src, "pool_nu" + std::to_string(nu),
                              nu == 0 ? "-pthread"
                                      : "-pthread " + kVectorFlags),
              0);
  }
}

TEST(CodegenC, WhtProgramSelfTests) {
  // Generated WHT code: butterflies only. The self-test main checks
  // against the direct DFT, which does not apply here, so emit without
  // main and link a handwritten driver instead? Simpler: validate the
  // source compiles as a translation unit.
  auto f = rewrite::expand_whts(spl::WHT(64), 8);
  auto list = lower_fused(f);
  CodegenOptions opts;
  opts.function_name = "wht64";
  const std::string src = emit_c(list, opts);
  EXPECT_NE(src.find("static void wht8"), std::string::npos);
  const std::string dir = ::testing::TempDir();
  const std::string cfile = dir + "/wht64.c";
  {
    std::ofstream os(cfile);
    os << src;
  }
  const std::string compile =
      "cc -O2 -std=c99 -c -o " + dir + "/wht64.o " + cfile;
  EXPECT_EQ(std::system(compile.c_str()), 0);
}

TEST(CodegenC, EmitsTablesAndCodelets) {
  auto f = rewrite::formula_from_ruletree(rewrite::default_ruletree(64, 8));
  const std::string src = emit_c(lower_fused(f));
  // Stage 0's input side is either an emitted table or (when affine) an
  // inline base + it*stride expression marked by comment.
  const bool has_table =
      src.find("static const int s0_in") != std::string::npos;
  const bool has_affine = src.find("s0_in: affine") != std::string::npos;
  EXPECT_TRUE(has_table || has_affine) << src.substr(0, 400);
  EXPECT_NE(src.find("static void dft8f"), std::string::npos);
  // No parallel constructs requested:
  EXPECT_EQ(src.find("pthread"), std::string::npos);
  EXPECT_EQ(src.find("omp"), std::string::npos);
}

TEST(CodegenC, GeneratedSourceMentionsStages) {
  auto f = rewrite::cooley_tukey(8, 8);
  const std::string src = emit_c(lower_fused(f));
  EXPECT_NE(src.find("stage0"), std::string::npos);
  EXPECT_NE(src.find("stage1"), std::string::npos);
}

}  // namespace
}  // namespace spiral::backend
