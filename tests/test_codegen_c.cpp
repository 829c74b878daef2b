// Integration tests for the C code generator: emit a program, compile it
// with the system C compiler, run it, and check its self-test result.
// This exercises the full Spiral pipeline ending in actual generated code.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "util/rng.hpp"

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

/// Removes the listed files when it goes out of scope, so a case leaves
/// nothing behind in the temporary directory, whether it passes or not.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    for (const std::string& p : paths) std::remove(p.c_str());
  }
};

/// Writes `src` to dir/name.c (and `driver`, when given, to
/// dir/name_driver.c), compiles them into one binary and runs it; returns
/// the binary's exit status (or -1 on compile failure, with the compiler's
/// messages added to the failure). The emitted main() calls the entry
/// point with its own static scratch buffers and checks the result
/// against a direct DFT; a driver supplies main() instead.
int compile_and_run(const std::string& src, const std::string& name,
                    const std::string& extra_flags,
                    const std::string& driver = "") {
  const std::string stem = ::testing::TempDir() + "/" + name;
  const std::string cfile = stem + ".c";
  const std::string dfile = stem + "_driver.c";
  const std::string bin = stem + ".bin";
  const std::string log = stem + ".log";
  const RemoveOnExit cleanup{{cfile, dfile, bin, log}};
  std::ofstream(cfile) << src;
  if (!driver.empty()) std::ofstream(dfile) << driver;
  const std::string compile = "cc -O2 -std=c99 " + extra_flags + " -o " +
                              bin + " " + cfile +
                              (driver.empty() ? "" : " " + dfile) +
                              " -lm 2>" + log;
  if (std::system(compile.c_str()) != 0) {
    std::ostringstream messages;
    messages << std::ifstream(log).rdbuf();
    ADD_FAILURE() << "cc failed on " << name << ":\n" << messages.str();
    return -1;
  }
  const int rc = std::system(bin.c_str());
  return WEXITSTATUS(rc);
}

/// Balanced DFT_64 at leaf 32, CT(8, 8): lower_fused() gives two codelet
/// stages with affine sides; lower() keeps the permutation and twiddle
/// passes as copy stages (one of them scaled) and every side as a table.
spl::FormulaPtr balanced64() {
  return rewrite::formula_from_ruletree(
      rewrite::balanced_ruletree(64, /*leaf=*/32));
}

/// The paper's DFT_256 = CT(16,16) with smp(2,2): parallel stages.
spl::FormulaPtr multicore256() {
  return rewrite::expand_dfts_balanced(
      rewrite::derive_multicore_ct(256, 16, 2, 2));
}

TEST(CodegenC, SequentialProgramSelfTests) {
  for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
    for (const bool fused : {true, false}) {
      SCOPED_TRACE("simd_nu=" + std::to_string(nu) +
                   (fused ? " fused" : " unfused"));
      const StageList list = !fused      ? lower(balanced64())
                             : nu == 0   ? lower_fused(balanced64())
                                         : vector_plan_stages(1024, 1);
      CodegenOptions opts;
      opts.function_name = "dft_seq";
      opts.emit_main = true;
      opts.simd_nu = nu;
      const std::string src = emit_c(list, opts);
      EXPECT_NE(src.find("void dft_seq(const double *x, double *y, "
                         "double *b0, double *b1)"),
                std::string::npos);
      EXPECT_EQ(src.find("pool_barrier"), std::string::npos);
      if (fused) {
        EXPECT_EQ(src.find("typedef double vd4") != std::string::npos,
                  nu == 4);
      } else {
        // Non-vacuity: copy stages, a scaled copy and table sides.
        EXPECT_NE(src.find("for (long j = lo; j < hi; ++j)"),
                  std::string::npos);
        EXPECT_NE(src.find("double sr = s"), std::string::npos);
        EXPECT_NE(src.find("const int *inm = s"), std::string::npos);
      }
      EXPECT_EQ(compile_and_run(src,
                                "seq_nu" + std::to_string(nu) +
                                    (fused ? "" : "_unfused"),
                                nu == 0 ? "" : kVectorFlags),
                0);
    }
  }
}

TEST(CodegenC, PersistentPoolProgramSelfTests) {
  // The paper's generated-code execution model: persistent team +
  // sense-reversing spin barriers, created on first call.
  for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
    for (const bool fused : {true, false}) {
      SCOPED_TRACE("simd_nu=" + std::to_string(nu) +
                   (fused ? " fused" : " unfused"));
      const StageList list = !fused    ? lower(multicore256())
                             : nu == 0 ? lower_fused(multicore256())
                                       : vector_plan_stages(4096, 2);
      CodegenOptions opts;
      opts.function_name = "dft_pool";
      opts.emit_main = true;
      opts.simd_nu = nu;
      const std::string src = emit_c(list, opts);
      EXPECT_NE(src.find("pool_barrier"), std::string::npos);
      EXPECT_NE(src.find("sense"), std::string::npos);
      EXPECT_NE(src.find("pthread_create"), std::string::npos);
      if (fused) {
        EXPECT_EQ(src.find("typedef double vd4") != std::string::npos,
                  nu == 4);
      } else {
        EXPECT_NE(src.find("for (long j = lo; j < hi; ++j)"),
                  std::string::npos);
        EXPECT_NE(src.find("const int *inm = s"), std::string::npos);
      }
      EXPECT_EQ(compile_and_run(src,
                                "pool_nu" + std::to_string(nu) +
                                    (fused ? "" : "_unfused"),
                                nu == 0 ? "-pthread"
                                        : "-pthread " + kVectorFlags),
                0);
    }
  }
}

/// main() for a pooled entry point `dft_pool` of size n: one call starts
/// the workers; after they had time to park, the process's CPU time is
/// read over a 100 ms idle window (the main thread sleeps, so it is the
/// workers'); a second call must wake them and reproduce the first
/// output. Exit code 0 when the window cost < 5 ms of CPU and the outputs
/// agree; a worker that spins or yields instead of parking burns about
/// the whole window per worker.
std::string idle_driver(idx_t n) {
  return "#define _POSIX_C_SOURCE 200809L\n"
         "#include <stdio.h>\n#include <string.h>\n#include <time.h>\n"
         "void dft_pool(const double *x, double *y, double *b0, double *b1);\n"
         "enum { N = " + std::to_string(n) + " };\n"
         "static double x[2*N], y[2*N], y2[2*N], b0[2*N], b1[2*N];\n"
         "static double cpu_ms(void) {\n"
         "  struct timespec t;\n"
         "  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);\n"
         "  return t.tv_sec * 1e3 + t.tv_nsec * 1e-6;\n}\n"
         "static void sleep_ms(long ms) {\n"
         "  struct timespec t = {ms / 1000, (ms % 1000) * 1000000L};\n"
         "  nanosleep(&t, 0);\n}\n"
         "int main(void) {\n"
         "  for (int i = 0; i < 2*N; ++i) x[i] = (double)(i * 7919 % 97) / 97.0;\n"
         "  dft_pool(x, y, b0, b1);\n"
         "  sleep_ms(20);\n"
         "  double c0 = cpu_ms();\n"
         "  sleep_ms(100);\n"
         "  double idle = cpu_ms() - c0;\n"
         "  dft_pool(x, y2, b0, b1);\n"
         "  int same = memcmp(y, y2, sizeof y) == 0;\n"
         "  printf(\"idle window 100 ms: %.3f ms CPU, second call %s\\n\",\n"
         "         idle, same ? \"identical\" : \"differs\");\n"
         "  return idle < 5.0 && same ? 0 : 1;\n"
         "}\n";
}

TEST(CodegenC, IdlePoolWorkersPark) {
  // After the spin phase an idle worker of the emitted pool sleeps on a
  // condition variable: its CPU time stays flat while no transform runs,
  // and the next call still wakes it.
  core::PlannerOptions o;
  o.threads = 4;
  const StageList list = core::plan_dft(1024, o)->stages();
  CodegenOptions opts;
  opts.function_name = "dft_pool";
  const std::string src = emit_c(list, opts);
  ASSERT_NE(src.find("enum { POOL_P = 4 }"), std::string::npos);
  EXPECT_NE(src.find("pthread_cond_wait"), std::string::npos);
  EXPECT_EQ(src.find("sched_yield"), std::string::npos);
  EXPECT_EQ(compile_and_run(src, "pool_idle", "-pthread", idle_driver(list.n)),
            0);
}

/// main() for a generated WHT_N entry point `wht`: a seeded complex
/// signal against the direct Hadamard sum
/// y[k] = sum_l (-1)^popcount(k & l) x[l]; exit code 0 within 1e-9*N.
std::string wht_driver(idx_t n) {
  return "#include <stdio.h>\n"
         "void wht(const double *x, double *y, double *b0, double *b1);\n"
         "enum { N = " + std::to_string(n) + " };\n"
         "static double x[2*N], y[2*N], b0[2*N], b1[2*N];\n"
         "int main(void) {\n"
         "  unsigned s = 12345u;\n"
         "  for (int i = 0; i < 2*N; ++i) {\n"
         "    s = s*1103515245u + 12345u;\n"
         "    x[i] = ((double)(s >> 8) / (double)(1u<<24)) - 0.5;\n"
         "  }\n"
         "  wht(x, y, b0, b1);\n"
         "  double err = 0;\n"
         "  for (long k = 0; k < N; ++k) {\n"
         "    double re = 0, im = 0;\n"
         "    for (long l = 0; l < N; ++l) {\n"
         "      int odd = 0;\n"
         "      for (long b = k & l; b; b &= b - 1) odd ^= 1;\n"
         "      re += odd ? -x[2*l] : x[2*l];\n"
         "      im += odd ? -x[2*l+1] : x[2*l+1];\n"
         "    }\n"
         "    double d = y[2*k] - re; if (d < 0) d = -d;\n"
         "    double e = y[2*k+1] - im; if (e < 0) e = -e;\n"
         "    if (d > err) err = d;\n"
         "    if (e > err) err = e;\n"
         "  }\n"
         "  printf(\"max error %g\\n\", err);\n"
         "  return err < 1e-9 * N ? 0 : 1;\n"
         "}\n";
}

TEST(CodegenC, WhtProgramSelfTests) {
  // Generated WHT code: butterflies only, checked against the direct
  // Hadamard sum by a linked driver (the emitted main() checks a DFT).
  for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
    for (const int p : {1, 2}) {
      SCOPED_TRACE("simd_nu=" + std::to_string(nu) + " p=" +
                   std::to_string(p));
      core::PlannerOptions o;
      o.threads = p;
      o.vector_nu = nu;
      const StageList list = core::plan_wht(256, o)->stages();
      CodegenOptions opts;
      opts.function_name = "wht";
      opts.simd_nu = nu;
      const std::string src = emit_c(list, opts);
      EXPECT_NE(src.find("static void wht"), std::string::npos);
      EXPECT_EQ(src.find("pool_barrier") != std::string::npos, p > 1);
      EXPECT_EQ(src.find("typedef double vd4") != std::string::npos,
                nu == 4);
      EXPECT_EQ(compile_and_run(
                    src, "wht_nu" + std::to_string(nu) + "_p" +
                             std::to_string(p),
                    "-pthread" + (nu == 0 ? std::string() : " " + kVectorFlags),
                    wht_driver(list.n)),
                0);
    }
  }
}

/// main() for an entry point `fft` of size n: reads 2n doubles from
/// `in`, transforms them and writes the 2n results to `out`; exit code
/// 0 when both files were read and written whole.
std::string file_driver(idx_t n, const std::string& in,
                        const std::string& out) {
  return "#include <stdio.h>\n"
         "void fft(const double *x, double *y, double *b0, double *b1);\n"
         "enum { N = " + std::to_string(n) + " };\n"
         "static double x[2*N], y[2*N], b0[2*N], b1[2*N];\n"
         "int main(void) {\n"
         "  FILE *f = fopen(\"" + in + "\", \"rb\");\n"
         "  if (!f || fread(x, sizeof x, 1, f) != 1) return 2;\n"
         "  fclose(f);\n"
         "  fft(x, y, b0, b1);\n"
         "  f = fopen(\"" + out + "\", \"wb\");\n"
         "  if (!f || fwrite(y, sizeof y, 1, f) != 1) return 3;\n"
         "  return fclose(f) == 0 ? 0 : 4;\n"
         "}\n";
}

TEST(CodegenC, ScalarProgramMatchesInterpreterBitForBit) {
  // The emitted codelets are the interpreter's codelet template recorded
  // op for op, and the scale tables are the interpreter's values, so at
  // nu = 0 the emitted program computes the same bits as plan->execute
  // once the C compiler may not contract a*b + c into an FMA. The DFT
  // cases are the output-digest plans (tests/data/output_digests.txt)
  // up to 2^12. Left out are the digest plans dft 2^16, 2^20 and 2^22
  // (p = 1 and 4, forward) and dft 2^16 p = 4 inverse: the emitted index
  // and scale tables grow with n, to 6.9 MB of C at 2^16 and hundreds of
  // MB at 2^22.
  struct Case {
    bool wht;
    idx_t n;
    int threads;
    int direction;
  };
  for (const Case& c : {Case{false, 1024, 1, -1}, Case{false, 1024, 4, -1},
                        Case{false, 4096, 1, -1}, Case{false, 4096, 4, -1},
                        Case{false, 4096, 4, 1}, Case{true, 1024, 2, -1}}) {
    const std::string name = std::string(c.wht ? "wht" : "dft") + "_n" +
                             std::to_string(c.n) + "_p" +
                             std::to_string(c.threads) +
                             (c.direction < 0 ? "_fwd" : "_inv");
    SCOPED_TRACE(name);
    core::PlannerOptions o;
    o.threads = c.threads;
    o.direction = c.direction;
    const auto plan = c.wht ? core::plan_wht(c.n, o) : core::plan_dft(c.n, o);
    util::Rng rng(static_cast<std::uint64_t>(c.n));
    const util::cvec x = rng.complex_signal(c.n);
    util::cvec want(x.size());
    plan->execute(x.data(), want.data());

    CodegenOptions opts;
    opts.function_name = "fft";
    const std::string dir = ::testing::TempDir();
    const std::string in = dir + "/" + name + ".in";
    const std::string out = dir + "/" + name + ".out";
    const RemoveOnExit cleanup{{in, out}};
    std::ofstream(in, std::ios::binary)
        .write(reinterpret_cast<const char*>(x.data()),
               static_cast<std::streamsize>(x.size() * sizeof(cplx)));
    ASSERT_EQ(compile_and_run(emit_c(plan->stages(), opts), name,
                              "-ffp-contract=off -pthread",
                              file_driver(c.n, in, out)),
              0);
    util::cvec got(x.size());
    std::ifstream(out, std::ios::binary)
        .read(reinterpret_cast<char*>(got.data()),
              static_cast<std::streamsize>(got.size() * sizeof(cplx)));
    idx_t differ = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(&got[i], &want[i], sizeof(cplx)) != 0) ++differ;
    }
    EXPECT_EQ(differ, 0) << "of " << c.n << " outputs differ in some bit";
  }
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
