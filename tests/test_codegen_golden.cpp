// Golden-snapshot tests of the emitted C dialect.
//
// The emitter's syntax (backend/codegen_c) writes the code around the
// values once, and analysis::codegen_check reads it back through the
// same syntax, so it trusts that code. These snapshots pin it: an edit
// that changes the rendered shape becomes a failing test with a line
// diff. Two deterministic derivations (no planner, no timing, no
// machine dependence) are emitted and compared byte-for-byte against
// committed golden files.
//
// To bless an intentional dialect change:
//   SPIRAL_UPDATE_GOLDEN=1 ./test_codegen_golden
// then review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"

namespace spiral {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(SPIRAL_TEST_DATA_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// First line where the two texts differ, with both versions — a usable
/// failure message without leaving the test log.
std::string first_line_diff(const std::string& want, const std::string& got) {
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  int line = 0;
  for (;;) {
    ++line;
    const bool ga = static_cast<bool>(std::getline(a, la));
    const bool gb = static_cast<bool>(std::getline(b, lb));
    if (!ga && !gb) return "texts identical";
    if (la != lb || ga != gb) {
      std::ostringstream os;
      os << "first difference at line " << line << ":\n  golden: "
         << (ga ? la : "<eof>") << "\n  emitted: " << (gb ? lb : "<eof>");
      return os.str();
    }
  }
}

/// Exact compare against the committed golden (EXPECT_TRUE on the
/// equality so a mismatch prints the one-line diff, not both
/// multi-thousand-line TUs); SPIRAL_UPDATE_GOLDEN=1 re-blesses.
void expect_matches(const std::string& source, const std::string& name) {
  const std::string path = golden_path(name);
  if (std::getenv("SPIRAL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << source;
    GTEST_SKIP() << "golden updated: " << path;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty())
      << "missing golden " << path
      << " (generate with SPIRAL_UPDATE_GOLDEN=1)";
  EXPECT_TRUE(want == source) << first_line_diff(want, source);
}

std::string emit_validated(const backend::StageList& list, idx_t nu) {
  backend::CodegenOptions cg;
  cg.simd_nu = nu;
  return backend::emit_c(list, cg);
}

// Scalar sequential snapshot: balanced DFT_64, no SIMD, no pool —
// covers tables, codelets, stage loops and the sequential entry.
TEST(CodegenGolden, ScalarSequentialDft64) {
  const backend::StageList list = backend::lower_fused(
      rewrite::formula_from_ruletree(rewrite::balanced_ruletree(64)));
  expect_matches(emit_validated(list, 0), "golden_scalar_dft64.c");
}

// Pooled SIMD snapshot: the paper's multicore derivation DFT_256 =
// CT(16,16) with smp(2,2), emitted at nu=4 — covers the GCC-vector
// bodies, shuffles, remainder head/tail, pool runtime and barriers.
TEST(CodegenGolden, PooledSimdMulticoreDft256) {
  const backend::StageList list =
      backend::lower_fused(rewrite::expand_dfts_balanced(
          rewrite::derive_multicore_ct(256, 16, 2, 2)));
  expect_matches(emit_validated(list, 4), "golden_pool_simd_dft256.c");
}

}  // namespace
}  // namespace spiral
