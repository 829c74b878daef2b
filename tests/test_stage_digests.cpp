// IR-equivalence gate: every stage of a fixed grid of plans is hashed
// element by element and compared with committed digests.
//
// The digest covers each stage's shape fields, in_index/out_index for
// every flattened position k = it*cn + l, the affine flags, and the bit
// pattern of every fused scale value, read position by position through
// the scale's accessor. Equal digests with unchanged
// kernels mean bit-for-bit equal outputs, so a change to the lowering or
// fusion machinery (index encodings, twiddle handling, fusion order) is
// proven output-neutral by this test alone. The grid covers 2-power
// transforms and batches whose count has an odd factor (3, 6, 12), whose
// maps carry the bit-stride outer digit, sequential and parallel.
//
// To bless an intentional IR change:
//   SPIRAL_UPDATE_GOLDEN=1 ./test_stage_digests
// then review the digest diff like any other code change.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/spiral_fft.hpp"

namespace spiral {
namespace {

using backend::Stage;
using backend::StageList;

/// 64-bit multiplicative word hash (FNV-style mixing per 64-bit word).
struct Hasher {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t w) {
    h ^= w;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  void add_double(double d) {
    std::uint64_t w = 0;
    std::memcpy(&w, &d, sizeof w);
    add(w);
  }
  void add_scale(const util::cvec& v) {
    add(v.size());
    for (const cplx& z : v) {
      add_double(z.real());
      add_double(z.imag());
    }
  }
};

std::uint64_t digest(const StageList& list) {
  Hasher hs;
  hs.add(static_cast<std::uint64_t>(list.n));
  hs.add(list.stages.size());
  for (const Stage& s : list.stages) {
    hs.add(static_cast<std::uint64_t>(s.iters));
    hs.add(static_cast<std::uint64_t>(s.cn));
    hs.add(static_cast<std::uint64_t>(s.sign + 2));
    hs.add((s.is_compute ? 1U : 0U) | (s.wht ? 2U : 0U) |
           (s.in_affine ? 4U : 0U) | (s.out_affine ? 8U : 0U));
    hs.add(static_cast<std::uint64_t>(s.parallel_p));
    hs.add(static_cast<std::uint64_t>(s.sched_block));
    for (idx_t it = 0; it < s.iters; ++it) {
      for (idx_t l = 0; l < s.cn; ++l) {
        hs.add(static_cast<std::uint64_t>(s.in_index(it, l)));
        hs.add(static_cast<std::uint64_t>(s.out_index(it, l)));
      }
    }
    hs.add_scale(s.in_scale.expand());
    hs.add_scale(s.out_scale.expand());
  }
  return hs.h;
}

core::PlannerOptions options(int p, idx_t nu) {
  core::PlannerOptions opt;
  opt.threads = p;
  opt.vector_nu = nu;
  opt.verify_lowering = false;
  return opt;
}

void add_line(std::ostringstream& os, const std::string& name,
              const core::FftPlan& plan) {
  // Lowering tabulates no index map: every side is bit-stride, and the
  // affine flags are exactly what the maps' affine views say.
  for (const Stage& s : plan.stages().stages) {
    EXPECT_TRUE(s.in_map.empty() && s.out_map.empty())
        << name << ": " << s.label;
    EXPECT_EQ(s.in_affine, s.in_bits.affine(s.cn).has_value())
        << name << ": " << s.label;
    EXPECT_EQ(s.out_affine, s.out_bits.affine(s.cn).has_value())
        << name << ": " << s.label;
  }
  os << name << " " << std::hex << digest(plan.stages()) << std::dec << "\n";
}

/// The whole grid, one "<plan> <digest>" line per plan.
std::string grid_digests() {
  std::ostringstream os;
  for (int k = 4; k <= 16; ++k) {
    for (int p : {1, 2, 4}) {
      for (idx_t nu : {0, 4}) {
        std::ostringstream name;
        name << "dft n=2^" << k << " p=" << p << " nu=" << nu;
        add_line(os, name.str(), *core::plan_dft(idx_t{1} << k, options(p, nu)));
      }
    }
  }
  add_line(os, "dft n=2^20 p=4 nu=4", *core::plan_dft(idx_t{1} << 20, options(4, 4)));
  add_line(os, "wht n=2^10 p=4", *core::plan_wht(1 << 10, options(4, 0)));
  add_line(os, "dft2d 64x64 p=4", *core::plan_dft_2d(64, 64, options(4, 0)));
  for (idx_t batch : {3, 8, 6, 12}) {
    for (idx_t n : {64, 256}) {
      for (int p : {2, 4}) {
        std::ostringstream name;
        name << "batch k=" << batch << " n=" << n << " p=" << p;
        add_line(os, name.str(), *core::plan_batch_dft(n, batch, options(p, 0)));
      }
    }
  }
  add_line(os, "batch k=3 n=256 p=2 nu=4", *core::plan_batch_dft(256, 3, options(2, 4)));
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(StageDigests, GridMatchesCommittedDigests) {
  const std::string path = std::string(SPIRAL_TEST_DATA_DIR) + "/stage_digests.txt";
  const std::string got = grid_digests();
  if (std::getenv("SPIRAL_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    GTEST_SKIP() << "digests updated: " << path;
  }
  const std::string want = read_file(path);
  ASSERT_FALSE(want.empty()) << "missing " << path
                             << " (generate with SPIRAL_UPDATE_GOLDEN=1)";
  std::istringstream a(want);
  std::istringstream b(got);
  std::string la;
  std::string lb;
  int mismatches = 0;
  while (std::getline(a, la)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(b, lb))) << "missing plan: " << la;
    if (la != lb) {
      ++mismatches;
      ADD_FAILURE() << "digest differs\n  committed: " << la << "\n  computed:  " << lb;
    }
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(b, lb))) << "extra plan: " << lb;
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace spiral
