// Unit tests for src/util: integer helpers, aligned vectors and scratch,
// RNG, timing.
#include <gtest/gtest.h>

#include <cstdint>

#include "util/aligned_vector.hpp"
#include "util/cli.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace spiral {
namespace {

TEST(Util, IsPow2) {
  EXPECT_TRUE(util::is_pow2(1));
  EXPECT_TRUE(util::is_pow2(2));
  EXPECT_TRUE(util::is_pow2(1024));
  EXPECT_FALSE(util::is_pow2(0));
  EXPECT_FALSE(util::is_pow2(3));
  EXPECT_FALSE(util::is_pow2(-4));
  EXPECT_FALSE(util::is_pow2(1536));
}

TEST(Util, Log2Exact) {
  EXPECT_EQ(util::log2_exact(1), 0);
  EXPECT_EQ(util::log2_exact(2), 1);
  EXPECT_EQ(util::log2_exact(1 << 20), 20);
}

TEST(Util, Log2Floor) {
  EXPECT_EQ(util::log2_floor(1), 0);
  EXPECT_EQ(util::log2_floor(3), 1);
  EXPECT_EQ(util::log2_floor(1023), 9);
  EXPECT_EQ(util::log2_floor(1024), 10);
}

TEST(Util, CeilDiv) {
  EXPECT_EQ(util::ceil_div(10, 3), 4);
  EXPECT_EQ(util::ceil_div(9, 3), 3);
  EXPECT_EQ(util::ceil_div(1, 8), 1);
}

TEST(Util, Divides) {
  EXPECT_TRUE(util::divides(4, 12));
  EXPECT_FALSE(util::divides(5, 12));
  EXPECT_FALSE(util::divides(0, 12));
}

TEST(Util, RequireThrows) {
  EXPECT_NO_THROW(util::require(true, "ok"));
  EXPECT_THROW(util::require(false, "boom"), std::invalid_argument);
}

TEST(Util, AlignedVectorIsCacheLineAligned) {
  for (int rep = 0; rep < 16; ++rep) {
    util::cvec v(17 + rep);
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    EXPECT_EQ(addr % util::kBufferAlignment, 0u)
        << "allocation " << rep << " not aligned";
  }
}

TEST(Util, AlignedVectorGrowsAndCopies) {
  util::cvec v;
  for (int i = 0; i < 1000; ++i) v.push_back(cplx(i, -i));
  ASSERT_EQ(v.size(), 1000u);
  EXPECT_EQ(v[999], cplx(999, -999));
  util::cvec w = v;  // allocator propagation
  EXPECT_EQ(w[123], v[123]);
}

TEST(Util, ScratchStaysAlignedAcrossGrowth) {
  // The streamed group writes are taken only into a 64 B-aligned
  // destination and silently fall back to plain stores otherwise, so a
  // misaligned scratch would show only as a slowdown: check every size,
  // from a few elements up to ones the allocator maps fresh.
  const auto aligned = [](const util::scratch_cvec& v) {
    return reinterpret_cast<std::uintptr_t>(v.data()) %
               util::kBufferAlignment ==
           0;
  };
  util::scratch_cvec grown;
  for (std::size_t n : {1u, 3u, 17u, 64u, 1000u, 4097u, 1u << 16, 1u << 21}) {
    util::grow_scratch(grown, n);
    EXPECT_EQ(grown.size(), n);
    EXPECT_TRUE(aligned(grown)) << "grown to " << n;
  }
  const cplx* const big = grown.data();
  util::grow_scratch(grown, 5);  // never shrinks
  EXPECT_EQ(grown.size(), std::size_t{1} << 21);
  EXPECT_EQ(grown.data(), big);
}

TEST(Util, RngIsDeterministic) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

TEST(Util, RngSignalHasRequestedLength) {
  util::Rng rng;
  auto v = rng.complex_signal(257);
  EXPECT_EQ(v.size(), 257u);
  // Values must lie in the documented range.
  for (const auto& x : v) {
    EXPECT_LT(std::abs(x.real()), 1.0 + 1e-12);
    EXPECT_LT(std::abs(x.imag()), 1.0 + 1e-12);
  }
}

TEST(Util, RngUniformIntBounds) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const idx_t v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Util, PseudoMflopsMatchesPaperDefinition) {
  // 5 N log2 N / t(us): N=1024, t=51.2us -> 5*1024*10/51.2 = 1000 Mflop/s.
  EXPECT_NEAR(util::pseudo_mflops(1024, 51.2e-6), 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(util::pseudo_mflops(1024, 0.0), 0.0);
}

TEST(Util, StopwatchAdvances) {
  util::Stopwatch w;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(w.seconds(), 0.0);
  EXPECT_GT(sink, 0.0);
}

TEST(Util, TimeMinSecondsReturnsPositive) {
  volatile int sink = 0;
  const double t = util::time_min_seconds([&] { sink = sink + 1; }, 2, 1e-5);
  EXPECT_GT(t, 0.0);
  EXPECT_LT(t, 1.0);
}

TEST(Util, CliParsesFlagsAndPositionals) {
  const char* argv[] = {"prog", "--machine=coreduo", "--verbose",
                        "--n=1024", "input.txt"};
  util::CliArgs args(5, const_cast<char**>(argv));
  EXPECT_EQ(args.get("machine"), "coreduo");
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get_int("n", 0), 1024);
  EXPECT_EQ(args.get_int("m", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "input.txt");
}

}  // namespace
}  // namespace spiral
