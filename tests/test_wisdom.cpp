// Tests for the wisdom subsystem: ruletree wire format, the versioned
// text format with atomic rejection of malformed input, store merge
// semantics, descriptor-based plan rebuilding, and the end-to-end
// round-trip through the plan cache (export -> fresh cache -> import ->
// plan with zero search invocations).
#include <gtest/gtest.h>

#include <cstdio>

#include "core/plan_cache.hpp"
#include "search/search.hpp"
#include "spl/printer.hpp"
#include "test_helpers.hpp"
#include "wisdom/wisdom.hpp"

namespace spiral::wisdom {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

// ---------------------------------------------------------------------------
// Ruletree wire format
// ---------------------------------------------------------------------------

TEST(RuleTreeWire, RoundTripsLeavesAndNodes) {
  const rewrite::RuleTreePtr trees[] = {
      rewrite::RuleTree::leaf(32),
      rewrite::balanced_ruletree(1024),
      rewrite::default_ruletree(4096, 8),
      rewrite::RuleTree::node(rewrite::BreakdownKind::kSixStep,
                              rewrite::RuleTree::leaf(16),
                              rewrite::balanced_ruletree(64, 8)),
  };
  for (const auto& t : trees) {
    const std::string wire = serialize_ruletree(t);
    const auto back = parse_ruletree(wire);
    EXPECT_EQ(rewrite::to_string(back), rewrite::to_string(t)) << wire;
    EXPECT_EQ(serialize_ruletree(back), wire);
  }
}

TEST(RuleTreeWire, ExampleSyntax) {
  auto t = parse_ruletree("ct(ct(8,8),ct(8,8))");
  EXPECT_EQ(t->n, 4096);
  EXPECT_EQ(t->kind, rewrite::BreakdownKind::kCooleyTukey);
  EXPECT_EQ(t->left->n, 64);
}

TEST(RuleTreeWire, RejectsMalformedInput) {
  const char* bad[] = {
      "",            // empty
      "ct(8",        // unbalanced
      "ct(8,8))",    // trailing garbage
      "64junk",      // garbage after leaf
      "foo(2,2)",    // unknown rule
      "ct(1,2)",     // leaf below codelet range
      "ct(128,2)",   // leaf above codelet range (128 > 64)
      "ct(8 ,8)",    // stray whitespace
      "ct(,8)",      // missing child
  };
  for (const char* s : bad) {
    EXPECT_THROW((void)parse_ruletree(s), std::invalid_argument) << s;
  }
}

// ---------------------------------------------------------------------------
// Text format + store
// ---------------------------------------------------------------------------

PlanDescriptor sample_descriptor() {
  PlanDescriptor d;
  d.kind = TransformKind::kDFT;
  d.n = 1024;
  d.threads = 2;
  d.mu = 4;
  d.nu = 0;
  d.leaf = 16;
  d.direction = -1;
  d.trees[32] = rewrite::balanced_ruletree(32, 16);
  d.trees[1024] = rewrite::balanced_ruletree(1024, 16);
  return d;
}

TEST(WisdomText, RoundTripsDescriptors) {
  PlanDescriptor a = sample_descriptor();
  PlanDescriptor b;
  b.kind = TransformKind::kDFT2D;
  b.n = 16;
  b.n2 = 32;
  b.threads = 4;
  b.mu = 2;
  b.nu = 2;
  b.leaf = 32;
  b.direction = 1;

  const std::string text = to_text({a, b});
  std::vector<PlanDescriptor> back;
  std::string error;
  ASSERT_TRUE(parse_text(text, back, error)) << error;
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].key(), a.key());
  EXPECT_EQ(back[1].key(), b.key());
  ASSERT_EQ(back[0].trees.size(), 2u);
  EXPECT_EQ(serialize_ruletree(back[0].trees.at(1024)),
            serialize_ruletree(a.trees.at(1024)));
  // Idempotent: re-serializing parses to the same text.
  EXPECT_EQ(to_text(back), text);
}

TEST(WisdomText, CommentsAndBlankLinesIgnored) {
  const std::string text =
      "# a comment\n\nspiral-wisdom 1\n"
      "# another\n"
      "plan kind=wht n=64 n2=0 p=1 mu=4 nu=0 leaf=32 dir=-1\n"
      "endplan\n";
  std::vector<PlanDescriptor> out;
  std::string error;
  ASSERT_TRUE(parse_text(text, out, error)) << error;
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, TransformKind::kWHT);
}

TEST(WisdomText, RejectsVersionMismatch) {
  WisdomStore store;
  auto r = store.import_text("spiral-wisdom 99\n");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("version"), std::string::npos) << r.error;
  EXPECT_EQ(store.size(), 0u);
}

TEST(WisdomText, RejectsMalformedInputAtomically) {
  const std::string good_plan =
      "plan kind=dft n=256 n2=0 p=2 mu=4 nu=0 leaf=32 dir=-1\nendplan\n";
  const char* bad[] = {
      "",                                       // no header
      "not-wisdom 1\n",                         // wrong magic
      "spiral-wisdom one\n",                    // non-numeric version
      "spiral-wisdom 1\nbogus\n",               // unknown directive
      "spiral-wisdom 1\nendplan\n",             // endplan without plan
      "spiral-wisdom 1\ntree 64 ct(8,8)\n",     // tree outside plan
      "spiral-wisdom 1\nplan kind=dft n=256\n"  // missing fields
      "endplan\n",
      "spiral-wisdom 1\nplan kind=dft n=255 n2=0 p=2 mu=4 nu=0 leaf=32 "
      "dir=-1\nendplan\n",  // n not a power of two (validate())
      "spiral-wisdom 1\nplan kind=dft n=256 n2=0 p=2 mu=4 nu=0 leaf=32 "
      "dir=-1\ntree 64 ct(8,9)\nendplan\n",  // malformed tree
      "spiral-wisdom 1\nplan kind=dft n=256 n2=0 p=2 mu=4 nu=0 leaf=32 "
      "dir=-1\ntree 64 ct(4,8)\nendplan\n",  // tree size != key
      "spiral-wisdom 1\nplan kind=dft n=256 n2=0 p=2 mu=4 nu=0 leaf=32 "
      "dir=-1\n",  // unterminated plan
  };
  for (const char* text : bad) {
    WisdomStore store;
    auto r = store.import_text(std::string(text));
    EXPECT_FALSE(r.ok) << text;
    EXPECT_FALSE(r.error.empty()) << text;
    EXPECT_EQ(store.size(), 0u) << text;
  }
  // Good plan followed by garbage: nothing is merged.
  WisdomStore store;
  auto r = store.import_text("spiral-wisdom 1\n" + good_plan + "garbage\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(store.size(), 0u);
}

// Older builds wrote a `jitkey <hex>` line (the key of a natively
// compiled executor) into each plan block. Such files still import: the
// line is validated and discarded, so the descriptor is the same as
// without it.
TEST(WisdomText, LegacyJitKeyLineIsAcceptedAndDiscarded) {
  const std::string head =
      "spiral-wisdom 1\n"
      "plan kind=dft n=1024 n2=0 p=2 mu=4 nu=0 leaf=16 dir=-1\n";
  const std::string tail =
      "tree 32 ct(2,16)\n"
      "endplan\n";
  std::vector<PlanDescriptor> plain;
  std::vector<PlanDescriptor> legacy;
  std::string error;
  ASSERT_TRUE(parse_text(head + tail, plain, error)) << error;
  ASSERT_TRUE(parse_text(head + "jitkey 0123456789abcdef\n" + tail, legacy,
                         error))
      << error;
  ASSERT_EQ(legacy.size(), 1u);
  EXPECT_EQ(legacy[0].key(), plain[0].key());
  EXPECT_EQ(to_text(legacy), to_text(plain));
  EXPECT_EQ(to_text(legacy).find("jitkey"), std::string::npos);

  // A malformed jitkey line still fails, naming its line.
  const std::pair<std::string, const char*> bad[] = {
      {"spiral-wisdom 1\njitkey 00ff\n", "line 2"},  // outside a block
      {head + "jitkey\n" + tail, "line 3"},            // no value
      {head + "jitkey 00 ff\n" + tail, "line 3"},      // two values
      {head + "jitkey 00FF\n" + tail, "line 3"},       // not lowercase
      {head + "jitkey 0x1\n" + tail, "line 3"},        // not hex
      {head + "jitkey 00\njitkey 00\n" + tail, "line 4"},  // duplicate
  };
  for (const auto& [text, line] : bad) {
    std::vector<PlanDescriptor> out;
    EXPECT_FALSE(parse_text(text, out, error)) << text;
    EXPECT_NE(error.find(std::string("wisdom ") + line), std::string::npos)
        << error;
    EXPECT_NE(error.find("jitkey"), std::string::npos) << error;
  }
}

TEST(WisdomStoreTest, MergePoliciesControlCollisions) {
  WisdomStore store;
  PlanDescriptor a = sample_descriptor();
  EXPECT_TRUE(store.add(a));
  EXPECT_EQ(store.size(), 1u);

  // Same key, different trees.
  PlanDescriptor b = a;
  b.trees.clear();
  b.trees[1024] = rewrite::default_ruletree(1024, 16);

  EXPECT_FALSE(store.add(b, MergePolicy::kPreferExisting));
  auto kept = store.lookup(a.key());
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(serialize_ruletree(kept->trees.at(1024)),
            serialize_ruletree(a.trees.at(1024)));

  EXPECT_TRUE(store.add(b, MergePolicy::kPreferImported));
  auto replaced = store.lookup(a.key());
  ASSERT_TRUE(replaced.has_value());
  EXPECT_EQ(serialize_ruletree(replaced->trees.at(1024)),
            serialize_ruletree(b.trees.at(1024)));
}

TEST(WisdomStoreTest, LookupMissesDifferentKey) {
  WisdomStore store;
  PlanDescriptor a = sample_descriptor();
  store.add(a);
  PlanDescriptor other = a;
  other.threads = 8;  // different key
  EXPECT_FALSE(store.lookup(other.key()).has_value());
}

TEST(WisdomGlobal, FileRoundTrip) {
  forget_wisdom();
  global_wisdom().add(sample_descriptor());
  const std::string path = ::testing::TempDir() + "spiral_test.wisdom";
  ASSERT_TRUE(export_wisdom_to_file(path));
  forget_wisdom();
  EXPECT_EQ(global_wisdom().size(), 0u);
  auto r = import_wisdom_from_file(path);
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.imported, 1u);
  EXPECT_EQ(global_wisdom().size(), 1u);
  forget_wisdom();
  std::remove(path.c_str());
  // Missing files are an error, not a crash.
  EXPECT_FALSE(import_wisdom_from_file("/nonexistent/nowhere.wisdom").ok);
}

// ---------------------------------------------------------------------------
// Descriptor-based planning
// ---------------------------------------------------------------------------

TEST(PlanDescriptorTest, RebuildsIdenticalPlan) {
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 2;
  opt.leaf = 8;  // force the chooser to expand the per-processor DFT_16s
  PlanDescriptor desc;
  auto plan = core::plan_dft(256, opt, &desc);
  EXPECT_EQ(desc.kind, TransformKind::kDFT);
  EXPECT_EQ(desc.n, 256);
  EXPECT_FALSE(desc.trees.empty());

  auto rebuilt = core::plan_from_descriptor(desc, opt);
  EXPECT_EQ(rebuilt->describe(), plan->describe());
  EXPECT_EQ(spl::to_string(rebuilt->formula()),
            spl::to_string(plan->formula()));

  util::Rng rng(21);
  const auto x = rng.complex_signal(256);
  util::cvec y(256);
  rebuilt->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(256));
}

TEST(PlanDescriptorTest, SurvivesTextRoundTripAndRebuilds) {
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 2;
  opt.vector_nu = 2;
  PlanDescriptor desc;
  auto plan = core::plan_dft(1024, opt, &desc);

  std::vector<PlanDescriptor> back;
  std::string error;
  ASSERT_TRUE(parse_text(to_text({desc}), back, error)) << error;
  ASSERT_EQ(back.size(), 1u);
  auto rebuilt = core::plan_from_descriptor(back[0], opt);
  EXPECT_EQ(rebuilt->describe(), plan->describe());
}

TEST(PlanDescriptorTest, AllTransformKindsRoundTrip) {
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 2;
  PlanDescriptor d_wht, d_2d, d_batch;
  auto p_wht = core::plan_wht(128, opt, &d_wht);
  auto p_2d = core::plan_dft_2d(16, 32, opt, &d_2d);
  auto p_batch = core::plan_batch_dft(64, 4, opt, &d_batch);
  EXPECT_EQ(core::plan_from_descriptor(d_wht, opt)->describe(),
            p_wht->describe());
  EXPECT_EQ(core::plan_from_descriptor(d_2d, opt)->describe(),
            p_2d->describe());
  EXPECT_EQ(core::plan_from_descriptor(d_batch, opt)->describe(),
            p_batch->describe());
}

TEST(PlanDescriptorTest, WhtKeepsItsVectorWidth) {
  // A WHT descriptor records nu: the rebuilt plan runs every stage at the
  // original's width, and so does the one a wisdom replay hands out.
  auto widths = [](const core::FftPlan& plan) {
    std::vector<idx_t> w;
    for (const auto& sp : plan.stage_plans()) w.push_back(sp.width);
    return w;
  };
  for (const int lg : {10, 12, 16}) {
    core::PlannerOptions opt;
    opt.vector_nu = 4;
    PlanDescriptor d;
    const auto plan = core::plan_wht(idx_t{1} << lg, opt, &d);
    EXPECT_EQ(d.nu, 4);
    EXPECT_EQ(widths(*core::plan_from_descriptor(d, opt)), widths(*plan))
        << "n=2^" << lg;
    core::PlanCache cache;
    cache.wisdom().add(d);
    const auto replayed = cache.wht(idx_t{1} << lg, opt);
    EXPECT_EQ(cache.stats().wisdom_hits, 1u);
    EXPECT_EQ(widths(*replayed), widths(*plan)) << "n=2^" << lg;
  }
}

TEST(PlanDescriptorTest, WhtRequestsDifferingInDirectionShareOneEntry) {
  core::PlanCache cache;
  core::PlannerOptions fwd, inv;
  inv.direction = +1;
  const auto a = cache.wht(256, fwd);
  const auto b = cache.wht(256, inv);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.dft(256, fwd), cache.dft(256, inv));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PlanDescriptorTest, ValidateRejectsBadDescriptors) {
  PlanDescriptor d = sample_descriptor();
  d.n = 255;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = sample_descriptor();
  d.leaf = 128;  // > kMaxCodeletSize
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = sample_descriptor();
  d.direction = 0;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = sample_descriptor();
  d.trees[64] = rewrite::balanced_ruletree(128);  // size mismatch
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = sample_descriptor();
  EXPECT_THROW((void)core::plan_from_descriptor(
                   [&] { auto bad = d; bad.threads = 0; return bad; }()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end wisdom round-trip through the plan cache
// ---------------------------------------------------------------------------

TEST(WisdomRoundTrip, ImportedWisdomSkipsAutotuneSearch) {
  core::PlannerOptions opt;
  opt.autotune = true;
  opt.leaf = 16;

  // First process: autotuned planning, then export.
  core::PlanCache first;
  auto tuned = first.dft(256, opt);
  const auto first_stats = first.stats();
  EXPECT_EQ(first_stats.misses, 1u);
  EXPECT_EQ(first_stats.wisdom_hits, 0u);
  EXPECT_GT(first_stats.plan_nanos, 0u);
  const std::string text = first.export_wisdom();
  EXPECT_NE(text.find("plan kind=dft n=256"), std::string::npos) << text;
  EXPECT_NE(text.find("tree "), std::string::npos) << text;

  // Second process: fresh cache, import, plan again.
  core::PlanCache second;
  auto r = second.import_wisdom(text);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GE(r.imported, 1u);

  const std::uint64_t searches_before = search::dp_search_invocations();
  auto replayed = second.dft(256, opt);
  EXPECT_EQ(search::dp_search_invocations(), searches_before)
      << "imported wisdom must skip the DP search entirely";

  const auto second_stats = second.stats();
  EXPECT_EQ(second_stats.misses, 1u);
  EXPECT_EQ(second_stats.wisdom_hits, 1u);
  EXPECT_LT(second_stats.plan_nanos, first_stats.plan_nanos)
      << "replaying a descriptor must be cheaper than autotuned planning";

  // The rebuilt plan is the same program...
  EXPECT_EQ(replayed->describe(), tuned->describe());
  EXPECT_EQ(spl::to_string(replayed->formula()),
            spl::to_string(tuned->formula()));
  // ...and still computes the DFT.
  util::Rng rng(22);
  const auto x = rng.complex_signal(256);
  util::cvec y(256);
  replayed->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(256));
}

TEST(WisdomRoundTrip, MalformedImportLeavesCacheUsable) {
  core::PlanCache cache;
  auto r = cache.import_wisdom("spiral-wisdom 1\nplan oops\n");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(cache.wisdom().size(), 0u);
  // Planning still works normally after a rejected import.
  auto plan = cache.dft(64);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(cache.stats().wisdom_hits, 0u);
}

}  // namespace
}  // namespace spiral::wisdom
