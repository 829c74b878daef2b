// spiral-lint: static verification of lowered programs from the command
// line. Lints either every plan recorded in a wisdom file or a single
// transform specification, printing the analyzer's findings and exiting
// nonzero when any are present — so CI can gate on the paper's
// correctness/performance guarantees (Definition 1: load balance and
// false-sharing freedom) without executing anything.
//
// A third mode audits the rewriting system itself (analysis/rule_audit):
// per-rule dense soundness on an instantiation grid, the well-founded
// termination measure on every firing, Definition-1 fuzzing, and
// dead-rule coverage. --mutant applies a deliberately broken rule set so
// CI can prove the auditor actually catches defects.
//
// Usage:
//   spiral-lint --wisdom=FILE [common flags]
//   spiral-lint --kind=dft|wht|dft2d|batch --n=N [--n2=M] [--threads=P]
//               [--nu=NU] [--leaf=L] [--dir=-1|1] [--sched-block=B]
//               [common flags]
//   spiral-lint --audit-rules [--mutant=NAME] [--fuzz-iters=N] [--seed=S]
//               [--max-steps=N] [--quiet]
//
// Common flags:
//   --mu=MU          cache-line length in complex doubles (default 4)
//   --imbalance=X    load-imbalance warning threshold (default 1.5)
//   --no-coverage / --no-races / --no-false-sharing / --no-load-balance
//                    disable individual diagnostic groups
//   --quiet          suppress per-plan reports; print only the summary
//
// Exit codes: 0 = all plans clean, 1 = findings reported, 2 = bad usage,
// unreadable/corrupt input, or a plan that cannot be rebuilt at all.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/codegen_check.hpp"
#include "analysis/rule_audit.hpp"
#include "analysis/verify.hpp"
#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "backend/simd.hpp"
#include "backend/stage_group.hpp"
#include "baselines/fft_iterative.hpp"
#include "core/spiral_fft.hpp"
#include "spl/dense.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "wisdom/wisdom.hpp"

namespace {

constexpr int kExitClean = 0;
constexpr int kExitFindings = 1;
constexpr int kExitUsage = 2;

void usage() {
  std::fprintf(stderr,
               "usage: spiral-lint --wisdom=FILE [flags]\n"
               "       spiral-lint --kind=dft|wht|dft2d|batch --n=N [--n2=M]"
               " [--threads=P]\n"
               "                   [--nu=NU] [--leaf=L] [--dir=-1|1]"
               " [--sched-block=B] [flags]\n"
               "       spiral-lint --audit-rules [--mutant=NAME]"
               " [--fuzz-iters=N] [--seed=S] [--max-steps=N]\n"
               "flags: --mu=MU --imbalance=X --quiet\n"
               "       --no-coverage --no-races --no-false-sharing"
               " --no-load-balance\n"
               "       --mutate-affine[=D]  skew affine strides by D"
               " (mutation-testing the verifier)\n"
               "       --mutate-batch-stride[=D]  skew per-iteration output"
               " strides by D (models a\n"
               "                            mis-packed coalesced batch;"
               " caught statically and by --check-exec)\n"
               "       --mutate-twiddle     conjugate fused twiddle values"
               " (caught by --check-exec)\n"
               "       --mutate-pingpong    reverse the executor's stage"
               " walk (caught by --check-exec)\n"
               "       --mutate-vecform     mis-report strided-lane SIMD"
               " shapes as contiguous (caught by --check-exec)\n"
               "       --mutate-group       group stages without the block"
               " proof (caught statically)\n"
               "       --validate-codegen   statically validate the emitted"
               " C against the plan's\n"
               "                            stage list"
               " (analysis::codegen_check; no compiler involved)\n"
               "       --mutate-codegen=K   seed an emitter defect before"
               " validating; K one of\n"
               "                            stride-skew, drop-barrier,"
               " swap-lanes, narrow-index\n"
               "                            (implies --validate-codegen)\n"
               "       --check-exec         also execute each plan against"
               " its formula's dense matrix\n"
               "                            (above n=4096: against its"
               " stages run one at a time, bit\n"
               "                            for bit, and a DFT against"
               " the radix-2 baseline)\n"
               "exit:  0 clean, 1 findings, 2 usage/corrupt input\n");
}

/// One linted plan: its display name, the verifier's report, and (with
/// --check-exec) the result of executing it against the dense semantics
/// of its own formula.
struct LintItem {
  std::string name;
  spiral::analysis::Report report;
  bool exec_checked = false;
  bool exec_ok = true;
  std::string exec_failure;  ///< what the failed parity check saw
  bool codegen_checked = false;
  bool codegen_ok = true;
  spiral::analysis::CodegenReport codegen;
};

/// --validate-codegen: emits the plan's program as C at the requested
/// SIMD width and runs the static translation validator on the result.
/// With --mutate-codegen a seeded emitter defect is active, and CI gates
/// on the validator catching it — before any compiler runs.
void check_codegen_emission(const spiral::backend::StageList& list,
                            spiral::idx_t nu, spiral::idx_t mu,
                            LintItem* item) {
  using namespace spiral;
  backend::CodegenOptions cg;
  cg.simd_nu = nu;
  const std::string source = backend::emit_c(list, cg);
  analysis::CodegenCheckOptions cko;
  cko.mu = mu;
  item->codegen = analysis::check_codegen(source, list, cko);
  item->codegen_checked = true;
  item->codegen_ok = item->codegen.clean();
}

/// Largest plan --check-exec compares against the dense matrix of its
/// formula: n^2 complex entries, 256 MiB at this size.
constexpr spiral::idx_t kDenseExecLimit = 4096;

/// Relative L2 error bound of a DFT against the radix-2 baseline, in
/// units of log2(n) * machine epsilon.
constexpr double kFftErrorPerLog = 2.0;

/// y = the plan's stages applied one at a time, each as a single-stage
/// Program with the plan's SIMD width: the flat schedule, which never
/// forms a stage group.
spiral::util::cvec run_stage_by_stage(const spiral::core::FftPlan& plan,
                                      spiral::idx_t nu,
                                      const spiral::util::cvec& x) {
  using namespace spiral;
  const backend::StageList& list = plan.stages();
  backend::ExecContext ctx;
  util::cvec a = x;
  util::cvec b(x.size());
  for (std::size_t k = list.stages.size(); k-- > 0;) {
    backend::Program one(backend::StageList{list.n, {list.stages[k]}},
                         backend::ExecPolicy::kThreadPool);
    one.enable_simd(nu);
    one.execute(ctx, a.data(), b.data());
    std::swap(a, b);
  }
  return a;
}

/// Executes `plan` on a seeded random signal and compares it with its
/// spec. Up to kDenseExecLimit the spec is the dense matrix of the
/// plan's formula, which the static verifier trusts, so value-level
/// defects it cannot see — wrong twiddle values, a reversed ping-pong
/// walk — surface only here. Above it (the dense matrix no longer fits
/// memory) the plan must match its own stages run one at a time bit for
/// bit, which checks the walk and its stage groups; and a DFT plan
/// (dft_sign != 0) must match the radix-2 baseline within
/// kFftErrorPerLog * log2(n) * epsilon relative L2 error, which checks
/// the stages themselves.
void check_execution(const spiral::core::FftPlan& plan, spiral::idx_t nu,
                     int dft_sign, LintItem* item) {
  using namespace spiral;
  item->exec_checked = true;
  const idx_t n = plan.size();
  util::Rng rng(util::kDefaultSeed ^ static_cast<std::uint64_t>(n));
  const util::cvec x = rng.complex_signal(n);
  util::cvec got(static_cast<std::size_t>(n));
  plan.execute(x.data(), got.data());
  char buf[160];
  if (n <= kDenseExecLimit) {
    const util::cvec want = spl::to_dense(plan.formula()).apply(x);
    double err = 0.0;
    double mag = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      err = std::max(err, std::abs(got[i] - want[i]));
      mag = std::max(mag, std::abs(want[i]));
    }
    item->exec_ok = err <= 1e-9 * std::max(1.0, mag);
    std::snprintf(buf, sizeof buf,
                  "max deviation %.3e from the formula's dense semantics",
                  err);
    if (!item->exec_ok) item->exec_failure = buf;
    return;
  }
  const util::cvec flat = run_stage_by_stage(plan, nu, x);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != flat[i]) ++differ;
  }
  if (differ > 0) {
    item->exec_ok = false;
    std::snprintf(buf, sizeof buf,
                  "%zu of %lld outputs differ from the stages run one at a "
                  "time",
                  differ, static_cast<long long>(n));
    item->exec_failure = buf;
    return;
  }
  if (dft_sign == 0) return;
  util::cvec want = x;
  baselines::fft_iterative_inplace(want.data(), n, dft_sign);
  double err2 = 0.0;
  double mag2 = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err2 += std::norm(got[i] - want[i]);
    mag2 += std::norm(want[i]);
  }
  const double rel = std::sqrt(err2 / mag2);
  const double bound = kFftErrorPerLog * std::log2(static_cast<double>(n)) *
                       std::numeric_limits<double>::epsilon();
  item->exec_ok = rel <= bound;
  std::snprintf(buf, sizeof buf,
                "relative L2 error %.3e against the radix-2 baseline "
                "(bound %.3e)",
                rel, bound);
  if (!item->exec_ok) item->exec_failure = buf;
}

/// --audit-rules: audit the rewriting system (optionally a mutant of it)
/// and gate on error-severity findings.
int run_rule_audit(const spiral::util::CliArgs& args) {
  using namespace spiral;

  analysis::RuleAuditOptions opt;
  opt.fuzz_iters = static_cast<int>(
      args.get_int("fuzz-iters", opt.fuzz_iters));
  opt.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<idx_t>(opt.seed)));
  opt.max_steps = static_cast<int>(args.get_int("max-steps", opt.max_steps));
  const bool quiet = args.has("quiet");

  std::vector<analysis::NamedRuleSet> sets;
  std::string what = "shipped rule sets";
  if (args.has("mutant")) {
    const std::string name = args.get("mutant");
    try {
      sets = analysis::mutated_rule_sets(name);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "spiral-lint: %s\n", e.what());
      return kExitUsage;
    }
    what = "mutant '" + name + "'";
  } else {
    sets = analysis::registered_rule_sets();
  }

  const analysis::RuleAuditReport report =
      analysis::audit_rule_sets(sets, opt);
  if (!quiet || !report.ok()) {
    std::printf("%s", report.to_string().c_str());
  }
  std::printf("spiral-lint: rule audit of %s: %zu finding(s), %zu error(s), "
              "%zu warning(s)\n",
              what.c_str(), report.findings.size(), report.error_count(),
              report.warning_count());
  return report.ok() ? kExitClean : kExitFindings;
}

int run(const spiral::util::CliArgs& args) {
  using namespace spiral;

  if (args.has("audit-rules")) {
    return run_rule_audit(args);
  }

  analysis::Options vo;
  vo.mu = args.get_int("mu", 4);
  vo.imbalance_threshold = args.get_double("imbalance", 1.5);
  vo.check_coverage = !args.has("no-coverage");
  vo.check_races = !args.has("no-races");
  vo.check_false_sharing = !args.has("no-false-sharing");
  vo.check_load_balance = !args.has("no-load-balance");
  const bool quiet = args.has("quiet");

  // The lint binary owns the verdict: plans must be built with the
  // plan-time hook off, else a debug build throws before we can report.
  core::PlannerOptions base;
  base.verify_lowering = false;

  if (args.has("mutate-affine")) {
    // Mutation-testing mode: skew the stride of every affine output side
    // during lowering. The verifier must flag the resulting
    // programs (bounds/coverage/races) — CI gates on this exiting nonzero
    // to prove the affine checks are live, not vacuously green.
    backend::set_affine_stride_mutation(
        static_cast<std::int32_t>(args.get_int("mutate-affine", 1)));
  }
  if (args.has("mutate-batch-stride")) {
    // Skew the out-side ITERATION stride of every affine compute stage
    // — the batch-coalescing failure mode, where the k transforms of an
    // I_k (x) DFT_n program land at the wrong per-transform offsets and
    // overlap. The verifier must flag it (duplicate writes / coverage)
    // and --check-exec must fail parity.
    backend::set_batch_stride_mutation(args.get_int("mutate-batch-stride", 1));
  }
  if (args.has("mutate-twiddle")) {
    // Conjugate every fused twiddle value during lowering. Structurally
    // the program is untouched — the static verifier stays green — so
    // only the execution-parity check below can catch it.
    backend::set_twiddle_mutation(true);
  }
  if (args.has("mutate-pingpong")) {
    // Walk the lowered stages in reverse order at execution time; again
    // invisible to the static verifier, caught only by executing.
    backend::set_pingpong_mutation(true);
  }
  if (args.has("mutate-vecform")) {
    // Mis-record the strided-lane SIMD shape (the L^{nu^2}_nu base case)
    // as the contiguous across-iterations shape when planning vector
    // drivers. The drivers address lanes by the recorded form, so the
    // vectorized stages compute wrong values — structurally invisible,
    // caught only by the execution-parity check.
    backend::simd::set_vecform_mutation(true);
  }
  if (args.has("mutate-group")) {
    // Group stages without the block proof: every run of groupable
    // stages with one parallel_p becomes one group, so blocks read what
    // other blocks wrote. The verifier's group check must flag it.
    backend::set_group_mutation(true);
  }
  // Value-level mutations imply the execution check that catches them.
  const bool check_exec = args.has("check-exec") ||
                          args.has("mutate-twiddle") ||
                          args.has("mutate-pingpong") ||
                          args.has("mutate-vecform");

  // Emitter mutations imply the static codegen validation that catches
  // them (the seeded bug lives in the rendered C text only — the plan and
  // the interpreter stay truthful).
  const bool validate_codegen =
      args.has("validate-codegen") || args.has("mutate-codegen");
  if (args.has("mutate-codegen")) {
    const std::string kind = args.get("mutate-codegen");
    if (kind == "stride-skew") {
      backend::set_codegen_mutation(backend::CodegenMutation::kStrideSkew);
    } else if (kind == "drop-barrier") {
      backend::set_codegen_mutation(backend::CodegenMutation::kDropBarrier);
    } else if (kind == "swap-lanes") {
      backend::set_codegen_mutation(backend::CodegenMutation::kSwapLanes);
    } else if (kind == "narrow-index") {
      backend::set_codegen_mutation(backend::CodegenMutation::kNarrowIndex);
    } else {
      std::fprintf(stderr,
                   "spiral-lint: unknown --mutate-codegen kind '%s' (want "
                   "stride-skew, drop-barrier, swap-lanes or narrow-index)\n",
                   kind.c_str());
      return kExitUsage;
    }
  }

  std::vector<LintItem> items;

  if (args.has("wisdom")) {
    const std::string path = args.get("wisdom");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "spiral-lint: cannot read '%s'\n", path.c_str());
      return kExitUsage;
    }
    std::ostringstream blob;
    blob << in.rdbuf();

    std::vector<wisdom::PlanDescriptor> plans;
    std::string error;
    if (!wisdom::parse_text(blob.str(), plans, error)) {
      std::fprintf(stderr, "spiral-lint: corrupt wisdom file '%s': %s\n",
                   path.c_str(), error.c_str());
      return kExitUsage;
    }
    if (plans.empty()) {
      std::fprintf(stderr, "spiral-lint: '%s' holds no plans\n", path.c_str());
      return kExitUsage;
    }
    for (const auto& d : plans) {
      LintItem item;
      item.name = std::string(wisdom::to_string(d.kind)) + " n=" +
                  std::to_string(d.n) +
                  (d.n2 > 0 ? " n2=" + std::to_string(d.n2) : "") +
                  " p=" + std::to_string(d.threads) +
                  " mu=" + std::to_string(d.mu);
      try {
        const auto plan = core::plan_from_descriptor(d, base);
        analysis::Options per_plan = vo;
        if (!args.has("mu")) per_plan.mu = d.mu;
        item.report = analysis::verify(plan->stages(), per_plan);
        // Executing a program the static verifier already flagged is UB
        // (out-of-bounds writes are among the defects it reports), so the
        // parity check only runs on statically sound plans.
        if (check_exec && item.report.error_count() == 0) {
          check_execution(*plan, d.nu,
                          d.kind == wisdom::TransformKind::kDFT ? d.direction
                                                                 : 0,
                          &item);
        }
        if (validate_codegen) {
          check_codegen_emission(plan->stages(), args.get_int("nu", 0),
                                 per_plan.mu, &item);
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "spiral-lint: cannot rebuild %s: %s\n",
                     item.name.c_str(), e.what());
        return kExitUsage;
      }
      items.push_back(std::move(item));
    }
  } else if (args.has("kind")) {
    const std::string kind = args.get("kind");
    const idx_t n = args.get_int("n", 0);
    const idx_t n2 = args.get_int("n2", 0);
    if (n <= 0) {
      std::fprintf(stderr, "spiral-lint: --n=N is required with --kind\n");
      usage();
      return kExitUsage;
    }
    base.threads = static_cast<int>(args.get_int("threads", 1));
    base.cache_line_complex = vo.mu;
    base.vector_nu = args.get_int("nu", 0);
    base.leaf = args.get_int("leaf", base.leaf);
    base.direction = static_cast<int>(args.get_int("dir", -1));

    LintItem item;
    item.name = kind + " n=" + std::to_string(n) +
                (n2 > 0 ? " n2=" + std::to_string(n2) : "") +
                " p=" + std::to_string(base.threads);
    std::unique_ptr<core::FftPlan> plan;
    try {
      if (kind == "dft") {
        plan = core::plan_dft(n, base);
      } else if (kind == "wht") {
        plan = core::plan_wht(n, base);
      } else if (kind == "dft2d") {
        plan = core::plan_dft_2d(n, n2 > 0 ? n2 : n, base);
      } else if (kind == "batch") {
        plan = core::plan_batch_dft(n, n2 > 0 ? n2 : 1, base);
      } else {
        std::fprintf(stderr, "spiral-lint: unknown kind '%s'\n", kind.c_str());
        usage();
        return kExitUsage;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spiral-lint: planning failed: %s\n", e.what());
      return kExitUsage;
    }

    if (args.has("sched-block")) {
      // Self-check mode: re-schedule every parallel stage block-cyclically
      // with the given block (1 reproduces the FFTW-3.1 schedule the paper
      // measures as a false-sharing cliff) and lint the result.
      backend::StageList mutated = plan->stages();
      const idx_t b = args.get_int("sched-block", 1);
      for (auto& s : mutated.stages) {
        if (s.parallel_p > 1) s.sched_block = b;
      }
      item.report = analysis::verify(mutated, vo);
      item.name += " sched-block=" + std::to_string(b);
    } else {
      item.report = analysis::verify(plan->stages(), vo);
    }
    // Executing a program the static verifier already flagged is UB
    // (out-of-bounds writes are among the defects it reports), so the
    // parity check only runs on statically sound plans.
    if (check_exec && item.report.error_count() == 0) {
      check_execution(*plan, base.vector_nu,
                      kind == "dft" ? base.direction : 0, &item);
    }
    if (validate_codegen) {
      check_codegen_emission(plan->stages(), base.vector_nu, vo.mu, &item);
    }
    items.push_back(std::move(item));
  } else {
    usage();
    return kExitUsage;
  }

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t dirty = 0;
  std::size_t exec_fail = 0;
  std::size_t codegen_fail = 0;
  for (const auto& item : items) {
    errors += item.report.error_count();
    warnings += item.report.warning_count();
    const bool bad_exec = item.exec_checked && !item.exec_ok;
    const bool bad_codegen = item.codegen_checked && !item.codegen_ok;
    if (bad_exec) ++exec_fail;
    if (bad_codegen) ++codegen_fail;
    if (!item.report.clean() || bad_exec || bad_codegen) {
      ++dirty;
      std::printf("FAIL %s\n", item.name.c_str());
      if (bad_exec) {
        std::printf("  execution parity: %s\n", item.exec_failure.c_str());
      }
      if (bad_codegen) {
        std::printf("%s", item.codegen.to_string().c_str());
      }
      if (!quiet) std::printf("%s", item.report.to_string().c_str());
    } else if (!quiet) {
      std::printf("ok   %s%s%s\n", item.name.c_str(),
                  item.exec_checked ? " [exec parity ok]" : "",
                  item.codegen_checked ? " [codegen validated]" : "");
      if (item.codegen_checked && !item.codegen.vec_stage_ids.empty()) {
        std::printf("  codegen vec stages: %s\n",
                    item.codegen.vec_stages_string().c_str());
      }
    }
  }
  std::printf("spiral-lint: %zu plan(s), %zu with findings (%zu error(s), "
              "%zu warning(s), %zu execution-parity failure(s), %zu "
              "codegen-validation failure(s))\n",
              items.size(), dirty, errors, warnings, exec_fail, codegen_fail);
  return dirty == 0 ? kExitClean : kExitFindings;
}

}  // namespace

int main(int argc, char** argv) {
  spiral::util::CliArgs args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spiral-lint: %s\n", e.what());
    return kExitUsage;
  }
}
