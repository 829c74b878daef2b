#include "core/spiral_fft.hpp"

#include <map>
#include <sstream>

#include "analysis/verify.hpp"
#include "backend/lower.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "rewrite/smp_rules.hpp"
#include "rewrite/vec_rules.hpp"
#include "search/cost.hpp"
#include "search/search.hpp"
#include "spl/printer.hpp"

namespace spiral::core {

namespace {

/// Most balanced Cooley-Tukey split m of n with p*mu | m and p*mu | n/m,
/// or 0 if none exists.
idx_t admissible_split(idx_t n, idx_t p, idx_t mu) {
  idx_t best = 0;
  int best_gap = 1 << 30;
  for (idx_t m : rewrite::possible_splits(n)) {
    if (m % (p * mu) != 0 || (n / m) % (p * mu) != 0) continue;
    const int gap = std::abs(util::log2_floor(m) - util::log2_floor(n / m));
    if (best == 0 || gap < best_gap) {
      best = m;
      best_gap = gap;
    }
  }
  return best;
}

rewrite::RuleTreeChooser make_chooser(const PlannerOptions& opt) {
  if (!opt.autotune) {
    const idx_t leaf = opt.leaf;
    return [leaf](idx_t sz) { return rewrite::balanced_ruletree(sz, leaf); };
  }
  // DP autotuning over wall-clock time; the DpSearch memo is shared
  // across all sizes requested by the expansion.
  auto dp =
      std::make_shared<search::DpSearch>(search::walltime_cost(), opt.leaf);
  return [dp](idx_t sz) { return dp->best(sz).tree; };
}

/// Wraps a chooser so every (size -> tree) decision lands in `record` —
/// the raw material of a wisdom descriptor.
rewrite::RuleTreeChooser recording_chooser(rewrite::RuleTreeChooser inner,
                                           wisdom::RuleTreeMap* record) {
  return [inner = std::move(inner), record](idx_t sz) {
    auto tree = inner(sz);
    (*record)[sz] = tree;
    return tree;
  };
}

/// Replays a descriptor's recorded trees; sizes the descriptor does not
/// cover (e.g. after a leaf-size change upstream) fall back to the
/// balanced default.
rewrite::RuleTreeChooser chooser_from_trees(wisdom::RuleTreeMap trees,
                                            idx_t leaf) {
  return [trees = std::move(trees), leaf](idx_t sz) -> rewrite::RuleTreePtr {
    auto it = trees.find(sz);
    if (it != trees.end()) return it->second;
    return rewrite::balanced_ruletree(sz, leaf);
  };
}

spl::FormulaPtr planner_formula_with(idx_t n, const PlannerOptions& opt,
                                     const rewrite::RuleTreeChooser& chooser) {
  util::require(util::is_pow2(n) && n >= 2,
                "plan_dft: n must be a power of two >= 2");
  const idx_t p = opt.threads;
  const idx_t mu = opt.cache_line_complex;

  const idx_t nu = opt.vector_nu;
  if (opt.threads > 1) {
    const idx_t m = admissible_split(n, p, mu);
    if (m != 0) {
      auto f = rewrite::derive_multicore_ct(n, m, p, mu, nullptr,
                                            opt.direction);
      f = rewrite::expand_dfts(f, chooser, opt.leaf);
      if (nu >= 2 && mu % nu == 0) {
        // "In tandem": vectorize the per-processor blocks of (14).
        f = rewrite::vectorize_parallel_blocks(f, nu);
      }
      return f;
    }
    // No admissible split: fall back to sequential generation (the paper
    // only claims (14) for (p*mu)^2 | N).
  }
  if (nu >= 2) {
    auto g = rewrite::vectorize(spl::DFT(n, opt.direction), nu);
    if (!spl::has_vec_tag(g)) {
      return rewrite::expand_dfts(g, chooser, opt.leaf);
    }
    // Preconditions failed (e.g. n too small): scalar fallback.
  }
  if (n <= opt.leaf) return spl::DFT(n, opt.direction);
  return rewrite::expand_dfts(spl::DFT(n, opt.direction), chooser, opt.leaf);
}

/// Structural planning parameters of a request, normalized per transform
/// kind (the WHT ignores direction, so requests that differ only there
/// must resolve to the same descriptor; its stages still run at width nu).
wisdom::PlanDescriptor descriptor_shell(wisdom::TransformKind kind, idx_t n,
                                        idx_t n2, const PlannerOptions& opt) {
  wisdom::PlanDescriptor d;
  d.kind = kind;
  d.n = n;
  d.n2 = n2;
  d.threads = opt.threads;
  d.mu = opt.cache_line_complex;
  d.nu = opt.vector_nu;
  d.leaf = opt.leaf;
  d.direction = kind == wisdom::TransformKind::kWHT ? -1 : opt.direction;
  return d;
}

std::unique_ptr<FftPlan> build_dft(idx_t n, const PlannerOptions& opt,
                                   const rewrite::RuleTreeChooser& chooser) {
  auto f = planner_formula_with(n, opt, chooser);
  auto list = backend::lower_fused(f);
  return std::make_unique<FftPlan>(std::move(f), std::move(list), opt);
}

std::unique_ptr<FftPlan> build_wht(idx_t n, const PlannerOptions& opt) {
  util::require(util::is_pow2(n) && n >= 2,
                "plan_wht: n must be a power of two >= 2");
  spl::FormulaPtr f = spl::WHT(n);
  if (opt.threads > 1) {
    auto g = rewrite::parallelize(f, opt.threads, opt.cache_line_complex);
    if (!spl::has_smp_tag(g)) f = g;  // else: inadmissible, stay sequential
  }
  f = rewrite::expand_whts(f, opt.leaf);
  auto list = backend::lower_fused(f);
  return std::make_unique<FftPlan>(std::move(f), std::move(list), opt,
                                   "WHT");
}

std::unique_ptr<FftPlan> build_dft_2d(idx_t rows, idx_t cols,
                                      const PlannerOptions& opt,
                                      const rewrite::RuleTreeChooser& chooser) {
  util::require(util::is_pow2(rows) && util::is_pow2(cols) && rows >= 2 &&
                    cols >= 2,
                "plan_dft_2d: rows and cols must be powers of two >= 2");
  // Row-column formula: the 2D DFT is the tensor product of the 1D DFTs
  // (paper, Section 2.2: "multi-dimensional transforms ... are just
  // tensor products of their one-dimensional counterparts").
  spl::FormulaPtr f = spl::Builder::compose({
      spl::Builder::tensor(spl::DFT(rows, opt.direction), spl::I(cols)),
      spl::Builder::tensor(spl::I(rows), spl::DFT(cols, opt.direction)),
  });
  if (opt.threads > 1) {
    auto g = rewrite::parallelize(f, opt.threads, opt.cache_line_complex);
    if (!spl::has_smp_tag(g)) f = g;  // else: inadmissible, stay sequential
  }
  f = rewrite::expand_dfts(f, chooser, opt.leaf);
  auto list = backend::lower_fused(f);
  return std::make_unique<FftPlan>(std::move(f), std::move(list), opt,
                                   "DFT2D");
}

std::unique_ptr<FftPlan> build_batch_dft(
    idx_t n, idx_t batch, const PlannerOptions& opt,
    const rewrite::RuleTreeChooser& chooser) {
  util::require(util::is_pow2(n) && n >= 2,
                "plan_batch_dft: n must be a power of two >= 2");
  util::require(batch >= 1, "plan_batch_dft: batch must be >= 1");
  spl::FormulaPtr f =
      spl::Builder::tensor(spl::I(batch), spl::DFT(n, opt.direction));
  // Split over the largest of p, p/2, ... that rule (9) admits (its count
  // divides the batch and each share fills whole cache lines); a batch
  // no such p' admits runs sequential.
  for (idx_t p = opt.threads; p > 1; p /= 2) {
    auto g = rewrite::parallelize(f, p, opt.cache_line_complex);
    if (!spl::has_smp_tag(g)) {
      f = g;
      break;
    }
  }
  f = rewrite::expand_dfts(f, chooser, opt.leaf);
  auto list = backend::lower_fused(f);
  return std::make_unique<FftPlan>(std::move(f), std::move(list), opt,
                                   "BatchDFT");
}

/// Chooser for a user request: the configured chooser, wrapped to record
/// its decisions when a descriptor was asked for.
rewrite::RuleTreeChooser request_chooser(const PlannerOptions& opt,
                                         wisdom::RuleTreeMap* record) {
  auto chooser = make_chooser(opt);
  if (record != nullptr) chooser = recording_chooser(std::move(chooser), record);
  return chooser;
}

}  // namespace

bool parallel_plan_available(idx_t n, int threads, idx_t mu) {
  if (threads <= 1) return false;
  if (!util::is_pow2(n)) return false;
  return admissible_split(n, static_cast<idx_t>(threads), mu) != 0;
}

spl::FormulaPtr planner_formula(idx_t n, const PlannerOptions& opt) {
  return planner_formula_with(n, opt, make_chooser(opt));
}

FftPlan::FftPlan(spl::FormulaPtr formula, backend::StageList stages,
                 const PlannerOptions& opt, std::string transform_name)
    : n_(stages.n),
      threads_(opt.threads),
      name_(std::move(transform_name)),
      formula_(std::move(formula)) {
  if (opt.verify_lowering) {
    // Static verification of the lowered program (Definition 1 and the
    // stage-IR execution contract). Any finding — error or warning — is a
    // generator bug: the planner must never hand out a program that
    // races, false-shares or loses elements.
    analysis::Options vo;
    vo.mu = opt.cache_line_complex;
    const analysis::Report report = analysis::verify(stages, vo);
    if (!report.clean()) {
      throw std::logic_error("verify_lowering: plan for " + name_ + "_" +
                             std::to_string(n_) +
                             " failed static verification\n" +
                             report.to_string());
    }
  }
  // The program owns no worker threads: every ExecContext brings (or
  // lazily builds) its own persistent team, which is what makes one plan
  // safe to execute from many client threads at once.
  program_ = std::make_unique<backend::Program>(
      std::move(stages), backend::ExecPolicy::kThreadPool);
  if (opt.vector_nu >= 2) {
    // Make the vec rules executable: stages whose fused maps prove a
    // short-vector shape at width nu run the stage driver at that width
    // (backend/simd). Plans without vector_nu keep every stage at one
    // lane, so the interpreter baseline in the benches stays scalar.
    program_->enable_simd(opt.vector_nu);
  }
}

void FftPlan::execute(backend::ExecContext& ctx, const cplx* x,
                      cplx* y) const {
  program_->execute(ctx, x, y);
}

void FftPlan::execute(const cplx* x, cplx* y) const {
  // One context per (thread, team size): plans with the same parallelism
  // share scratch buffers and the persistent worker team on this thread.
  thread_local std::map<int, backend::ExecContext> contexts;
  execute(contexts[program_->max_parallelism()], x, y);
}

std::string FftPlan::describe() const {
  std::ostringstream os;
  os << name_ << "_" << n_ << " ["
     << (parallel() ? "parallel" : "sequential")
     << ", " << backend::to_string(program_->policy()) << ", threads="
     << threads_ << "]\n";
  os << "formula: " << spl::to_string(formula_) << "\n";
  if (program_->simd_active()) {
    int vec = 0;
    for (const auto& sp : program_->stage_plans()) vec += sp.width > 1;
    os << "simd: " << backend::simd::to_string(backend::simd::detect_isa())
       << ", " << vec << "/" << program_->stages().stages.size()
       << " stages vectorized\n";
  }
  for (std::size_t g = 0; g < program_->group_count(); ++g) {
    const backend::StageGroup& sg = program_->group(g);
    os << "group " << g << ": execution stages " << sg.first << "-"
       << sg.first + sg.count - 1
       << (program_->group_streams(g) ? ", streamed final write\n"
                                      : "\n");
  }
  os << program_->stages().summary();
  return os.str();
}

std::unique_ptr<FftPlan> plan_dft(idx_t n, const PlannerOptions& opt,
                                  wisdom::PlanDescriptor* out_descriptor) {
  wisdom::RuleTreeMap record;
  auto plan = build_dft(
      n, opt, request_chooser(opt, out_descriptor ? &record : nullptr));
  if (out_descriptor != nullptr) {
    *out_descriptor =
        descriptor_shell(wisdom::TransformKind::kDFT, n, 0, opt);
    out_descriptor->trees = std::move(record);
  }
  return plan;
}

std::unique_ptr<FftPlan> plan_wht(idx_t n, const PlannerOptions& opt,
                                  wisdom::PlanDescriptor* out_descriptor) {
  auto plan = build_wht(n, opt);
  if (out_descriptor != nullptr) {
    // The WHT expansion is chooser-free: the descriptor carries no trees.
    *out_descriptor =
        descriptor_shell(wisdom::TransformKind::kWHT, n, 0, opt);
  }
  return plan;
}

std::unique_ptr<FftPlan> plan_dft_2d(idx_t rows, idx_t cols,
                                     const PlannerOptions& opt,
                                     wisdom::PlanDescriptor* out_descriptor) {
  wisdom::RuleTreeMap record;
  auto plan = build_dft_2d(
      rows, cols, opt,
      request_chooser(opt, out_descriptor ? &record : nullptr));
  if (out_descriptor != nullptr) {
    *out_descriptor =
        descriptor_shell(wisdom::TransformKind::kDFT2D, rows, cols, opt);
    out_descriptor->trees = std::move(record);
  }
  return plan;
}

std::unique_ptr<FftPlan> plan_batch_dft(idx_t n, idx_t batch,
                                        const PlannerOptions& opt,
                                        wisdom::PlanDescriptor* out_descriptor) {
  wisdom::RuleTreeMap record;
  auto plan = build_batch_dft(
      n, batch, opt, request_chooser(opt, out_descriptor ? &record : nullptr));
  if (out_descriptor != nullptr) {
    *out_descriptor =
        descriptor_shell(wisdom::TransformKind::kBatchDFT, n, batch, opt);
    out_descriptor->trees = std::move(record);
  }
  return plan;
}

std::unique_ptr<FftPlan> plan_from_descriptor(const wisdom::PlanDescriptor& d,
                                              const PlannerOptions& base) {
  d.validate();
  PlannerOptions opt = base;
  opt.threads = d.threads;
  opt.cache_line_complex = d.mu;
  opt.vector_nu = d.nu;
  opt.leaf = d.leaf;
  opt.direction = d.direction;
  opt.autotune = false;  // the descriptor *is* the search result
  auto chooser = chooser_from_trees(d.trees, d.leaf);
  switch (d.kind) {
    case wisdom::TransformKind::kDFT: return build_dft(d.n, opt, chooser);
    case wisdom::TransformKind::kWHT: return build_wht(d.n, opt);
    case wisdom::TransformKind::kDFT2D:
      return build_dft_2d(d.n, d.n2, opt, chooser);
    case wisdom::TransformKind::kBatchDFT:
      return build_batch_dft(d.n, d.n2, opt, chooser);
  }
  throw std::invalid_argument("plan_from_descriptor: unknown transform kind");
}

wisdom::PlanDescriptor::Key descriptor_key(wisdom::TransformKind kind,
                                           idx_t n, idx_t n2,
                                           const PlannerOptions& opt) {
  return descriptor_shell(kind, n, n2, opt).key();
}

}  // namespace spiral::core
