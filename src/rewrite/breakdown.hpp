// Breakdown rules (the "algorithm level" of Spiral, Section 2.3) and
// ruletrees.
//
// A ruletree records which rule with which parameters breaks down each
// DFT nonterminal — it is the degree of freedom Spiral's search explores.
// For the DFT of two-power size the choices are:
//
//   * Cooley-Tukey rule (1):  DFT_{mn} -> (DFT_m (x) I_n) D_{m,n}
//                                         (I_m (x) DFT_n) L^{mn}_m
//     parameterized by the split m.
//   * Base case: leave DFT_n as an unrolled codelet (n <= kMaxCodeletSize).
//   * Six-step rule (3) (used by the baseline comparison, Section 2.2):
//     DFT_{mn} -> L^{mn}_m (I_n (x) DFT_m) L^{mn}_n D_{m,n}
//                 (I_m (x) DFT_n) L^{mn}_m.
#pragma once

#include <memory>
#include <vector>

#include "rewrite/rule.hpp"

namespace spiral::rewrite {

/// Largest DFT size implemented as a straight-line codelet by the backend.
inline constexpr idx_t kMaxCodeletSize = 64;

/// Applies the Cooley-Tukey rule (1) once with the given split:
/// size = m * n. Throws on invalid split.
[[nodiscard]] FormulaPtr cooley_tukey(idx_t m, idx_t n, int root_sign = -1);

/// Applies the six-step rule (3) once with the given split.
[[nodiscard]] FormulaPtr six_step(idx_t m, idx_t n, int root_sign = -1);

/// Walsh-Hadamard breakdown: WHT_{mn} -> (WHT_m (x) I_n)(I_m (x) WHT_n).
/// (The WHT is the classical Spiral demonstration transform: the same
/// tensor structure as Cooley-Tukey but with no twiddles and no stride
/// permutation — the Table 1 rules parallelize it unchanged.)
[[nodiscard]] FormulaPtr wht_breakdown(idx_t m, idx_t n);

/// Recursively expands every WHT_n with n > leaf via balanced splits.
[[nodiscard]] FormulaPtr expand_whts(const FormulaPtr& f,
                                     idx_t leaf = kMaxCodeletSize);

/// The algorithm-level breakdowns packaged as a RuleSet: balanced
/// Cooley-Tukey for DFT_n and the balanced WHT split, both firing only
/// above `leaf`. This is the "breakdown" rule set registered with the
/// rule auditor (analysis/rule_audit) and the ruleset expand_whts runs.
[[nodiscard]] RuleSet breakdown_rules(idx_t leaf = kMaxCodeletSize);

/// The six-step rule (3) with its applicability guards packaged as a
/// proper Rule: fires on DFT_n for 2-power n > leaf (so both factors of
/// the balanced split satisfy m, k >= 2). Registered as the "sixstep"
/// rule set with the rule auditor, so the baseline algorithm of
/// Section 2.2 gets the same soundness / termination / coverage
/// treatment as the Cooley-Tukey path the planner prefers. Kept separate
/// from breakdown_rules: in one set the balanced Cooley-Tukey rule would
/// always fire first and shadow this one into a false dead-rule finding.
[[nodiscard]] RuleSet sixstep_rules(idx_t leaf = kMaxCodeletSize);

// ---------------------------------------------------------------------------
// Ruletrees
// ---------------------------------------------------------------------------

/// Which breakdown is applied at a node of the ruletree.
enum class BreakdownKind {
  kBaseCase,    ///< leaf: codelet for DFT_n
  kCooleyTukey, ///< rule (1) with split m = left child size
  kSixStep,     ///< rule (3) with split m = left child size
};

struct RuleTree;
using RuleTreePtr = std::shared_ptr<const RuleTree>;

/// One node of a ruletree for DFT_n.
struct RuleTree {
  idx_t n = 0;
  BreakdownKind kind = BreakdownKind::kBaseCase;
  RuleTreePtr left;   ///< subtree for DFT_m (kind != kBaseCase)
  RuleTreePtr right;  ///< subtree for DFT_{n/m}

  static RuleTreePtr leaf(idx_t n);
  static RuleTreePtr node(BreakdownKind kind, RuleTreePtr left,
                          RuleTreePtr right);
};

/// Expands a ruletree into an SPL formula (recursively applying the chosen
/// rules), then simplifies.
[[nodiscard]] FormulaPtr formula_from_ruletree(const RuleTreePtr& tree,
                                               int root_sign = -1);

/// Right-expanded default ruletree: repeatedly split off the largest
/// codelet-sized left factor. A reasonable untuned default, the shape
/// iterative FFT libraries use.
[[nodiscard]] RuleTreePtr default_ruletree(idx_t n,
                                           idx_t leaf = kMaxCodeletSize);

/// Balanced ruletree: split m ~ sqrt(n) at every level (good cache
/// behaviour for large sizes; the classical recursive choice).
[[nodiscard]] RuleTreePtr balanced_ruletree(idx_t n,
                                            idx_t leaf = kMaxCodeletSize);

/// All ways to split n = m * k with both factors in range (search space
/// enumeration for two-power n).
[[nodiscard]] std::vector<idx_t> possible_splits(idx_t n);

/// Human-readable ruletree rendering, e.g. "CT(1024 = 32 x 32)".
[[nodiscard]] std::string to_string(const RuleTreePtr& tree);

}  // namespace spiral::rewrite
