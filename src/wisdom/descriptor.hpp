// Persistent plan descriptors — the "wisdom" layer (after FFTW's wisdom:
// self-optimization results that can be exported, persisted and re-imported
// so no process ever repeats a search another process already paid for).
//
// A PlanDescriptor captures everything the planner needs to rebuild a plan
// deterministically: the transform kind, the problem extents, the paper's
// machine parameters (p, mu), the SIMD width nu, the codelet leaf size, the
// direction, and — crucially — the Cooley-Tukey ruletrees the autotuner
// chose for every sequential DFT size appearing in the expansion. Replaying
// those trees through the rewriting system yields bit-identical formulas
// without re-running the DP search.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>

#include "rewrite/breakdown.hpp"

namespace spiral::wisdom {

/// Transforms the planner can describe (mirrors the core plan_* entry
/// points).
enum class TransformKind { kDFT = 0, kWHT = 1, kDFT2D = 2, kBatchDFT = 3 };

[[nodiscard]] const char* to_string(TransformKind k);
[[nodiscard]] std::optional<TransformKind> transform_kind_from_string(
    std::string_view s);

/// Ruletree chosen for each sequential DFT size in the expansion.
using RuleTreeMap = std::map<idx_t, rewrite::RuleTreePtr>;

/// A rebuildable plan description.
struct PlanDescriptor {
  TransformKind kind = TransformKind::kDFT;
  idx_t n = 0;   ///< transform size (rows for 2D)
  idx_t n2 = 0;  ///< cols for 2D, batch count for batched DFTs; else 0
  int threads = 1;
  idx_t mu = 4;  ///< cache-line length in complex doubles
  idx_t nu = 0;  ///< SIMD vector width in complex elements (0 = scalar)
  idx_t leaf = rewrite::kMaxCodeletSize;
  int direction = -1;
  RuleTreeMap trees;
  /// JIT disk-cache key of the compiled executor, when the plan was JIT
  /// compiled ("" otherwise). Advisory: a process importing this wisdom
  /// and planning with jit enabled recomputes the key — which also covers
  /// the local compiler fingerprint — and warm caches then skip the
  /// compiler entirely. Deliberately NOT part of key(): the descriptor
  /// identity is the program structure, not how it was executed.
  std::string jit_key;

  /// Identity of a descriptor: the planning parameters that determine the
  /// generated program's *structure*. Execution-level knobs (jit) and
  /// how the trees were obtained (autotune on/off) are deliberately
  /// absent — the descriptor rebuilds the same formula either way.
  using Key = std::tuple<int, idx_t, idx_t, int, idx_t, idx_t, idx_t, int>;
  [[nodiscard]] Key key() const {
    return {static_cast<int>(kind), n, n2, threads, mu, nu, leaf, direction};
  }

  /// Throws std::invalid_argument when any field is out of range (bad
  /// extents, non-2-power leaf, null/mis-sized trees, ...). Called on every
  /// imported descriptor so malformed wisdom never reaches the planner.
  void validate() const;
};

/// Compact single-line wire format for ruletrees:
///   leaf           ::= <n>                  (codelet DFT_n)
///   inner          ::= ("ct" | "six") "(" tree "," tree ")"
/// e.g. DFT_4096 split 64x64 with radix-8 children: "ct(ct(8,8),ct(8,8))".
[[nodiscard]] std::string serialize_ruletree(const rewrite::RuleTreePtr& t);

/// Inverse of serialize_ruletree. Throws std::invalid_argument on malformed
/// input (syntax errors, out-of-range leaves, trailing garbage).
[[nodiscard]] rewrite::RuleTreePtr parse_ruletree(std::string_view s);

}  // namespace spiral::wisdom
