#include "wisdom/descriptor.hpp"

#include <sstream>

namespace spiral::wisdom {

using rewrite::BreakdownKind;
using rewrite::RuleTree;
using rewrite::RuleTreePtr;
using util::require;

const char* to_string(TransformKind k) {
  switch (k) {
    case TransformKind::kDFT: return "dft";
    case TransformKind::kWHT: return "wht";
    case TransformKind::kDFT2D: return "dft2d";
    case TransformKind::kBatchDFT: return "batch";
  }
  return "?";
}

std::optional<TransformKind> transform_kind_from_string(std::string_view s) {
  if (s == "dft") return TransformKind::kDFT;
  if (s == "wht") return TransformKind::kWHT;
  if (s == "dft2d") return TransformKind::kDFT2D;
  if (s == "batch") return TransformKind::kBatchDFT;
  return std::nullopt;
}

void PlanDescriptor::validate() const {
  require(util::is_pow2(n) && n >= 2,
          "wisdom: descriptor n must be a power of two >= 2");
  switch (kind) {
    case TransformKind::kDFT:
    case TransformKind::kWHT:
      require(n2 == 0, "wisdom: 1D descriptor must have n2 = 0");
      break;
    case TransformKind::kDFT2D:
      require(util::is_pow2(n2) && n2 >= 2,
              "wisdom: 2D descriptor cols must be a power of two >= 2");
      break;
    case TransformKind::kBatchDFT:
      require(n2 >= 1, "wisdom: batch descriptor needs batch >= 1");
      break;
  }
  require(threads >= 1, "wisdom: descriptor threads must be >= 1");
  require(util::is_pow2(mu), "wisdom: descriptor mu must be a power of two");
  require(nu == 0 || util::is_pow2(nu),
          "wisdom: descriptor nu must be 0 or a power of two");
  require(util::is_pow2(leaf) && leaf >= 2 && leaf <= rewrite::kMaxCodeletSize,
          "wisdom: descriptor leaf out of range");
  require(direction == -1 || direction == 1,
          "wisdom: descriptor direction must be -1 or +1");
  for (const auto& [sz, tree] : trees) {
    require(tree != nullptr, "wisdom: descriptor holds a null ruletree");
    require(tree->n == sz, "wisdom: ruletree size disagrees with its key");
  }
}

std::string serialize_ruletree(const RuleTreePtr& t) {
  require(t != nullptr, "serialize_ruletree: null tree");
  if (t->kind == BreakdownKind::kBaseCase) return std::to_string(t->n);
  std::ostringstream os;
  os << (t->kind == BreakdownKind::kCooleyTukey ? "ct" : "six") << "("
     << serialize_ruletree(t->left) << "," << serialize_ruletree(t->right)
     << ")";
  return os.str();
}

namespace {

/// Recursive-descent parser over `s`; `pos` advances past what was consumed.
RuleTreePtr parse_tree_at(std::string_view s, std::size_t& pos) {
  require(pos < s.size(), "parse_ruletree: unexpected end of input");
  if (s[pos] >= '0' && s[pos] <= '9') {
    idx_t n = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      n = n * 10 + (s[pos] - '0');
      require(n <= (idx_t{1} << 40), "parse_ruletree: leaf size overflow");
      ++pos;
    }
    return RuleTree::leaf(n);  // enforces the [2, 64] codelet range
  }
  BreakdownKind kind;
  if (s.substr(pos, 3) == "ct(") {
    kind = BreakdownKind::kCooleyTukey;
    pos += 3;
  } else if (s.substr(pos, 4) == "six(") {
    kind = BreakdownKind::kSixStep;
    pos += 4;
  } else {
    throw std::invalid_argument("parse_ruletree: expected leaf size, 'ct(' "
                                "or 'six(' at position " +
                                std::to_string(pos));
  }
  RuleTreePtr left = parse_tree_at(s, pos);
  require(pos < s.size() && s[pos] == ',',
          "parse_ruletree: expected ',' between children");
  ++pos;
  RuleTreePtr right = parse_tree_at(s, pos);
  require(pos < s.size() && s[pos] == ')',
          "parse_ruletree: expected ')' after children");
  ++pos;
  return RuleTree::node(kind, std::move(left), std::move(right));
}

}  // namespace

RuleTreePtr parse_ruletree(std::string_view s) {
  std::size_t pos = 0;
  RuleTreePtr t = parse_tree_at(s, pos);
  require(pos == s.size(), "parse_ruletree: trailing garbage after tree");
  return t;
}

}  // namespace spiral::wisdom
