#include "wisdom/wisdom.hpp"

#include <fstream>
#include <sstream>

namespace spiral::wisdom {

namespace {

constexpr const char* kMagic = "spiral-wisdom";

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

/// Parses a strict decimal integer (optional leading '-').
bool parse_int(const std::string& s, long long& out) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-') ? 1 : 0;
  if (i == s.size()) return false;
  long long v = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
    v = v * 10 + (s[i] - '0');
    if (v > (1LL << 40)) return false;  // extents never get this large
  }
  out = (s[0] == '-') ? -v : v;
  return true;
}

/// Applies one `key=value` token of a `plan` line. Returns an error
/// message, or "" on success.
std::string apply_plan_field(PlanDescriptor& d, const std::string& tok) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos) return "expected key=value, got '" + tok + "'";
  const std::string key = tok.substr(0, eq);
  const std::string val = tok.substr(eq + 1);
  if (key == "kind") {
    auto k = transform_kind_from_string(val);
    if (!k) return "unknown transform kind '" + val + "'";
    d.kind = *k;
    return "";
  }
  long long v = 0;
  if (!parse_int(val, v)) return "bad integer '" + val + "' for " + key;
  if (key == "n") d.n = v;
  else if (key == "n2") d.n2 = v;
  else if (key == "p") d.threads = static_cast<int>(v);
  else if (key == "mu") d.mu = v;
  else if (key == "nu") d.nu = v;
  else if (key == "leaf") d.leaf = v;
  else if (key == "dir") d.direction = static_cast<int>(v);
  else return "unknown plan field '" + key + "'";
  return "";
}

}  // namespace

std::string to_text(const std::vector<PlanDescriptor>& plans) {
  std::ostringstream os;
  os << kMagic << " " << kWisdomFormatVersion << "\n";
  for (const auto& d : plans) {
    os << "plan kind=" << to_string(d.kind) << " n=" << d.n << " n2=" << d.n2
       << " p=" << d.threads << " mu=" << d.mu << " nu=" << d.nu
       << " leaf=" << d.leaf << " dir=" << d.direction << "\n";
    for (const auto& [sz, tree] : d.trees) {
      os << "tree " << sz << " " << serialize_ruletree(tree) << "\n";
    }
    os << "endplan\n";
  }
  return os.str();
}

bool parse_text(const std::string& text, std::vector<PlanDescriptor>& out,
                std::string& error) {
  out.clear();
  error.clear();
  std::istringstream is(text);
  std::string raw;
  int lineno = 0;
  bool saw_header = false;
  std::optional<PlanDescriptor> open;  // descriptor between plan..endplan
  bool open_jitkey = false;  // the open block already had a 'jitkey' line

  auto fail = [&](const std::string& why) {
    error = "wisdom line " + std::to_string(lineno) + ": " + why;
    out.clear();
    return false;
  };

  while (std::getline(is, raw)) {
    ++lineno;
    const std::string line = trim(raw);
    if (line.empty() || line[0] == '#') continue;
    auto toks = split_ws(line);
    if (!saw_header) {
      long long ver = 0;
      if (toks.size() != 2 || toks[0] != kMagic || !parse_int(toks[1], ver)) {
        return fail("expected header '" + std::string(kMagic) + " <version>'");
      }
      if (ver != kWisdomFormatVersion) {
        return fail("unsupported wisdom version " + toks[1] + " (this build "
                    "reads version " + std::to_string(kWisdomFormatVersion) +
                    ")");
      }
      saw_header = true;
      continue;
    }
    if (toks[0] == "plan") {
      if (open) return fail("'plan' inside an open plan (missing endplan?)");
      if (toks.size() != 9) {
        return fail("'plan' needs exactly 8 key=value fields");
      }
      PlanDescriptor d;
      for (std::size_t i = 1; i < toks.size(); ++i) {
        const std::string err = apply_plan_field(d, toks[i]);
        if (!err.empty()) return fail(err);
      }
      open = std::move(d);
      open_jitkey = false;
      continue;
    }
    if (toks[0] == "jitkey") {
      // Legacy line: older builds recorded the key of a natively compiled
      // executor here. It is still validated, then discarded.
      if (!open) return fail("'jitkey' outside of a plan block");
      if (toks.size() != 2) return fail("'jitkey' needs exactly one value");
      const std::string& key = toks[1];
      const bool hex = key.size() <= 64 &&
                       key.find_first_not_of("0123456789abcdef") ==
                           std::string::npos;
      if (key.empty() || !hex) {
        return fail("'jitkey' value must be a lowercase hex string");
      }
      if (open_jitkey) return fail("duplicate 'jitkey'");
      open_jitkey = true;
      continue;
    }
    if (toks[0] == "tree") {
      if (!open) return fail("'tree' outside of a plan block");
      long long sz = 0;
      if (toks.size() != 3 || !parse_int(toks[1], sz) || sz < 2) {
        return fail("'tree' needs '<size> <expr>'");
      }
      rewrite::RuleTreePtr t;
      try {
        t = parse_ruletree(toks[2]);
      } catch (const std::exception& e) {
        return fail(e.what());
      }
      if (t->n != sz) return fail("tree expression size disagrees with key");
      if (!open->trees.emplace(sz, std::move(t)).second) {
        return fail("duplicate tree for size " + toks[1]);
      }
      continue;
    }
    if (toks[0] == "endplan") {
      if (!open) return fail("'endplan' without a matching 'plan'");
      if (toks.size() != 1) return fail("'endplan' takes no arguments");
      try {
        open->validate();
      } catch (const std::exception& e) {
        return fail(e.what());
      }
      out.push_back(std::move(*open));
      open.reset();
      continue;
    }
    return fail("unknown directive '" + toks[0] + "'");
  }
  if (!saw_header) {
    error = "wisdom: empty input (missing header)";
    return false;
  }
  if (open) {
    error = "wisdom: unterminated plan block at end of input";
    out.clear();
    return false;
  }
  return true;
}

std::size_t WisdomStore::size() const {
  std::lock_guard<std::mutex> lock(m_);
  return entries_.size();
}

void WisdomStore::clear() {
  std::lock_guard<std::mutex> lock(m_);
  entries_.clear();
}

bool WisdomStore::add(PlanDescriptor d, MergePolicy policy) {
  d.validate();
  std::lock_guard<std::mutex> lock(m_);
  auto key = d.key();
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    entries_.emplace(std::move(key), std::move(d));
    return true;
  }
  if (policy == MergePolicy::kPreferExisting) return false;
  it->second = std::move(d);
  return true;
}

std::optional<PlanDescriptor> WisdomStore::lookup(
    const PlanDescriptor::Key& key) const {
  std::lock_guard<std::mutex> lock(m_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<PlanDescriptor> WisdomStore::all() const {
  std::lock_guard<std::mutex> lock(m_);
  std::vector<PlanDescriptor> out;
  out.reserve(entries_.size());
  for (const auto& [key, d] : entries_) out.push_back(d);
  return out;
}

std::string WisdomStore::export_text() const { return to_text(all()); }

ImportResult WisdomStore::import_text(const std::string& text,
                                      MergePolicy policy) {
  ImportResult r;
  std::vector<PlanDescriptor> plans;
  if (!parse_text(text, plans, r.error)) return r;  // ok=false, atomic
  r.ok = true;
  for (auto& d : plans) {
    if (add(std::move(d), policy)) {
      ++r.imported;
    } else {
      ++r.skipped;
    }
  }
  return r;
}

WisdomStore& global_wisdom() {
  static WisdomStore store;
  return store;
}

std::string export_wisdom() { return global_wisdom().export_text(); }

ImportResult import_wisdom(const std::string& text, MergePolicy policy) {
  return global_wisdom().import_text(text, policy);
}

bool export_wisdom_to_file(const std::string& path) {
  std::ofstream os(path);
  if (!os) return false;
  os << export_wisdom();
  return static_cast<bool>(os);
}

ImportResult import_wisdom_from_file(const std::string& path,
                                     MergePolicy policy) {
  std::ifstream is(path);
  if (!is) {
    ImportResult r;
    r.error = "wisdom: cannot open '" + path + "'";
    return r;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  return import_wisdom(buf.str(), policy);
}

void forget_wisdom() { global_wisdom().clear(); }

}  // namespace spiral::wisdom
