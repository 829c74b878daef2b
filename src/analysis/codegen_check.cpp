#include "analysis/codegen_check.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/verify.hpp"
#include "backend/codegen_c.hpp"
#include "backend/vectorize.hpp"
#include "util/common.hpp"

namespace spiral::analysis {

const char* to_string(CodegenDiag d) {
  switch (d) {
    case CodegenDiag::kParseError: return "parse-error";
    case CodegenDiag::kShapeMismatch: return "shape-mismatch";
    case CodegenDiag::kFootprintMismatch: return "footprint-mismatch";
    case CodegenDiag::kScaleMismatch: return "scale-mismatch";
    case CodegenDiag::kScheduleMismatch: return "schedule-mismatch";
    case CodegenDiag::kEmittedUnsafe: return "emitted-unsafe";
    case CodegenDiag::kMissingBarrier: return "missing-barrier";
    case CodegenDiag::kNonAtomicJobDispatch: return "non-atomic-job-dispatch";
    case CodegenDiag::kNarrowedIndex: return "narrowed-index";
    case CodegenDiag::kCodeletMismatch: return "codelet-mismatch";
    case CodegenDiag::kLaneMismatch: return "lane-mismatch";
  }
  return "?";
}

std::int64_t CodegenReport::count(CodegenDiag kind) const {
  std::int64_t c = 0;
  for (const auto& f : findings) {
    if (f.kind == kind) ++c;
  }
  return c;
}

std::string CodegenReport::vec_stages_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < vec_stage_ids.size(); ++i) {
    if (i) os << ",";
    os << vec_stage_ids[i] << ":" << vec_stage_widths[i];
  }
  return os.str();
}

std::string CodegenReport::to_string() const {
  std::ostringstream os;
  os << "codegen-check: n=" << n << ", " << stages << " stage(s), "
     << findings.size() << " finding(s)";
  if (!vec_stage_ids.empty()) os << ", vec " << vec_stages_string();
  os << "\n";
  for (const auto& f : findings) {
    os << "  [" << spiral::analysis::to_string(f.kind) << "]";
    if (f.stage >= 0) os << " stage " << f.stage;
    os << ": " << f.message << "\n";
  }
  return os.str();
}

namespace {

using backend::Stage;
using backend::StageList;

// ---------------------------------------------------------------------------
// Low-level text scanning. The dialect is anchored on exact emitter strings;
// everything numeric is re-parsed and the surrounding body text regenerated
// from the parsed parameters and compared byte-for-byte, so any structural
// deviation from the canonical emission surfaces as a typed finding.
// ---------------------------------------------------------------------------

/// Finds `what` at or after *pos; on success advances *pos past the match.
bool seek(const std::string& s, std::size_t* pos, const std::string& what) {
  const std::size_t at = s.find(what, *pos);
  if (at == std::string::npos) return false;
  *pos = at + what.size();
  return true;
}

/// Requires `what` exactly at *pos; advances past it.
bool expect(const std::string& s, std::size_t* pos, const std::string& what) {
  if (s.compare(*pos, what.size(), what) != 0) return false;
  *pos += what.size();
  return true;
}

bool read_ll(const std::string& s, std::size_t* pos, long long* out) {
  const char* begin = s.c_str() + *pos;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || errno == ERANGE) return false;
  *pos += static_cast<std::size_t>(end - begin);
  *out = v;
  return true;
}

bool read_dbl(const std::string& s, std::size_t* pos, double* out) {
  const char* begin = s.c_str() + *pos;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(begin, &end);
  if (end == begin) return false;
  *pos += static_cast<std::size_t>(end - begin);
  *out = v;
  return true;
}

/// Comma-separated integer list terminated by `stop` ('}' or ')'); tolerates
/// the emitter's "\n  " wrapping (strtoll skips whitespace).
bool read_ll_list(const std::string& s, std::size_t* pos, char stop,
                  std::vector<long long>* out) {
  out->clear();
  for (;;) {
    std::size_t p = *pos;
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
      ++p;
    }
    if (p >= s.size()) return false;
    if (s[p] == stop) {
      *pos = p + 1;
      return true;
    }
    long long v = 0;
    *pos = p;
    if (!read_ll(s, pos, &v)) return false;
    out->push_back(v);
    if (*pos < s.size() && s[*pos] == ',') ++(*pos);
  }
}

bool read_dbl_list(const std::string& s, std::size_t* pos, char stop,
                   std::vector<double>* out) {
  out->clear();
  for (;;) {
    std::size_t p = *pos;
    while (p < s.size() && std::isspace(static_cast<unsigned char>(s[p]))) {
      ++p;
    }
    if (p >= s.size()) return false;
    if (s[p] == stop) {
      *pos = p + 1;
      return true;
    }
    double v = 0;
    *pos = p;
    if (!read_dbl(s, pos, &v)) return false;
    out->push_back(v);
    if (*pos < s.size() && s[*pos] == ',') ++(*pos);
  }
}

/// Full text of the function whose declaration line is exactly `decl`
/// (which must end with "{"), from the declaration through the matching
/// closing brace. Empty when the declaration is absent. The generated
/// dialect has no string or character literals containing braces inside
/// function bodies, so a plain depth count suffices.
std::string fn_text(const std::string& s, const std::string& decl) {
  const std::size_t at = s.find(decl);
  if (at == std::string::npos) return {};
  std::size_t p = at + decl.size();  // decl ends with '{' -> depth 1
  int depth = 1;
  while (p < s.size() && depth > 0) {
    if (s[p] == '{') ++depth;
    if (s[p] == '}') --depth;
    ++p;
  }
  if (depth != 0) return {};
  return s.substr(at, p - at);
}

/// Body of a fn_text() result: the text strictly between the declaration's
/// opening newline and the final closing brace.
std::string fn_body(const std::string& fn, const std::string& decl) {
  if (fn.size() < decl.size() + 2) return {};
  return fn.substr(decl.size() + 1, fn.size() - decl.size() - 2);
}

/// Prints a double exactly as the emitter does (precision 17, default
/// float format): a strtod round-trip of an emitted literal re-prints to
/// the identical string, so regenerated text compares byte-for-byte.
std::string fmt_d(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string join_ll(const std::vector<long long>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ",";
    os << v[i];
  }
  return os.str();
}

/// Canonical shuffle index list (codegen_c's shuffle_indices).
std::vector<long long> canonical_shuffle(long long w, int mode) {
  std::vector<long long> v;
  v.reserve(static_cast<std::size_t>(w));
  for (long long i = 0; i < w; ++i) {
    switch (mode) {
      case 0: v.push_back(2 * i); break;
      case 1: v.push_back(2 * i + 1); break;
      case 2: v.push_back(i % 2 == 0 ? i / 2 : w + i / 2); break;
      case 3:
        v.push_back(i % 2 == 0 ? w / 2 + i / 2 : w + w / 2 + i / 2);
        break;
      default: break;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Symbolic model of one parsed stage body.
// ---------------------------------------------------------------------------

/// One addressing side recovered from an emitted stage body: either a
/// closed-form affine expression (base + it*iter_stride + l*elem_stride)
/// or a materialized int table parsed from the tables section.
struct PSide {
  bool affine = false;
  long long base = 0;
  long long it_stride = 0;
  long long el_stride = 0;
  std::vector<long long> table;
  bool narrowed = false;  ///< index declared `int` where the dialect says `long`
};

struct PStage {
  bool found = false;
  bool parse_ok = false;
  bool is_compute = false;
  long long cn = 1;
  int sign = -1;
  bool wht = false;
  bool has_codelet = false;
  PSide in, out;
  bool in_scaled = false, out_scaled = false;
  std::vector<double> iscl, oscl;  ///< interleaved re,im from the tables
  // Vector body (0 = scalar-only emission).
  long long vec_w = 0;
  bool vec_narrowed = false;  ///< a0/b0/inb/outb narrowed in the vector body
  std::vector<long long> shuf[4];
  // Dispatch facts.
  long long iters = -1;
  long long sp = 1;
};

struct Ctx {
  const std::string& src;
  CodegenReport& rep;
  void add(CodegenDiag kind, int stage, std::string msg) {
    rep.findings.push_back({kind, stage, std::move(msg)});
  }
};

/// First divergence between regenerated and actual text, for parse-error
/// messages: "...expected <snippet> / got <snippet>".
std::string first_diff(const std::string& want, const std::string& got) {
  std::size_t i = 0;
  while (i < want.size() && i < got.size() && want[i] == got[i]) ++i;
  auto snip = [](const std::string& s, std::size_t at) {
    const std::size_t b = at < 20 ? 0 : at - 20;
    std::string t = s.substr(b, 60);
    for (char& c : t) {
      if (c == '\n') c = ' ';
    }
    return t;
  };
  return "expected \"" + snip(want, i) + "\" got \"" + snip(got, i) + "\"";
}

// ---------------------------------------------------------------------------
// Canonical-body regeneration: an independent replica of the emitter's stage
// printers, parameterized by the *parsed* values. The emitted body must
// equal the regeneration byte-for-byte; semantic checks then run on the
// parsed parameters.
// ---------------------------------------------------------------------------

std::string idx1_expr(const PSide& s, const std::string& tag,
                      const char* table_suffix) {
  if (s.affine) {
    return "(" + std::to_string(s.base) + " + j*" +
           std::to_string(s.it_stride) + ")";
  }
  return "s" + tag + table_suffix + "[j]";
}

std::string render_noncompute_scalar(const PStage& st, const std::string& tag) {
  const std::string ind = "  ";
  const std::string ji = idx1_expr(st.in, tag, "_in");
  const std::string jo = idx1_expr(st.out, tag, "_out");
  std::ostringstream os;
  os << ind << "for (long j = lo; j < hi; ++j) {\n"
     << ind << "  const " << (st.in.narrowed ? "int" : "long") << " ji = "
     << ji << ", jo = " << jo << ";\n";
  if (!st.in_scaled) {
    os << ind << "  y[2*jo]   = x[2*ji];\n"
       << ind << "  y[2*jo+1] = x[2*ji+1];\n";
  } else {
    os << ind << "  double ar = x[2*ji], ai = x[2*ji+1];\n"
       << ind << "  double sr = s" << tag << "_iscl[2*j], sim = s" << tag
       << "_iscl[2*j+1];\n"
       << ind << "  y[2*jo]   = ar*sr - ai*sim;\n"
       << ind << "  y[2*jo+1] = ar*sim + ai*sr;\n";
  }
  os << ind << "}\n";
  return os.str();
}

std::string render_compute_scalar(const PStage& st, const std::string& tag) {
  const std::string ind = "  ";
  const long long cn = st.cn;
  std::ostringstream os;
  os << ind << "for (long it = lo; it < hi; ++it) {\n"
     << ind << "  double re[" << cn << "], im[" << cn << "];\n";
  std::string in_el, out_el;
  if (st.in.affine) {
    os << ind << "  const " << (st.in.narrowed ? "int" : "long")
       << " inb = " << st.in.base << " + it*" << st.in.it_stride << ";\n";
    in_el = "(inb + l*" + std::to_string(st.in.el_stride) + ")";
  } else {
    os << ind << "  const int *inm = s" << tag << "_in + it*" << cn << ";\n";
    in_el = "inm[l]";
  }
  if (st.out.affine) {
    os << ind << "  const " << (st.out.narrowed ? "int" : "long")
       << " outb = " << st.out.base << " + it*" << st.out.it_stride << ";\n";
    out_el = "(outb + l*" + std::to_string(st.out.el_stride) + ")";
  } else {
    os << ind << "  const int *outm = s" << tag << "_out + it*" << cn
       << ";\n";
    out_el = "outm[l]";
  }
  if (st.in_scaled) {
    os << ind << "  const double *iscl = s" << tag << "_iscl + 2*it*" << cn
       << ";\n";
  }
  if (st.out_scaled) {
    os << ind << "  const double *oscl = s" << tag << "_oscl + 2*it*" << cn
       << ";\n";
  }
  os << ind << "  for (int l = 0; l < " << cn << "; ++l) {\n";
  if (!st.in_scaled) {
    os << ind << "    re[l] = x[2*" << in_el << "]; im[l] = x[2*" << in_el
       << "+1];\n";
  } else {
    os << ind << "    double ar = x[2*" << in_el << "], ai = x[2*" << in_el
       << "+1];\n"
       << ind << "    re[l] = ar*iscl[2*l] - ai*iscl[2*l+1];\n"
       << ind << "    im[l] = ar*iscl[2*l+1] + ai*iscl[2*l];\n";
  }
  os << ind << "  }\n";
  if (cn > 1 && st.wht) {
    os << ind << "  wht" << cn << "(re, im);\n";
  } else if (cn > 1) {
    os << ind << "  dft" << cn << (st.sign < 0 ? "f" : "i") << "(re, im);\n";
  }
  os << ind << "  for (int l = 0; l < " << cn << "; ++l) {\n";
  if (!st.out_scaled) {
    os << ind << "    y[2*" << out_el << "] = re[l]; y[2*" << out_el
       << "+1] = im[l];\n";
  } else {
    os << ind << "    y[2*" << out_el << "]   = re[l]*oscl[2*l] - "
       << "im[l]*oscl[2*l+1];\n"
       << ind << "    y[2*" << out_el << "+1] = re[l]*oscl[2*l+1] + "
       << "im[l]*oscl[2*l];\n";
  }
  os << ind << "  }\n" << ind << "}\n";
  return os.str();
}

/// Replica of emit_vec_stage_body, parameterized by the parsed shuffle
/// lists so a lane-swapped emission still regenerates byte-identically and
/// is then caught by the semantic lane check (kLaneMismatch), not by a
/// generic parse error.
std::string render_vec_body(const PStage& st, const std::string& tag) {
  const long long cn = st.cn;
  const long long w = st.vec_w;
  const std::string vt = "vd" + std::to_string(w);
  const char* ity = st.vec_narrowed ? "int" : "long";
  std::ostringstream os;
  os << "  long va = ((lo + " << w - 1 << ") / " << w << ") * " << w
     << "; if (va > hi) va = hi;\n"
     << "  long vb = (hi / " << w << ") * " << w
     << "; if (vb < va) vb = va;\n"
     << "  if (lo < va) stage" << tag << "_scalar(x, y, lo, va);\n";
  os << "  for (long it = va; it < vb; it += " << w << ") {\n"
     << "    " << vt << " re[" << cn << "], im[" << cn << "];\n";
  std::string in_el, out_el;
  if (st.in.affine) {
    os << "    const " << ity << " inb = " << st.in.base << " + it*"
       << st.in.it_stride << ";\n";
    in_el = "(inb + l*" + std::to_string(st.in.el_stride) + ")";
  } else {
    os << "    const int *inm = s" << tag << "_in + it*" << cn << ";\n";
    in_el = "inm[l]";
  }
  if (st.out.affine) {
    os << "    const " << ity << " outb = " << st.out.base << " + it*"
       << st.out.it_stride << ";\n";
    out_el = "(outb + l*" + std::to_string(st.out.el_stride) + ")";
  } else {
    os << "    const int *outm = s" << tag << "_out + it*" << cn << ";\n";
    out_el = "outm[l]";
  }
  if (st.in_scaled) {
    os << "    const double *iscl = s" << tag << "_iscl + 2*it*" << cn
       << ";\n";
  }
  if (st.out_scaled) {
    os << "    const double *oscl = s" << tag << "_oscl + 2*it*" << cn
       << ";\n";
  }
  os << "    for (int l = 0; l < " << cn << "; ++l) {\n"
     << "      const " << ity << " a0 = " << in_el << ";\n"
     << "      " << vt << " h0, h1;\n"
     << "      __builtin_memcpy(&h0, x + 2*a0, sizeof h0);\n"
     << "      __builtin_memcpy(&h1, x + 2*a0 + " << w << ", sizeof h1);\n"
     << "      " << vt << " ar = __builtin_shufflevector(h0, h1, "
     << join_ll(st.shuf[0]) << ");\n"
     << "      " << vt << " ai = __builtin_shufflevector(h0, h1, "
     << join_ll(st.shuf[1]) << ");\n";
  if (!st.in_scaled) {
    os << "      re[l] = ar; im[l] = ai;\n";
  } else {
    os << "      " << vt << " sr, sm;\n"
       << "      for (int v = 0; v < " << w << "; ++v) {\n"
       << "        sr[v] = iscl[2*(v*" << cn << "+l)];\n"
       << "        sm[v] = iscl[2*(v*" << cn << "+l)+1];\n      }\n"
       << "      re[l] = ar*sr - ai*sm; im[l] = ar*sm + ai*sr;\n";
  }
  os << "    }\n";
  if (st.wht) {
    os << "    wht" << cn << "_v" << w << "(re, im);\n";
  } else {
    os << "    dft" << cn << (st.sign < 0 ? "f" : "i") << "_v" << w
       << "(re, im);\n";
  }
  os << "    for (int l = 0; l < " << cn << "; ++l) {\n"
     << "      " << vt << " vr = re[l], vi = im[l];\n";
  if (st.out_scaled) {
    os << "      " << vt << " qr, qm;\n"
       << "      for (int v = 0; v < " << w << "; ++v) {\n"
       << "        qr[v] = oscl[2*(v*" << cn << "+l)];\n"
       << "        qm[v] = oscl[2*(v*" << cn << "+l)+1];\n      }\n"
       << "      " << vt << " tr = vr*qr - vi*qm;\n"
       << "      " << vt << " ti = vr*qm + vi*qr;\n"
       << "      vr = tr; vi = ti;\n";
  }
  os << "      const " << ity << " b0 = " << out_el << ";\n"
     << "      " << vt << " o0 = __builtin_shufflevector(vr, vi, "
     << join_ll(st.shuf[2]) << ");\n"
     << "      " << vt << " o1 = __builtin_shufflevector(vr, vi, "
     << join_ll(st.shuf[3]) << ");\n"
     << "      __builtin_memcpy(y + 2*b0, &o0, sizeof o0);\n"
     << "      __builtin_memcpy(y + 2*b0 + " << w << ", &o1, sizeof o1);\n"
     << "    }\n  }\n"
     << "  if (vb < hi) stage" << tag << "_scalar(x, y, vb, hi);\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Codelet model: parsed rev/twiddle tables + canonical-network regeneration
// + symbolic application to unit vectors.
// ---------------------------------------------------------------------------

struct PCodelet {
  std::vector<long long> rev;
  std::vector<std::vector<double>> twr, twi;
};

std::string render_wht_codelet(long long n, long long w) {
  const std::string vt =
      w >= 2 ? "vd" + std::to_string(w) : std::string("double");
  std::ostringstream os;
  if (w >= 2) {
    os << "static void wht" << n << "_v" << w << "(" << vt << " *re, " << vt
       << " *im) {\n";
  } else {
    os << "static void wht" << n << "(double *re, double *im) {\n";
  }
  os << "  for (int h = 1; h < " << n << "; h *= 2)\n"
     << "    for (int b = 0; b < " << n << "; b += 2*h)\n"
     << "      for (int j = 0; j < h; ++j) {\n"
     << "        " << vt << " ur = re[b+j], ui = im[b+j];\n"
     << "        " << vt << " vr = re[b+j+h], vi = im[b+j+h];\n"
     << "        re[b+j] = ur + vr; im[b+j] = ui + vi;\n"
     << "        re[b+j+h] = ur - vr; im[b+j+h] = ui - vi;\n"
     << "      }\n}";
  return os.str();
}

/// Scalar (w == 0) or vector DFT codelet text regenerated from the parsed
/// tables; compares byte-for-byte against the emission when the body is the
/// canonical radix-2 network over those tables.
std::string render_dft_codelet(long long n, int sign, long long w,
                               const PCodelet& c) {
  const int k = util::log2_exact(static_cast<idx_t>(n));
  const std::string vt =
      w >= 2 ? "vd" + std::to_string(w) : std::string("double");
  std::ostringstream os;
  if (w >= 2) {
    os << "static void dft" << n << (sign < 0 ? "f" : "i") << "_v" << w
       << "(" << vt << " *re, " << vt << " *im) {\n";
  } else {
    os << "static void dft" << n << (sign < 0 ? "f" : "i")
       << "(double *re, double *im) {\n";
  }
  os << "  static const int rev[" << n << "] = {";
  for (std::size_t i = 0; i < c.rev.size(); ++i) {
    os << c.rev[i] << (i + 1 < c.rev.size() ? "," : "");
  }
  os << "};\n";
  os << "  for (int i = 0; i < " << n << "; ++i) {\n"
     << "    int r = rev[i];\n"
     << "    if (r > i) { " << vt << " t; t=re[i];re[i]=re[r];re[r]=t;"
        " t=im[i];im[i]=im[r];im[r]=t; }\n  }\n";
  for (int st = 0; st < k; ++st) {
    const long long h = 1LL << st;
    const auto& twr = c.twr[static_cast<std::size_t>(st)];
    const auto& twi = c.twi[static_cast<std::size_t>(st)];
    os << "  { /* stage h=" << h << " */\n";
    os << "    static const double twr[" << h << "] = {";
    for (std::size_t j = 0; j < twr.size(); ++j) {
      os << fmt_d(twr[j]) << (j + 1 < twr.size() ? "," : "");
    }
    os << "};\n    static const double twi[" << h << "] = {";
    for (std::size_t j = 0; j < twi.size(); ++j) {
      os << fmt_d(twi[j]) << (j + 1 < twi.size() ? "," : "");
    }
    os << "};\n";
    if (w >= 2) {
      os << "    for (int j = 0; j < " << h << "; ++j) {\n"
         << "      " << vt << " wr = (" << vt << "){0} + twr[j];\n"
         << "      " << vt << " wi = (" << vt << "){0} + twi[j];\n"
         << "      for (int b = 0; b < " << n << "; b += " << 2 * h
         << ") {\n"
         << "        " << vt << " xr = re[b+j+" << h << "], xi = im[b+j+"
         << h << "];\n"
         << "        " << vt << " vr = xr*wr - xi*wi;\n"
         << "        " << vt << " vi = xr*wi + xi*wr;\n"
         << "        re[b+j+" << h << "] = re[b+j] - vr; im[b+j+" << h
         << "] = im[b+j] - vi;\n"
         << "        re[b+j] += vr; im[b+j] += vi;\n"
         << "      }\n    }\n  }\n";
    } else {
      os << "    for (int b = 0; b < " << n << "; b += " << 2 * h << ")\n"
         << "      for (int j = 0; j < " << h << "; ++j) {\n"
         << "        double ur = re[b+j], ui = im[b+j];\n"
         << "        double xr = re[b+j+" << h << "], xi = im[b+j+" << h
         << "];\n"
         << "        double vr = xr*twr[j] - xi*twi[j];\n"
         << "        double vi = xr*twi[j] + xi*twr[j];\n"
         << "        re[b+j] = ur + vr; im[b+j] = ui + vi;\n"
         << "        re[b+j+" << h << "] = ur - vr; im[b+j+" << h
         << "] = ui - vi;\n"
         << "      }\n  }\n";
    }
  }
  os << "}";
  return os.str();
}

/// Applies the parsed radix-2 network to every unit vector and compares
/// the resulting linear map against the reference DFT matrix
/// M[k][j] = e^(sign*2*pi*i*k*j/n). Returns false (with *err filled) when
/// the map deviates beyond tolerance.
bool simulate_dft_network(long long n, int sign, const PCodelet& c,
                          std::string* err) {
  const int k = util::log2_exact(static_cast<idx_t>(n));
  if (static_cast<long long>(c.rev.size()) != n) {
    *err = "rev table has " + std::to_string(c.rev.size()) + " entries";
    return false;
  }
  for (long long r : c.rev) {
    if (r < 0 || r >= n) {
      *err = "rev entry " + std::to_string(r) + " out of range";
      return false;
    }
  }
  if (static_cast<int>(c.twr.size()) != k ||
      static_cast<int>(c.twi.size()) != k) {
    *err = "twiddle stage count != log2(n)";
    return false;
  }
  double max_err = 0.0;
  std::vector<double> re(static_cast<std::size_t>(n));
  std::vector<double> im(static_cast<std::size_t>(n));
  for (long long col = 0; col < n; ++col) {
    for (long long i = 0; i < n; ++i) {
      re[static_cast<std::size_t>(i)] = (i == col) ? 1.0 : 0.0;
      im[static_cast<std::size_t>(i)] = 0.0;
    }
    // Exact emitted swap-loop semantics: if (rev[i] > i) swap.
    for (long long i = 0; i < n; ++i) {
      const long long r = c.rev[static_cast<std::size_t>(i)];
      if (r > i) {
        std::swap(re[static_cast<std::size_t>(i)],
                  re[static_cast<std::size_t>(r)]);
        std::swap(im[static_cast<std::size_t>(i)],
                  im[static_cast<std::size_t>(r)]);
      }
    }
    for (int st = 0; st < k; ++st) {
      const long long h = 1LL << st;
      const auto& twr = c.twr[static_cast<std::size_t>(st)];
      const auto& twi = c.twi[static_cast<std::size_t>(st)];
      if (static_cast<long long>(twr.size()) != h ||
          static_cast<long long>(twi.size()) != h) {
        *err = "twiddle table at h=" + std::to_string(h) + " mis-sized";
        return false;
      }
      for (long long b = 0; b < n; b += 2 * h) {
        for (long long j = 0; j < h; ++j) {
          const std::size_t u = static_cast<std::size_t>(b + j);
          const std::size_t x = static_cast<std::size_t>(b + j + h);
          const double xr = re[x], xi = im[x];
          const double wr = twr[static_cast<std::size_t>(j)];
          const double wi = twi[static_cast<std::size_t>(j)];
          const double vr = xr * wr - xi * wi;
          const double vi = xr * wi + xi * wr;
          re[x] = re[u] - vr;
          im[x] = im[u] - vi;
          re[u] += vr;
          im[u] += vi;
        }
      }
    }
    for (long long row = 0; row < n; ++row) {
      const double ang = (sign < 0 ? -1.0 : 1.0) * 2.0 *
                         3.14159265358979323846 *
                         static_cast<double>(row * col % n) /
                         static_cast<double>(n);
      const double dr = re[static_cast<std::size_t>(row)] - std::cos(ang);
      const double di = im[static_cast<std::size_t>(row)] - std::sin(ang);
      max_err = std::max(max_err, std::max(std::fabs(dr), std::fabs(di)));
    }
  }
  if (max_err > 1e-9 * static_cast<double>(n)) {
    *err = "linear map deviates from the DFT matrix by " + fmt_d(max_err);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Stage body parsers.
// ---------------------------------------------------------------------------

/// Reads "long " or "int " at *pos (after "const "); sets *narrowed.
bool read_idx_type(const std::string& b, std::size_t* pos, bool* narrowed) {
  if (expect(b, pos, "long ")) {
    *narrowed = false;
    return true;
  }
  if (expect(b, pos, "int ")) {
    *narrowed = true;
    return true;
  }
  return false;
}

/// Parses one side of a compute/vector body: the base declaration
/// ("const long inb = B + it*S;" or "const int *inm = sT_in + it*cn;")
/// plus, for affine sides, the element stride from the first "(inb + l*E"
/// use in the body.
bool parse_compute_side(const std::string& b, const std::string& tag,
                        bool input, long long cn, PSide* side,
                        bool* any_narrowed) {
  const std::string base_name = input ? "inb" : "outb";
  const std::string map_name = input ? "inm" : "outm";
  const std::string suffix = input ? "_in" : "_out";
  std::size_t p = 0;
  if (seek(b, &p, "const int *" + map_name + " = s" + tag + suffix +
                      " + it*")) {
    long long m = 0;
    if (!read_ll(b, &p, &m) || m != cn || !expect(b, &p, ";")) return false;
    side->affine = false;
    return true;
  }
  p = 0;
  if (!seek(b, &p, "const ")) return false;
  bool narrowed = false;
  if (input) {
    // The in side's declaration precedes the out side's; anchor precisely.
    p = b.find("const ");
    std::size_t q = p + 6;
    if (!read_idx_type(b, &q, &narrowed) ||
        !expect(b, &q, base_name + " = ")) {
      return false;
    }
    p = q;
  } else {
    const std::size_t atl = b.find("const long " + base_name + " = ");
    const std::size_t ati = b.find("const int " + base_name + " = ");
    if (atl != std::string::npos) {
      p = atl + ("const long " + base_name + " = ").size();
      narrowed = false;
    } else if (ati != std::string::npos) {
      p = ati + ("const int " + base_name + " = ").size();
      narrowed = true;
    } else {
      return false;
    }
  }
  side->affine = true;
  side->narrowed = narrowed;
  if (narrowed) *any_narrowed = true;
  if (!read_ll(b, &p, &side->base) || !expect(b, &p, " + it*") ||
      !read_ll(b, &p, &side->it_stride) || !expect(b, &p, ";")) {
    return false;
  }
  std::size_t e = 0;
  if (!seek(b, &e, "(" + base_name + " + l*") ||
      !read_ll(b, &e, &side->el_stride) || !expect(b, &e, ")")) {
    return false;
  }
  return true;
}

/// Parses the codelet call line; fills cn/sign/wht when present.
void parse_codelet_call(const std::string& b, PStage* st) {
  std::size_t p = 0;
  if (seek(b, &p, " wht")) {
    long long cn = 0;
    if (read_ll(b, &p, &cn) &&
        (expect(b, &p, "(re, im);") || expect(b, &p, "_v"))) {
      st->has_codelet = true;
      st->wht = true;
      return;
    }
  }
  p = 0;
  while (seek(b, &p, " dft")) {
    long long cn = 0;
    if (!read_ll(b, &p, &cn)) continue;
    int sign = 0;
    if (expect(b, &p, "f")) {
      sign = -1;
    } else if (expect(b, &p, "i")) {
      sign = +1;
    } else {
      continue;
    }
    if (expect(b, &p, "(re, im);") || expect(b, &p, "_v")) {
      st->has_codelet = true;
      st->wht = false;
      st->sign = sign;
      return;
    }
  }
}

bool parse_scalar_body(Ctx& cx, std::size_t si, const std::string& b,
                       PStage* st) {
  const std::string tag = std::to_string(si);
  const int sid = static_cast<int>(si);
  if (b.compare(0, 22, "  for (long j = lo; j ") == 0) {
    st->is_compute = false;
    st->cn = 1;
    std::size_t p = 0;
    if (!seek(b, &p, "const ") || !read_idx_type(b, &p, &st->in.narrowed) ||
        !expect(b, &p, "ji = ")) {
      cx.add(CodegenDiag::kParseError, sid, "ji/jo declaration not found");
      return false;
    }
    st->out.narrowed = st->in.narrowed;
    auto side1 = [&](PSide* s, const std::string& suffix) {
      if (b.compare(p, 1, "(") == 0) {
        s->affine = true;
        ++p;
        return read_ll(b, &p, &s->base) && expect(b, &p, " + j*") &&
               read_ll(b, &p, &s->it_stride) && expect(b, &p, ")");
      }
      s->affine = false;
      return expect(b, &p, "s" + tag + suffix + "[j]");
    };
    if (!side1(&st->in, "_in") || !expect(b, &p, ", jo = ") ||
        !side1(&st->out, "_out") || !expect(b, &p, ";")) {
      cx.add(CodegenDiag::kParseError, sid, "ji/jo expressions not parseable");
      return false;
    }
    st->in_scaled = b.find("double sr = s" + tag + "_iscl[2*j]") !=
                    std::string::npos;
    st->out_scaled = false;
  } else if (b.compare(0, 24, "  for (long it = lo; it ") == 0) {
    st->is_compute = true;
    std::size_t p = 0;
    if (!seek(b, &p, "double re[") || !read_ll(b, &p, &st->cn) ||
        !expect(b, &p, "], im[")) {
      cx.add(CodegenDiag::kParseError, sid, "codelet buffers not found");
      return false;
    }
    st->in_scaled =
        b.find("const double *iscl = s" + tag + "_iscl") != std::string::npos;
    st->out_scaled =
        b.find("const double *oscl = s" + tag + "_oscl") != std::string::npos;
    bool dummy = false;
    if (!parse_compute_side(b, tag, true, st->cn, &st->in, &dummy) ||
        !parse_compute_side(b, tag, false, st->cn, &st->out, &dummy)) {
      cx.add(CodegenDiag::kParseError, sid,
             "stage addressing not in the affine/table dialect");
      return false;
    }
    parse_codelet_call(b, st);
    if (st->cn > 1 && !st->has_codelet) {
      cx.add(CodegenDiag::kParseError, sid, "codelet call not found");
      return false;
    }
  } else {
    cx.add(CodegenDiag::kParseError, sid,
           "stage body is neither a copy loop nor a codelet loop");
    return false;
  }
  const std::string want = st->is_compute ? render_compute_scalar(*st, tag)
                                          : render_noncompute_scalar(*st, tag);
  if (want != b) {
    cx.add(CodegenDiag::kParseError, sid,
           "scalar body deviates from the canonical emission: " +
               first_diff(want, b));
    return false;
  }
  return true;
}

bool parse_vec_body(Ctx& cx, std::size_t si, const std::string& b,
                    PStage* st) {
  const std::string tag = std::to_string(si);
  const int sid = static_cast<int>(si);
  PStage v;  // vector-side view; must agree with the scalar parse
  v.is_compute = true;
  v.cn = st->cn;
  std::size_t p = 0;
  if (!seek(b, &p, "for (long it = va; it < vb; it += ") ||
      !read_ll(b, &p, &v.vec_w) || !expect(b, &p, ") {")) {
    cx.add(CodegenDiag::kParseError, sid, "vector loop header not found");
    return false;
  }
  v.in_scaled = st->in_scaled;
  v.out_scaled = st->out_scaled;
  bool narrowed = false;
  if (!parse_compute_side(b, tag, true, v.cn, &v.in, &narrowed) ||
      !parse_compute_side(b, tag, false, v.cn, &v.out, &narrowed)) {
    cx.add(CodegenDiag::kParseError, sid,
           "vector body addressing not parseable");
    return false;
  }
  // a0/b0 carry their own declarations; all four share one narrow flag.
  if (b.find("const int a0 = ") != std::string::npos ||
      b.find("const int b0 = ") != std::string::npos) {
    narrowed = true;
  }
  v.vec_narrowed = narrowed || v.in.narrowed || v.out.narrowed;
  parse_codelet_call(b, &v);
  v.wht = v.has_codelet ? v.wht : st->wht;
  v.sign = v.has_codelet ? v.sign : st->sign;
  static const char* kAnchors[4] = {
      " ar = __builtin_shufflevector(h0, h1, ",
      " ai = __builtin_shufflevector(h0, h1, ",
      " o0 = __builtin_shufflevector(vr, vi, ",
      " o1 = __builtin_shufflevector(vr, vi, "};
  for (int m = 0; m < 4; ++m) {
    std::size_t q = 0;
    if (!seek(b, &q, kAnchors[m]) ||
        !read_ll_list(b, &q, ')', &v.shuf[m])) {
      cx.add(CodegenDiag::kParseError, sid,
             "shuffle list " + std::to_string(m) + " not parseable");
      return false;
    }
  }
  const std::string want = render_vec_body(v, tag);
  if (want != b) {
    cx.add(CodegenDiag::kParseError, sid,
           "vector body deviates from the canonical emission: " +
               first_diff(want, b));
    return false;
  }
  // Vector/scalar agreement: both bodies must address the same footprint.
  const bool same_in =
      v.in.affine == st->in.affine &&
      (!v.in.affine || (v.in.base == st->in.base &&
                        v.in.it_stride == st->in.it_stride &&
                        v.in.el_stride == st->in.el_stride));
  const bool same_out =
      v.out.affine == st->out.affine &&
      (!v.out.affine || (v.out.base == st->out.base &&
                         v.out.it_stride == st->out.it_stride &&
                         v.out.el_stride == st->out.el_stride));
  if (!same_in || !same_out || v.wht != st->wht ||
      (!v.wht && v.sign != st->sign)) {
    cx.add(CodegenDiag::kFootprintMismatch, sid,
           "vector body addresses a different footprint than the scalar "
           "body");
    return false;
  }
  st->vec_w = v.vec_w;
  st->vec_narrowed = v.vec_narrowed;
  for (int m = 0; m < 4; ++m) st->shuf[m] = v.shuf[m];
  // Lane semantics: the four lists must be the canonical deinterleave /
  // interleave at width w (a swapped pair loads im into the re lanes).
  static const char* kLaneNames[4] = {"ar (real deinterleave)",
                                      "ai (imag deinterleave)",
                                      "o0 (low interleave)",
                                      "o1 (high interleave)"};
  for (int m = 0; m < 4; ++m) {
    const std::vector<long long> want_l = canonical_shuffle(st->vec_w, m);
    if (st->shuf[m] != want_l) {
      cx.add(CodegenDiag::kLaneMismatch, sid,
             std::string(kLaneNames[m]) + " shuffle is [" +
                 join_ll(st->shuf[m]) + "], canonical is [" +
                 join_ll(want_l) + "]");
    }
  }
  return true;
}

/// Parses the materialized tables (index maps + scale diagonals) the stage
/// bodies reference.
void parse_stage_tables(Ctx& cx, std::size_t si, PStage* st) {
  const std::string tag = std::to_string(si);
  const int sid = static_cast<int>(si);
  auto load_map = [&](PSide* side, const std::string& suffix) {
    if (side->affine) return;
    std::size_t p = 0;
    long long len = 0;
    if (!seek(cx.src, &p, "static const int s" + tag + suffix + "[") ||
        !read_ll(cx.src, &p, &len) || !expect(cx.src, &p, "] = {") ||
        !read_ll_list(cx.src, &p, '}', &side->table) ||
        static_cast<long long>(side->table.size()) != len) {
      cx.add(CodegenDiag::kParseError, sid,
             "index table s" + tag + suffix + " missing or malformed");
      side->table.clear();
      return;
    }
  };
  load_map(&st->in, "_in");
  load_map(&st->out, "_out");
  auto load_scale = [&](bool present, std::vector<double>* out,
                        const std::string& suffix) {
    if (!present) return;
    std::size_t p = 0;
    long long len = 0;
    if (!seek(cx.src, &p, "static const double s" + tag + suffix + "[") ||
        !read_ll(cx.src, &p, &len) || !expect(cx.src, &p, "] = {") ||
        !read_dbl_list(cx.src, &p, '}', out) ||
        static_cast<long long>(out->size()) != len) {
      cx.add(CodegenDiag::kParseError, sid,
             "scale table s" + tag + suffix + " missing or malformed");
      out->clear();
    }
  };
  load_scale(st->in_scaled, &st->iscl, "_iscl");
  load_scale(st->out_scaled, &st->oscl, "_oscl");
}

// ---------------------------------------------------------------------------
// Dispatch structure: the pthreads pool runtime (or the sequential entry),
// the per-stage chunk bounds, barrier placement, and the ping-pong chain.
// ---------------------------------------------------------------------------

const std::string kChunkDecl =
    "static void run_stage_chunk(int sid, const double *x, double *y, "
    "int t) {";
const std::string kRunProgDecl =
    "static void run_program(const double *x, double *y, double *b0, "
    "double *b1, int t) {";

/// Parses one "case <si>:" arm of run_stage_chunk: the thread guard and
/// the contiguous chunk bounds (long)t*iters/sp.
void parse_chunk_arm(Ctx& cx, const std::string& body, std::size_t si,
                     PStage* st) {
  const std::string tag = std::to_string(si);
  const int sid = static_cast<int>(si);
  std::size_t p = 0;
  if (!seek(body, &p, "    case " + tag + ":\n")) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "no dispatch arm in run_stage_chunk");
    return;
  }
  long long sp = 0, i1 = 0, i2 = 0, sp2 = 0, sp3 = 0;
  if (expect(body, &p, "      if (t < ")) {
    if (!read_ll(body, &p, &sp) ||
        !expect(body, &p, ") stage" + tag + "(x, y, (long)t*") ||
        !read_ll(body, &p, &i1) || !expect(body, &p, "/") ||
        !read_ll(body, &p, &sp2) || !expect(body, &p, ", (long)(t+1)*") ||
        !read_ll(body, &p, &i2) || !expect(body, &p, "/") ||
        !read_ll(body, &p, &sp3) || !expect(body, &p, ");")) {
      cx.add(CodegenDiag::kParseError, sid, "parallel dispatch arm malformed");
      return;
    }
    if (i1 != i2 || sp != sp2 || sp != sp3) {
      cx.add(CodegenDiag::kScheduleMismatch, sid,
             "chunk bounds are not consistent contiguous (long)t*iters/p");
      return;
    }
    st->sp = sp;
    st->iters = i1;
  } else if (expect(body, &p, "      if (t == 0) stage" + tag +
                                  "(x, y, 0, ")) {
    if (!read_ll(body, &p, &i1) || !expect(body, &p, ");")) {
      cx.add(CodegenDiag::kParseError, sid,
             "sequential dispatch arm malformed");
      return;
    }
    st->sp = 1;
    st->iters = i1;
  } else {
    cx.add(CodegenDiag::kParseError, sid, "dispatch arm malformed");
  }
}

/// Token-scans run_program (or a sequential entry body): stage order must
/// be k-1..0, every transition between dependent stages must cross a
/// pool_barrier (pooled only), and the ping-pong chain must thread
/// x -> b0 -> b1 -> ... -> y without a stage writing its own input.
void check_stage_walk(Ctx& cx, const std::string& body, std::size_t k,
                      bool pooled) {
  struct Call {
    long long sid = -1;
    std::string src, dst;
  };
  std::vector<Call> calls;
  std::vector<int> barriers_before;  // barriers since the previous call
  int pending = 0;
  std::size_t p = 0;
  while (p < body.size()) {
    const std::size_t cb = body.find(pooled ? "run_stage_chunk(" : "stage",
                                     p);
    const std::size_t bb =
        pooled ? body.find("pool_barrier();", p) : std::string::npos;
    if (cb == std::string::npos && bb == std::string::npos) break;
    if (bb != std::string::npos && (cb == std::string::npos || bb < cb)) {
      ++pending;
      p = bb + 15;
      continue;
    }
    Call c;
    std::size_t q = cb + (pooled ? 16 : 5);
    if (!read_ll(body, &q, &c.sid)) {
      p = cb + 1;
      continue;
    }
    if (!expect(body, &q, pooled ? ", " : "(")) {
      p = cb + 1;
      continue;
    }
    const std::size_t comma = body.find(',', q);
    if (comma == std::string::npos) break;
    c.src = body.substr(q, comma - q);
    q = comma + 2;
    const std::size_t end = body.find(',', q);
    if (end == std::string::npos) break;
    c.dst = body.substr(q, end - q);
    calls.push_back(c);
    barriers_before.push_back(pending);
    pending = 0;
    p = end;
  }
  if (calls.size() != k) {
    cx.add(CodegenDiag::kShapeMismatch, -1,
           "program walk dispatches " + std::to_string(calls.size()) +
               " stage(s), expected " + std::to_string(k));
    return;
  }
  std::string cur = "x";
  int flip = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const long long want_sid = static_cast<long long>(k - 1 - i);
    if (calls[i].sid != want_sid) {
      cx.add(CodegenDiag::kShapeMismatch, static_cast<int>(want_sid),
             "stage dispatch order is " + std::to_string(calls[i].sid) +
                 ", stages must run right-to-left");
      return;
    }
    if (pooled && i > 0 && barriers_before[i] == 0) {
      cx.add(CodegenDiag::kMissingBarrier, static_cast<int>(want_sid),
             "no pool_barrier between stage " +
                 std::to_string(calls[i - 1].sid) + " and stage " +
                 std::to_string(calls[i].sid) +
                 " (dependent stages may race)");
    }
    std::string want_dst;
    if (want_sid == 0) {
      want_dst = "y";
    } else {
      want_dst = flip ? "b1" : "b0";
      flip ^= 1;
    }
    if (calls[i].src != cur || calls[i].dst != want_dst) {
      cx.add(CodegenDiag::kShapeMismatch, static_cast<int>(want_sid),
             "ping-pong chain broken: stage reads " + calls[i].src +
                 " writes " + calls[i].dst + ", expected " + cur + " -> " +
                 want_dst);
      return;
    }
    cur = want_dst;
  }
}

/// Structural checks of the pool runtime: barrier protocol, _Atomic job
/// pointers, worker loop, and the publish-before-barrier dispatch order.
void check_pool_runtime(Ctx& cx, std::size_t k, long long* pool_p) {
  const std::string& s = cx.src;
  std::size_t p = 0;
  if (!seek(s, &p, "enum { POOL_P = ") || !read_ll(s, &p, pool_p) ||
      !expect(s, &p, " };")) {
    cx.add(CodegenDiag::kParseError, -1, "POOL_P not found");
    return;
  }
  // Sense-reversing barrier with acquire/release pairing.
  const std::string barrier = fn_text(s, "static void pool_barrier(void) {");
  if (barrier.empty() ||
      barrier.find("atomic_fetch_add_explicit(&pool_count, 1, "
                   "memory_order_acq_rel)") == std::string::npos ||
      barrier.find("== POOL_P - 1") == std::string::npos ||
      barrier.find("atomic_store_explicit(&pool_sense, my, "
                   "memory_order_release)") == std::string::npos ||
      barrier.find("atomic_load_explicit(&pool_sense, "
                   "memory_order_acquire)") == std::string::npos) {
    cx.add(CodegenDiag::kParseError, -1,
           "pool_barrier lacks the sense-reversing acquire/release "
           "protocol");
  }
  // The job pointers must be _Atomic: plain globals get hoisted above the
  // barrier by IPA-modref (the observed gcc -O2 miscompile).
  for (const char* name : {"job_x", "job_y", "job_b0", "job_b1"}) {
    if (s.find(std::string("*_Atomic ") + name) == std::string::npos) {
      if (s.find(name) != std::string::npos) {
        cx.add(CodegenDiag::kNonAtomicJobDispatch, -1,
               std::string(name) +
                   " is not _Atomic: compilers may hoist its load above "
                   "pool_barrier");
      } else {
        cx.add(CodegenDiag::kParseError, -1,
               std::string(name) + " declaration not found");
      }
    }
  }
  // Worker loop: barrier -> whole-program walk -> barrier.
  const std::string worker =
      fn_body(fn_text(s, "static void *pool_worker(void *arg) {"),
              "static void *pool_worker(void *arg) {");
  if (worker.empty()) {
    cx.add(CodegenDiag::kParseError, -1, "pool_worker not found");
  } else {
    std::size_t wp = 0;
    if (!seek(worker, &wp, "pool_barrier();")) {
      cx.add(CodegenDiag::kMissingBarrier, -1,
             "pool_worker has no dispatch barrier");
    } else if (!seek(worker, &wp,
                     "run_program(job_x, job_y, job_b0, job_b1, t);")) {
      cx.add(CodegenDiag::kParseError, -1,
             "pool_worker does not run the whole program from the job "
             "pointers");
    } else if (!seek(worker, &wp, "pool_barrier();")) {
      cx.add(CodegenDiag::kMissingBarrier, -1,
             "pool_worker has no completion barrier");
    }
  }
  // Master dispatch: publish job pointers, then barrier, then walk, then
  // completion barrier.
  const std::string runp = fn_body(
      fn_text(s,
              "static void pool_run_program(const double *x, double *y, "
              "double *b0, double *b1) {"),
      "static void pool_run_program(const double *x, double *y, "
      "double *b0, double *b1) {");
  if (runp.empty()) {
    cx.add(CodegenDiag::kParseError, -1, "pool_run_program not found");
  } else {
    const std::size_t pub =
        runp.find("job_x = x; job_y = y; job_b0 = b0; job_b1 = b1;");
    const std::size_t bar1 = runp.find("pool_barrier();");
    const std::size_t run = runp.find("run_program(x, y, b0, b1, 0);");
    const std::size_t bar2 =
        run == std::string::npos ? std::string::npos
                                 : runp.find("pool_barrier();", run);
    if (pub == std::string::npos || bar1 == std::string::npos ||
        run == std::string::npos || bar2 == std::string::npos ||
        !(pub < bar1 && bar1 < run && run < bar2)) {
      cx.add(CodegenDiag::kMissingBarrier, -1,
             "pool_run_program must publish job pointers before the "
             "dispatch barrier and re-join at a completion barrier");
    }
  }
  // Per-stage chunk arms + barrier placement along the program walk.
  const std::string chunk = fn_text(cx.src, kChunkDecl);
  const std::string walk =
      fn_body(fn_text(cx.src, kRunProgDecl), kRunProgDecl);
  if (chunk.empty() || walk.empty()) {
    cx.add(CodegenDiag::kParseError, -1,
           "run_stage_chunk/run_program not found");
    return;
  }
  check_stage_walk(cx, walk, k, /*pooled=*/true);
}

/// Sequential entry: direct stage calls, full iteration ranges, same
/// right-to-left ping-pong chain.
void parse_sequential_entry(Ctx& cx, const std::string& body, std::size_t k,
                            std::vector<PStage>* ps) {
  for (std::size_t si = 0; si < k; ++si) {
    const std::string tag = std::to_string(si);
    std::size_t p = 0;
    if (!seek(body, &p, "  stage" + tag + "(")) {
      cx.add(CodegenDiag::kScheduleMismatch, static_cast<int>(si),
             "stage is never dispatched by the entry point");
      continue;
    }
    if (!seek(body, &p, ", 0, ")) {
      cx.add(CodegenDiag::kScheduleMismatch, static_cast<int>(si),
             "sequential dispatch does not cover iterations from 0");
      continue;
    }
    long long iters = 0;
    if (!read_ll(body, &p, &iters) || !expect(body, &p, ");")) {
      cx.add(CodegenDiag::kParseError, static_cast<int>(si),
             "sequential stage call malformed");
      continue;
    }
    (*ps)[si].sp = 1;
    (*ps)[si].iters = iters;
  }
  check_stage_walk(cx, body, k, /*pooled=*/false);
}

// ---------------------------------------------------------------------------
// Semantic diffs against the source StageList + reconstruction.
// ---------------------------------------------------------------------------

long long emitted_index(const PSide& s, long long cn, long long it,
                        long long l) {
  if (s.affine) return s.base + it * s.it_stride + l * s.el_stride;
  const std::size_t at = static_cast<std::size_t>(it * cn + l);
  return at < s.table.size() ? s.table[at] : -1;
}

void diff_side(Ctx& cx, int si, const Stage& src, const PSide& es,
               bool input) {
  const long long cn = src.cn;
  const char* name = input ? "input" : "output";
  if (!es.affine) {
    const long long need = src.iters * cn;
    if (static_cast<long long>(es.table.size()) != need) {
      cx.add(CodegenDiag::kFootprintMismatch, si,
             std::string(name) + " table has " +
                 std::to_string(es.table.size()) + " entries, stage needs " +
                 std::to_string(need));
      return;
    }
  }
  long long bad = 0;
  std::string ex;
  for (idx_t it = 0; it < src.iters; ++it) {
    for (idx_t l = 0; l < cn; ++l) {
      const long long got = emitted_index(es, cn, it, l);
      const long long want =
          input ? src.in_index(it, l) : src.out_index(it, l);
      if (got != want) {
        if (bad < 3) {
          ex += " (it=" + std::to_string(it) + ",l=" + std::to_string(l) +
                ": " + std::to_string(got) + " != " + std::to_string(want) +
                ")";
        }
        ++bad;
      }
    }
  }
  if (bad > 0) {
    cx.add(CodegenDiag::kFootprintMismatch, si,
           std::string(name) + " addressing differs from the stage IR at " +
               std::to_string(bad) + " site(s):" + ex);
  }
}

void diff_scale(Ctx& cx, int si, const util::cvec& src, bool emitted,
                const std::vector<double>& tbl, bool input) {
  const char* name = input ? "input" : "output";
  if (emitted != !src.empty()) {
    cx.add(CodegenDiag::kScaleMismatch, si,
           std::string(name) + " scale diagonal " +
               (emitted ? "emitted but absent from"
                        : "dropped by the emission; present in") +
               " the stage IR");
    return;
  }
  if (!emitted) return;
  if (tbl.size() != 2 * src.size()) {
    cx.add(CodegenDiag::kScaleMismatch, si,
           std::string(name) + " scale table has " +
               std::to_string(tbl.size()) + " entries, stage needs " +
               std::to_string(2 * src.size()));
    return;
  }
  long long bad = 0;
  std::string ex;
  for (std::size_t i = 0; i < src.size(); ++i) {
    const double dr = tbl[2 * i] - src[i].real();
    const double di = tbl[2 * i + 1] - src[i].imag();
    if (std::fabs(dr) > 1e-12 || std::fabs(di) > 1e-12) {
      if (bad < 2) ex += " (entry " + std::to_string(i) + ")";
      ++bad;
    }
  }
  if (bad > 0) {
    cx.add(CodegenDiag::kScaleMismatch, si,
           std::string(name) + " scale values differ from the fused "
                               "diagonal at " +
               std::to_string(bad) + " entr(ies):" + ex);
  }
}

/// 64-bit evaluation of an affine side at its iteration-space corners: the
/// closed form (and its 2*idx+1 interleaved address) must fit int64.
void check_affine_range(Ctx& cx, int si, const PSide& s, long long iters,
                        long long cn, bool input) {
  if (!s.affine) return;
  const long long its[2] = {0, iters > 0 ? iters - 1 : 0};
  const long long ls[2] = {0, cn > 0 ? cn - 1 : 0};
  for (long long it : its) {
    for (long long l : ls) {
      long long t1 = 0, t2 = 0, v = 0, d = 0;
      bool ovf = __builtin_mul_overflow(it, s.it_stride, &t1);
      ovf = ovf || __builtin_mul_overflow(l, s.el_stride, &t2);
      ovf = ovf || __builtin_add_overflow(s.base, t1, &v);
      ovf = ovf || __builtin_add_overflow(v, t2, &v);
      ovf = ovf || __builtin_mul_overflow(v, 2LL, &d);
      ovf = ovf || __builtin_add_overflow(d, 1LL, &d);
      if (ovf) {
        cx.add(CodegenDiag::kNarrowedIndex, si,
               std::string(input ? "input" : "output") +
                   " affine index overflows 64-bit arithmetic at the "
                   "iteration-space corners");
        return;
      }
    }
  }
}

void diff_stage(Ctx& cx, int sid, const Stage& src, const PStage& ps) {
  if (!ps.found || !ps.parse_ok) return;
  if (ps.is_compute != src.is_compute) {
    cx.add(CodegenDiag::kShapeMismatch, sid,
           std::string("emitted as a ") +
               (ps.is_compute ? "codelet" : "copy") + " stage, IR says " +
               (src.is_compute ? "codelet" : "copy"));
    return;
  }
  if (ps.cn != src.cn) {
    cx.add(CodegenDiag::kShapeMismatch, sid,
           "codelet size " + std::to_string(ps.cn) + " != IR " +
               std::to_string(src.cn));
    return;
  }
  if (ps.has_codelet) {
    if (ps.wht != src.wht) {
      cx.add(CodegenDiag::kShapeMismatch, sid, "WHT/DFT codelet kind differs");
    } else if (!src.wht && ps.sign != src.sign) {
      cx.add(CodegenDiag::kShapeMismatch, sid,
             "codelet root sign differs from the IR");
    }
  }
  if (ps.iters >= 0 && ps.iters != src.iters) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "dispatch covers " + std::to_string(ps.iters) +
               " iteration(s), stage has " + std::to_string(src.iters));
  }
  const long long want_sp = src.parallel_p > 1 ? src.parallel_p : 1;
  if (ps.iters >= 0 && ps.sp != want_sp) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "dispatched over " + std::to_string(ps.sp) +
               " thread(s), schedule says " + std::to_string(want_sp));
  }
  if (src.parallel_p > 1 && src.sched_block > 0) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "block-cyclic schedule (sched_block=" +
               std::to_string(src.sched_block) +
               ") is not expressible in the emitted contiguous-chunk "
               "dispatch");
  }
  if (ps.in.narrowed || ps.out.narrowed) {
    cx.add(CodegenDiag::kNarrowedIndex, sid,
           "scalar body computes element indices in 32-bit `int` "
           "arithmetic");
  }
  if (ps.vec_narrowed) {
    cx.add(CodegenDiag::kNarrowedIndex, sid,
           "vector body computes element indices in 32-bit `int` "
           "arithmetic");
  }
  // x[2*inm[l]] multiplies an int32 table entry in int arithmetic: entries
  // at or above 2^30 overflow before the promotion to the subscript.
  if (ps.is_compute) {
    for (const PSide* es : {&ps.in, &ps.out}) {
      for (long long e : es->table) {
        if (e >= (1LL << 30)) {
          cx.add(CodegenDiag::kNarrowedIndex, sid,
                 "int32 table entry " + std::to_string(e) +
                     " overflows the emitted 2*idx int arithmetic");
          break;
        }
      }
    }
  }
  check_affine_range(cx, sid, ps.in, src.iters, src.cn, true);
  check_affine_range(cx, sid, ps.out, src.iters, src.cn, false);
  diff_side(cx, sid, src, ps.in, true);
  diff_side(cx, sid, src, ps.out, false);
  diff_scale(cx, sid, src.in_scale.expand(), ps.in_scaled, ps.iscl, true);
  diff_scale(cx, sid, src.out_scale.expand(), ps.out_scaled, ps.oscl, false);
}

/// Rebuilds a backend::Stage from the parsed body so the reconstructed
/// program can be re-run through analysis::verify and the vectorizability
/// prover. Returns false when tampered indices cannot be represented.
bool build_recon(const PStage& ps, const Stage& src, int sid, Stage* out) {
  Stage s;
  s.iters = static_cast<idx_t>(ps.iters >= 0 ? ps.iters : src.iters);
  s.cn = static_cast<idx_t>(ps.cn);
  s.sign = ps.has_codelet ? ps.sign : src.sign;
  s.is_compute = ps.is_compute;
  s.wht = ps.has_codelet && ps.wht;
  s.parallel_p = static_cast<idx_t>(ps.sp > 1 ? ps.sp : 0);
  s.sched_block = 0;
  // Both side forms come back as tables; an affine side (which parsed no
  // table) is evaluated at every (it, l).
  auto side = [&](const PSide& es, bool input) -> bool {
    std::vector<long long> entries = es.table;
    if (es.affine) {
      for (idx_t it = 0; it < s.iters; ++it) {
        for (idx_t l = 0; l < s.cn; ++l) {
          entries.push_back(emitted_index(es, s.cn, it, l));
        }
      }
    }
    std::vector<std::int32_t> m;
    m.reserve(entries.size());
    for (long long e : entries) {
      if (e < 0 || e >= backend::kMaxIndexableElems) return false;
      m.push_back(static_cast<std::int32_t>(e));
    }
    if (input) {
      s.in_map = std::move(m);
    } else {
      s.out_map = std::move(m);
    }
    return true;
  };
  if (!side(ps.in, true) || !side(ps.out, false)) return false;
  auto scale = [](const std::vector<double>& t) {
    util::cvec v;
    v.reserve(t.size() / 2);
    for (std::size_t i = 0; i + 1 < t.size(); i += 2) {
      v.push_back(cplx(t[i], t[i + 1]));
    }
    return v;
  };
  if (ps.in_scaled) s.in_scale = backend::StageScale(scale(ps.iscl));
  if (ps.out_scaled) s.out_scale = backend::StageScale(scale(ps.oscl));
  s.label = "emitted stage " + std::to_string(sid);
  *out = s;
  return true;
}

// ---------------------------------------------------------------------------
// Codelet validation driver.
// ---------------------------------------------------------------------------

bool parse_dft_tables(const std::string& fn, long long n, PCodelet* c) {
  std::size_t p = 0;
  long long n2 = 0;
  if (!seek(fn, &p, "static const int rev[") || !read_ll(fn, &p, &n2) ||
      n2 != n || !expect(fn, &p, "] = {") ||
      !read_ll_list(fn, &p, '}', &c->rev)) {
    return false;
  }
  const int k = util::log2_exact(static_cast<idx_t>(n));
  for (int st = 0; st < k; ++st) {
    long long h = 0, h2 = 0, h3 = 0;
    std::vector<double> twr, twi;
    if (!seek(fn, &p, "{ /* stage h=") || !read_ll(fn, &p, &h) ||
        h != (1LL << st) ||
        !seek(fn, &p, "static const double twr[") ||
        !read_ll(fn, &p, &h2) || h2 != h || !expect(fn, &p, "] = {") ||
        !read_dbl_list(fn, &p, '}', &twr) ||
        !seek(fn, &p, "static const double twi[") ||
        !read_ll(fn, &p, &h3) || h3 != h || !expect(fn, &p, "] = {") ||
        !read_dbl_list(fn, &p, '}', &twi)) {
      return false;
    }
    c->twr.push_back(std::move(twr));
    c->twi.push_back(std::move(twi));
  }
  return true;
}

void check_codelets(Ctx& cx, const std::vector<PStage>& ps) {
  std::set<std::tuple<long long, int, bool, long long>> needed;
  for (const PStage& st : ps) {
    if (!st.parse_ok || !st.is_compute || st.cn < 2) continue;
    needed.insert({st.cn, st.sign, st.wht, 0});
    if (st.vec_w >= 2) needed.insert({st.cn, st.sign, st.wht, st.vec_w});
  }
  for (const auto& [cn, sign, wht, w] : needed) {
    const std::string name =
        (wht ? "wht" + std::to_string(cn)
             : "dft" + std::to_string(cn) + (sign < 0 ? "f" : "i")) +
        (w >= 2 ? "_v" + std::to_string(w) : "");
    if (!util::is_pow2(static_cast<idx_t>(cn)) || cn > 4096) {
      cx.add(CodegenDiag::kCodeletMismatch, -1,
             name + ": codelet size is not a supported power of two");
      continue;
    }
    const std::string vt =
        w >= 2 ? "vd" + std::to_string(w) : std::string("double");
    const std::string decl =
        "static void " + name + "(" + vt + " *re, " + vt + " *im) {";
    const std::string fn = fn_text(cx.src, decl);
    if (fn.empty()) {
      cx.add(CodegenDiag::kCodeletMismatch, -1,
             name + ": codelet function not emitted");
      continue;
    }
    if (wht) {
      const std::string want = render_wht_codelet(cn, w);
      if (fn != want) {
        cx.add(CodegenDiag::kCodeletMismatch, -1,
               name + ": body deviates from the canonical WHT butterfly "
                      "network: " +
                   first_diff(want, fn));
      }
      continue;
    }
    PCodelet c;
    if (!parse_dft_tables(fn, cn, &c)) {
      cx.add(CodegenDiag::kCodeletMismatch, -1,
             name + ": rev/twiddle tables missing or malformed");
      continue;
    }
    const std::string want = render_dft_codelet(cn, sign, w, c);
    if (fn != want) {
      cx.add(CodegenDiag::kCodeletMismatch, -1,
             name + ": body deviates from the canonical radix-2 network: " +
                 first_diff(want, fn));
      continue;
    }
    std::string err;
    if (!simulate_dft_network(cn, sign, c, &err)) {
      cx.add(CodegenDiag::kCodeletMismatch, -1, name + ": " + err);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

CodegenReport check_codegen(const std::string& source,
                            const backend::StageList& list,
                            const CodegenCheckOptions& opt) {
  CodegenReport rep;
  Ctx cx{source, rep};
  std::size_t p = 0;
  long long hn = 0, hk = 0;
  if (!seek(source, &p, "Transform size n = ") || !read_ll(source, &p, &hn) ||
      !expect(source, &p, ", ") || !read_ll(source, &p, &hk) ||
      !expect(source, &p, " stage(s). */")) {
    cx.add(CodegenDiag::kParseError, -1,
           "generated-source header not found; not an emit_c translation "
           "unit");
    return rep;
  }
  rep.n = static_cast<idx_t>(hn);
  rep.stages = static_cast<int>(hk);
  if (hn != list.n || hk != static_cast<long long>(list.stages.size())) {
    cx.add(CodegenDiag::kShapeMismatch, -1,
           "emitted program is n=" + std::to_string(hn) + "/" +
               std::to_string(hk) + " stage(s), plan is n=" +
               std::to_string(list.n) + "/" +
               std::to_string(list.stages.size()));
    return rep;
  }
  if (source.find("#pragma omp") != std::string::npos) {
    cx.add(CodegenDiag::kParseError, -1,
           "OpenMP emission is outside the validated dialect");
    return rep;
  }
  const bool pooled = source.find(kChunkDecl) != std::string::npos;
  if (!pooled && source.find("pthread_create") != std::string::npos) {
    cx.add(CodegenDiag::kParseError, -1,
           "per-stage fork/join emission is outside the validated "
           "dialect");
    return rep;
  }
  const std::size_t k = list.stages.size();
  long long src_max_p = 1;
  for (const backend::Stage& s : list.stages) {
    src_max_p = std::max(src_max_p, static_cast<long long>(s.parallel_p));
  }

  // Per-stage bodies (scalar + optional vector) and their tables.
  std::vector<PStage> ps(k);
  for (std::size_t si = 0; si < k; ++si) {
    const std::string tag = std::to_string(si);
    const std::string scal_decl =
        "static void stage" + tag +
        "_scalar(const double *x, double *y, long lo, long hi) {";
    const std::string plain_decl =
        "static void stage" + tag +
        "(const double *x, double *y, long lo, long hi) {";
    const std::string scal_fn = fn_text(source, scal_decl);
    const std::string plain_fn = fn_text(source, plain_decl);
    const bool vectorized = !scal_fn.empty();
    if (plain_fn.empty()) {
      cx.add(CodegenDiag::kParseError, static_cast<int>(si),
             "stage function not found");
      continue;
    }
    ps[si].found = true;
    const std::string sbody = vectorized ? fn_body(scal_fn, scal_decl)
                                         : fn_body(plain_fn, plain_decl);
    ps[si].parse_ok = parse_scalar_body(cx, si, sbody, &ps[si]);
    if (!ps[si].parse_ok) continue;
    parse_stage_tables(cx, si, &ps[si]);
    if (vectorized) {
      if (!parse_vec_body(cx, si, fn_body(plain_fn, plain_decl), &ps[si])) {
        continue;
      }
      if (ps[si].vec_w >= 2) {
        rep.vec_stage_ids.push_back(static_cast<int>(si));
        rep.vec_stage_widths.push_back(static_cast<idx_t>(ps[si].vec_w));
        const std::string td =
            "typedef double vd" + std::to_string(ps[si].vec_w) +
            " __attribute__((vector_size(" +
            std::to_string(8 * ps[si].vec_w) + ")));";
        if (source.find(td) == std::string::npos) {
          cx.add(CodegenDiag::kParseError, static_cast<int>(si),
                 "vector typedef for width " + std::to_string(ps[si].vec_w) +
                     " not emitted");
        }
      }
    }
  }

  // Dispatch: pool runtime or sequential entry, then the entry point.
  if (pooled != (src_max_p > 1)) {
    cx.add(CodegenDiag::kScheduleMismatch, -1,
           pooled ? "worker pool emitted for a fully sequential plan"
                  : "parallel plan emitted without a worker pool");
  }
  const std::string entry_decl =
      "void " + opt.entry_name +
      "(const double *x, double *y, double *b0, double *b1) {";
  const std::string entry_body =
      fn_body(fn_text(source, entry_decl), entry_decl);
  if (pooled) {
    long long pool_p = 0;
    check_pool_runtime(cx, k, &pool_p);
    if (pool_p > 0 && pool_p != src_max_p) {
      cx.add(CodegenDiag::kScheduleMismatch, -1,
             "POOL_P is " + std::to_string(pool_p) + ", plan team size is " +
                 std::to_string(src_max_p));
    }
    const std::string chunk_body =
        fn_body(fn_text(source, kChunkDecl), kChunkDecl);
    for (std::size_t si = 0; si < k; ++si) {
      if (ps[si].parse_ok) {
        parse_chunk_arm(cx, chunk_body, si, &ps[si]);
      }
    }
    if (entry_body.empty()) {
      cx.add(CodegenDiag::kShapeMismatch, -1,
             "entry point " + opt.entry_name + " not found");
    } else {
      std::size_t ep = 0;
      if (!seek(entry_body, &ep, "pool_start();") ||
          !seek(entry_body, &ep, "pool_run_program(x, y, b0, b1);")) {
        cx.add(CodegenDiag::kParseError, -1,
               "entry point does not start and dispatch the worker pool");
      }
    }
  } else {
    if (entry_body.empty()) {
      cx.add(CodegenDiag::kShapeMismatch, -1,
             "entry point " + opt.entry_name + " not found");
    } else {
      parse_sequential_entry(cx, entry_body, k, &ps);
    }
  }

  // Semantic diffs + reconstruction.
  backend::StageList recon;
  recon.n = list.n;
  bool reconstructable = true;
  for (std::size_t si = 0; si < k; ++si) {
    diff_stage(cx, static_cast<int>(si), list.stages[si], ps[si]);
    backend::Stage rs;
    if (ps[si].found && ps[si].parse_ok &&
        build_recon(ps[si], list.stages[si], static_cast<int>(si), &rs)) {
      recon.stages.push_back(std::move(rs));
    } else {
      reconstructable = false;
    }
    if (ps[si].vec_w >= 2 && ps[si].parse_ok) {
      backend::Stage vs;
      if (build_recon(ps[si], list.stages[si], static_cast<int>(si), &vs)) {
        const backend::SideVecInfo sv = backend::stage_vector_sides(
            vs, static_cast<idx_t>(ps[si].vec_w));
        if (sv.width != ps[si].vec_w ||
            sv.in != backend::VecForm::kAcrossIterations ||
            sv.out != backend::VecForm::kAcrossIterations) {
          cx.add(CodegenDiag::kLaneMismatch, static_cast<int>(si),
                 "vector body emitted for a stage whose maps do not prove "
                 "the across-iterations shape at width " +
                     std::to_string(ps[si].vec_w));
        }
      }
    }
  }
  if (reconstructable) {
    Options vopt;
    vopt.mu = opt.mu;
    const Report vr = verify(recon, vopt);
    for (const Finding& f : vr.findings) {
      if (f.severity != Severity::kError) continue;
      cx.add(CodegenDiag::kEmittedUnsafe, f.stage,
             std::string(spiral::analysis::to_string(f.kind)) + ": " +
                 f.message);
    }
  }

  check_codelets(cx, ps);
  return rep;
}

}  // namespace spiral::analysis
