#include "backend/codegen_c.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "backend/codelet_template.hpp"
#include "backend/schedule.hpp"
#include "backend/vectorize.hpp"
#include "util/common.hpp"

namespace spiral::backend {

namespace {

std::atomic<CodegenMutation> g_codegen_mutation{CodegenMutation::kNone};

bool mutated(CodegenMutation m) {
  return g_codegen_mutation.load(std::memory_order_acquire) == m;
}

// ---------------------------------------------------------------------------
// Codecs. A syntax function is written once against the interface below
// and runs in both directions: CWriter appends each literal and value;
// CReader matches each literal byte for byte and parses each value into
// its field. Control flow in a syntax function may depend only on fields
// already read, so both directions walk the text in the same order.
//
//   lit(s)        fixed text
//   num(v)        an integer or double value
//   text(s, end)  a string value running up to (not including) `end`
//   opt(f, s)     optional text s; f says whether it is there
//   pick(k, alts) one of several texts, none a prefix of another; k is
//                 its index
//   peek(f, s)    does s come next (reading), or f (writing)
// ---------------------------------------------------------------------------

class CWriter {
 public:
  static constexpr bool kReading = false;
  [[nodiscard]] bool ok() const { return true; }
  void lit(std::string_view s) { out_ += s; }
  void num(idx_t& v) { out_ += std::to_string(v); }
  void num(double& v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
  }
  void text(std::string& s, std::string_view) { out_ += s; }
  bool opt(bool& f, std::string_view s) {
    if (f) out_ += s;
    return f;
  }
  void pick(int& k, std::initializer_list<std::string_view> alts) {
    out_ += alts.begin()[k];
  }
  bool peek(bool f, std::string_view) { return f; }
  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

class CReader {
 public:
  static constexpr bool kReading = true;
  explicit CReader(const std::string& src) : src_(src) {}
  [[nodiscard]] bool ok() const { return error_.empty(); }
  void lit(std::string_view s) {
    if (!at(s)) return fail(quoted(s));
    pos_ += s.size();
  }
  void num(idx_t& v) {
    const char* at = src_.c_str() + pos_;
    char* end = nullptr;
    errno = 0;
    if (number_next()) v = std::strtoll(at, &end, 10);
    if (end == nullptr || end == at || errno == ERANGE) {
      return fail("an integer in 64-bit range");
    }
    pos_ += static_cast<std::size_t>(end - at);
  }
  void num(double& v) {
    const char* at = src_.c_str() + pos_;
    char* end = nullptr;
    if (number_next()) v = std::strtod(at, &end);
    if (end == nullptr || end == at) return fail("a number");
    pos_ += static_cast<std::size_t>(end - at);
  }
  void text(std::string& s, std::string_view end) {
    if (!ok()) return;
    const std::size_t at_end = src_.find(end, pos_);
    if (at_end == std::string::npos) return fail("a name");
    s = src_.substr(pos_, at_end - pos_);
    pos_ = at_end;
  }
  bool opt(bool& f, std::string_view s) {
    f = at(s);
    if (f) pos_ += s.size();
    return f;
  }
  /// No alternative may be a prefix of another.
  void pick(int& k, std::initializer_list<std::string_view> alts) {
    k = 0;
    for (std::string_view a : alts) {
      if (at(a)) {
        pos_ += a.size();
        return;
      }
      ++k;
    }
    k = 0;
    fail(quoted(*alts.begin()).append(" or an alternative"));
  }
  bool peek(bool, std::string_view s) { return at(s); }
  [[nodiscard]] bool at_end() const { return pos_ == src_.size(); }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Records the first deviation: its line and what was expected there.
  void fail(const std::string& want) {
    if (!ok()) return;
    const long line = 1 + std::count(src_.begin(),
                                     src_.begin() + static_cast<long>(pos_),
                                     '\n');
    error_ = "line " + std::to_string(line);
    error_.append(": expected ").append(want).append(", found ");
    error_.append(quoted(std::string_view(src_).substr(pos_)));
  }

 private:
  /// The first 40 bytes of s in quotes, line breaks shown as spaces.
  static std::string quoted(std::string_view s) {
    std::string q(1, '"');
    q.append(s.substr(0, 40)).push_back('"');
    std::replace(q.begin(), q.end(), '\n', ' ');
    return q;
  }

  [[nodiscard]] bool at(std::string_view s) const {
    return ok() && src_.compare(pos_, s.size(), s) == 0;
  }
  /// A value starts with a digit or a minus sign (strto* would also skip
  /// whitespace and take a '+').
  [[nodiscard]] bool number_next() const {
    return ok() && pos_ < src_.size() &&
           (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '-');
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// Concatenates strings and integers: the text around values that were
/// read earlier, which must repeat them.
template <class... A>
std::string cat(const A&... a) {
  std::string s;
  auto one = [&s](const auto& v) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(v)>>) {
      s += std::to_string(v);
    } else {
      s += v;
    }
  };
  (one(a), ...);
  return s;
}

/// f(i, v[i]) for i < n; reading, v grows one element at a time and the
/// loop stops at the first deviation (n itself may have been read).
template <class C, class T, class F>
void items(C& c, std::vector<T>& v, idx_t n, F f) {
  if constexpr (C::kReading) v.clear();
  for (idx_t i = 0; i < n && c.ok(); ++i) {
    if constexpr (C::kReading) v.emplace_back();
    f(i, v[static_cast<std::size_t>(i)]);
  }
}

/// One of two texts as a flag: `yes` when f.
template <class C>
void pick_flag(C& c, bool& f, std::string_view no, std::string_view yes) {
  int k = f ? 1 : 0;
  c.pick(k, {no, yes});
  f = k == 1;
}

/// A DFT root sign as the codelet name's suffix.
template <class C>
void sign_suffix(C& c, int& sign) {
  bool inverse = sign > 0;
  pick_flag(c, inverse, "f", "i");
  sign = inverse ? 1 : -1;
}

/// `N] = {v0,v1,...};\n` with a line break before every per_line-th
/// entry; N is read as a value.
template <class C, class T>
void table(C& c, std::vector<T>& v, idx_t per_line) {
  idx_t len = static_cast<idx_t>(v.size());
  c.num(len);
  c.lit("] = {");
  items(c, v, len, [&](idx_t i, T& x) {
    if (i % per_line == 0) c.lit("\n  ");
    c.num(x);
    if (i + 1 < len) c.lit(",");
  });
  c.lit("};\n");
}

/// A comma-separated list of at least one integer.
template <class C>
void csv(C& c, std::vector<idx_t>& v) {
  if constexpr (C::kReading) v.assign(1, 0);
  for (std::size_t i = 0; c.ok(); ++i) {
    c.num(v[i]);
    bool more = i + 1 < v.size();
    if (!c.opt(more, ",")) break;
    if constexpr (C::kReading) v.emplace_back();
  }
}

template <class C>
void buffer(C& c, int& b) {
  c.pick(b, {kBufNames[0], kBufNames[1], kBufNames[2], kBufNames[3]});
}

/// A value read from the text, clamped so that arithmetic on it cannot
/// overflow; the text that repeats it then fails to match.
idx_t clamped(idx_t v) {
  return std::clamp(v, -(idx_t{1} << 40), idx_t{1} << 40);
}

std::string vec_type(idx_t w) {
  return w >= 2 ? cat("vd", w) : std::string("double");
}

std::string codelet_name(bool wht, idx_t n, int sign, idx_t w) {
  return cat(wht ? "wht" : "dft", n, wht ? "" : (sign < 0 ? "f" : "i"),
             w >= 2 ? cat("_v", w) : std::string());
}

// ---------------------------------------------------------------------------
// The syntax of the emitted dialect, one function per construct.
// ---------------------------------------------------------------------------

template <class C>
void header(C& c, CProgram& p, idx_t& k) {
  c.lit(
      "/* Generated by spiral-smp-fft (reproduction of Franchetti et al.,\n"
      " * \"FFT Program Generation for Shared Memory: SMP and Multicore\",\n"
      " * SC 2006). Transform size n = ");
  c.num(p.n);
  c.lit(", ");
  c.num(k);
  c.lit(" stage(s). */\n#include <math.h>\n#include <string.h>\n"
        "#include <stdlib.h>\n");
  c.opt(p.pooled,
        "#include <pthread.h>\n#include <stdatomic.h>\n");
  c.opt(p.has_main, "#include <stdio.h>\n");
  c.lit("\n");
  // Vector typedefs for every emission width (GNU C vector extensions:
  // the same source lowers to SSE2 pairs, ymm or zmm depending on the
  // compile flags, e.g. -march=native).
  bool vec = !p.vec_types.empty();
  if (!c.opt(vec,
             "/* Lane-batched SIMD stage bodies: one vector lane per loop\n"
             " * iteration, split-lane complex, broadcast twiddles. */\n")) {
    return;
  }
  for (std::size_t i = 0; c.peek(i < p.vec_types.size(), "typedef "); ++i) {
    if constexpr (C::kReading) p.vec_types.emplace_back();
    idx_t& w = p.vec_types[i];
    c.lit("typedef double vd");
    c.num(w);
    c.lit(cat(" __attribute__((vector_size(", 8 * clamped(w), ")));\n"));
  }
  c.lit("\n");
}

/// A side in the tables section: the affine closed form (as a comment;
/// the stage bodies repeat it inline) or the index table.
template <class C>
void side_decl(C& c, CSide& s, const std::string& name) {
  pick_flag(c, s.affine, cat("static const int ", name, "["),
            cat("/* ", name, ": affine "));
  if (!s.affine) return table(c, s.table, 16);
  c.num(s.base);
  c.lit(" + it*");
  c.num(s.iter_stride);
  c.lit(" + l*");
  c.num(s.elem_stride);
  c.lit(" */\n");
}

template <class C>
void stage_tables(C& c, CStage& s, idx_t si) {
  c.lit(cat("/* stage ", si, ": "));
  c.text(s.label, " */\n");
  c.lit(" */\n");
  side_decl(c, s.in, cat("s", si, "_in"));
  side_decl(c, s.out, cat("s", si, "_out"));
  for (auto [scale, name] : {std::pair{&s.iscl, "_iscl["},
                             std::pair{&s.oscl, "_oscl["}}) {
    bool has = !scale->empty();
    if (c.opt(has, cat("static const double s", si, name))) {
      table(c, *scale, 8);
    }
  }
}

/// A codelet value (COp): re[j], im[j] or t<k>. Read back, an index out
/// of its range becomes -1, a value no codelet defines.
template <class C>
void operand(C& c, idx_t& v, idx_t n) {
  int k = v < n ? 0 : v < 2 * n ? 1 : 2;
  c.pick(k, {"re[", "im[", "t"});
  idx_t j = v - k * n;
  c.num(j);
  if (k < 2) c.lit("]");
  v = j >= 0 && (k == 2 || j < n) ? clamped(j) + k * n : -1;
}

/// A straight-line codelet in place on re[], im[], scalar (`double`) or
/// across vector lanes (`vdW`): one declaration per op, then the stores.
template <class C>
void codelet(C& c, CCodelet& d) {
  pick_flag(c, d.wht, "static void dft", "static void wht");
  c.num(d.n);
  if (!d.wht) sign_suffix(c, d.sign);
  bool vec = d.w >= 2;
  if (c.opt(vec, "_v")) c.num(d.w);
  const std::string vt = vec_type(d.w);
  const idx_t n = clamped(d.n);
  c.lit(cat("(", vt, " *re, ", vt, " *im) {\n"));
  const std::string decl = cat("  ", vt, " t");
  for (std::size_t i = 0; c.peek(i < d.ops.size(), decl); ++i) {
    if constexpr (C::kReading) d.ops.emplace_back();
    COp& o = d.ops[i];
    c.lit(cat(decl, i, " = "));
    operand(c, o.a, n);
    c.pick(o.kind, {" + ", " - ", " * "});
    if (o.kind == COp::kMul) {
      c.num(o.c);
    } else {
      operand(c, o.b, n);
    }
    c.lit(";\n");
  }
  items(c, d.out, 2 * n, [&](idx_t k, idx_t& v) {
    c.lit(cat(k < n ? "  re[" : "  im[", k < n ? k : k - n, "] = "));
    operand(c, v, n);
    c.lit(";\n");
  });
  c.lit("}\n\n");
}

/// The stage function(s) of one stage: the scalar body, and for a
/// vectorized stage the vector body that hands its unaligned head and
/// tail to the scalar one. The index temporaries of both bodies share
/// one declared type, read at the first declaration.
template <class C>
class StageSyntax {
 public:
  StageSyntax(C& c, CStage& s, idx_t si) : c_(c), s_(s), si_(si) {}

  void run() {
    bool vec = s_.vec_w >= 2;
    c_.lit(cat("static void stage", si_));
    c_.opt(vec, "_scalar");
    c_.lit("(const double *x, double *y, long lo, long hi) {\n");
    pick_flag(c_, s_.compute, "  for (long j = lo; j < hi; ++j) {\n",
              "  for (long it = lo; it < hi; ++it) {\n");
    if (s_.compute) {
      codelet_body();
    } else {
      copy_body();
    }
    c_.lit("}\n");
    if (vec) {
      c_.lit(cat("static void stage", si_,
                 "(const double *x, double *y, long lo, long hi) {\n"));
      vector_body();
      c_.lit("}\n");
    }
    c_.lit("\n");
  }

 private:
  /// `long ` or `int `: read at the first index declaration, repeated
  /// by the others.
  void index_type() {
    if (typed_) {
      c_.lit(s_.narrow ? "int " : "long ");
      return;
    }
    pick_flag(c_, s_.narrow, "long ", "int ");
    typed_ = true;
  }

  /// Element index of a copy loop's iteration j.
  [[nodiscard]] std::string copy_index(const CSide& side,
                                       const char* suffix) const {
    if (side.affine) return cat("(", side.base, " + j*", side.iter_stride, ")");
    return cat("s", si_, suffix, "[j]");
  }

  void copy_body() {
    c_.lit("    const ");
    index_type();
    c_.lit(cat("ji = ", copy_index(s_.in, "_in"),
               ", jo = ", copy_index(s_.out, "_out"), ";\n"));
    if (s_.iscl.empty()) {
      c_.lit("    y[2*jo]   = x[2*ji];\n    y[2*jo+1] = x[2*ji+1];\n");
    } else {
      c_.lit(cat("    double ar = x[2*ji], ai = x[2*ji+1];\n",
                 "    double sr = s", si_, "_iscl[2*j], sim = s", si_,
                 "_iscl[2*j+1];\n",
                 "    y[2*jo]   = ar*sr - ai*sim;\n",
                 "    y[2*jo+1] = ar*sim + ai*sr;\n"));
    }
    c_.lit("  }\n");
  }

  /// One side's per-iteration base; returns the index expression of
  /// element l: a base offset plus the compile-time element stride, or a
  /// slice of the side's table.
  std::string side_base(const CSide& side, bool input) {
    const char* b = input ? "inb" : "outb";
    if (side.affine) {
      c_.lit("    const ");
      index_type();
      c_.lit(cat(b, " = ", side.base, " + it*", side.iter_stride, ";\n"));
      return cat("(", b, " + l*", side.elem_stride, ")");
    }
    const char* m = input ? "inm" : "outm";
    c_.lit(cat("    const int *", m, " = s", si_, input ? "_in" : "_out",
               " + it*", s_.cn, ";\n"));
    return cat(m, "[l]");
  }

  /// Both sides' bases and the scale rows of iteration `it`.
  void bases() {
    in_el_ = side_base(s_.in, true);
    out_el_ = side_base(s_.out, false);
    if (!s_.iscl.empty()) {
      c_.lit(cat("    const double *iscl = s", si_, "_iscl + 2*it*", s_.cn,
                 ";\n"));
    }
    if (!s_.oscl.empty()) {
      c_.lit(cat("    const double *oscl = s", si_, "_oscl + 2*it*", s_.cn,
                 ";\n"));
    }
  }

  /// The codelet call; the scalar body's reads kind and sign.
  void call(idx_t w) {
    c_.lit("    ");
    if (w >= 2) {
      c_.lit(codelet_name(s_.wht, s_.cn, s_.sign, w));
    } else {
      pick_flag(c_, s_.wht, "dft", "wht");
      c_.lit(cat(s_.cn));
      if (!s_.wht) sign_suffix(c_, s_.sign);
    }
    c_.lit("(re, im);\n");
  }

  void codelet_body() {
    c_.lit("    double re[");
    c_.num(s_.cn);
    const idx_t cn = s_.cn;
    c_.lit(cat("], im[", cn, "];\n"));
    bases();
    c_.lit(cat("    for (int l = 0; l < ", cn, "; ++l) {\n"));
    if (s_.iscl.empty()) {
      c_.lit(cat("      re[l] = x[2*", in_el_, "]; im[l] = x[2*", in_el_,
                 "+1];\n"));
    } else {
      c_.lit(cat("      double ar = x[2*", in_el_, "], ai = x[2*", in_el_,
                 "+1];\n",
                 "      re[l] = ar*iscl[2*l] - ai*iscl[2*l+1];\n",
                 "      im[l] = ar*iscl[2*l+1] + ai*iscl[2*l];\n"));
    }
    c_.lit("    }\n");
    if (cn > 1) call(0);
    c_.lit(cat("    for (int l = 0; l < ", cn, "; ++l) {\n"));
    if (s_.oscl.empty()) {
      c_.lit(cat("      y[2*", out_el_, "] = re[l]; y[2*", out_el_,
                 "+1] = im[l];\n"));
    } else {
      c_.lit(cat("      y[2*", out_el_, "]   = re[l]*oscl[2*l] - ",
                 "im[l]*oscl[2*l+1];\n",
                 "      y[2*", out_el_, "+1] = re[l]*oscl[2*l+1] + ",
                 "im[l]*oscl[2*l];\n"));
    }
    c_.lit("    }\n  }\n");
  }

  /// Lane v of each register is iteration it+v, so element l of a pack
  /// is one 2w-double interleaved run at the side's address for (it, l).
  /// Loads and stores go through memcpy (unaligned-safe) and
  /// __builtin_shufflevector splits/joins the re/im lanes. The scalar
  /// head and tail are anchored at absolute multiples of w: the form
  /// proof assumes packs start on lane boundaries of the whole iteration
  /// space, not of this chunk.
  void vector_body() {
    c_.lit("  long va = ((lo + ");
    idx_t w1 = s_.vec_w - 1;
    c_.num(w1);
    s_.vec_w = clamped(w1) + 1;
    const idx_t w = s_.vec_w;
    const idx_t cn = s_.cn;
    const std::string vt = vec_type(w);
    c_.lit(cat(") / ", w, ") * ", w, "; if (va > hi) va = hi;\n",
               "  long vb = (hi / ", w, ") * ", w, "; if (vb < va) vb = va;\n",
               "  if (lo < va) stage", si_, "_scalar(x, y, lo, va);\n",
               "  for (long it = va; it < vb; it += ", w, ") {\n",
               "    ", vt, " re[", cn, "], im[", cn, "];\n"));
    bases();
    c_.lit(cat("    for (int l = 0; l < ", cn, "; ++l) {\n      const "));
    index_type();
    c_.lit(cat("a0 = ", in_el_, ";\n",
               "      ", vt, " h0, h1;\n",
               "      __builtin_memcpy(&h0, x + 2*a0, sizeof h0);\n",
               "      __builtin_memcpy(&h1, x + 2*a0 + ", w,
               ", sizeof h1);\n",
               "      ", vt, " ar = __builtin_shufflevector(h0, h1, "));
    csv(c_, s_.shuffle[0]);
    c_.lit(cat(");\n      ", vt, " ai = __builtin_shufflevector(h0, h1, "));
    csv(c_, s_.shuffle[1]);
    c_.lit(");\n");
    // Lane v's scale lives at iteration it+v: a w-stride gather from the
    // interleaved table (cheap next to the codelet work).
    if (s_.iscl.empty()) {
      c_.lit("      re[l] = ar; im[l] = ai;\n");
    } else {
      c_.lit(cat("      ", vt, " sr, sm;\n",
                 "      for (int v = 0; v < ", w, "; ++v) {\n",
                 "        sr[v] = iscl[2*(v*", cn, "+l)];\n",
                 "        sm[v] = iscl[2*(v*", cn, "+l)+1];\n      }\n",
                 "      re[l] = ar*sr - ai*sm; im[l] = ar*sm + ai*sr;\n"));
    }
    c_.lit("    }\n");
    call(w);
    c_.lit(cat("    for (int l = 0; l < ", cn, "; ++l) {\n",
               "      ", vt, " vr = re[l], vi = im[l];\n"));
    if (!s_.oscl.empty()) {
      c_.lit(cat("      ", vt, " qr, qm;\n",
                 "      for (int v = 0; v < ", w, "; ++v) {\n",
                 "        qr[v] = oscl[2*(v*", cn, "+l)];\n",
                 "        qm[v] = oscl[2*(v*", cn, "+l)+1];\n      }\n",
                 "      ", vt, " tr = vr*qr - vi*qm;\n",
                 "      ", vt, " ti = vr*qm + vi*qr;\n",
                 "      vr = tr; vi = ti;\n"));
    }
    c_.lit("      const ");
    index_type();
    c_.lit(cat("b0 = ", out_el_, ";\n",
               "      ", vt, " o0 = __builtin_shufflevector(vr, vi, "));
    csv(c_, s_.shuffle[2]);
    c_.lit(cat(");\n      ", vt, " o1 = __builtin_shufflevector(vr, vi, "));
    csv(c_, s_.shuffle[3]);
    c_.lit(cat(");\n",
               "      __builtin_memcpy(y + 2*b0, &o0, sizeof o0);\n",
               "      __builtin_memcpy(y + 2*b0 + ", w, ", &o1, sizeof o1);\n",
               "    }\n  }\n",
               "  if (vb < hi) stage", si_, "_scalar(x, y, vb, hi);\n"));
  }

  C& c_;
  CStage& s_;
  const idx_t si_;
  bool typed_ = false;
  std::string in_el_, out_el_;
};

/// The stage walk: stages right-to-left along the ping-pong chain. In
/// the pool's run_program every thread runs its chunk of each stage and
/// a barrier separates dependent stages; a sequential entry calls each
/// stage over its whole iteration range.
template <class C>
void walk(C& c, std::vector<CStep>& steps, bool pooled) {
  for (std::size_t i = 0; c.peek(i < steps.size(), "  "); ++i) {
    if constexpr (C::kReading) steps.emplace_back();
    CStep& s = steps[i];
    if (pooled) {
      pick_flag(c, s.barrier, "  run_stage_chunk(", "  pool_barrier();\n");
      if (s.barrier) continue;
    } else {
      c.lit("  stage");
    }
    c.num(s.stage);
    c.lit(pooled ? ", " : "(");
    buffer(c, s.src);
    c.lit(", ");
    buffer(c, s.dst);
    if (pooled) {
      c.lit(", t);\n");
    } else {
      c.lit(", 0, ");
      c.num(s.iters);
      c.lit(");\n");
    }
  }
}

/// Persistent-pool runtime: sense-reversing barrier (spin, then park on a
/// condition variable, so idle workers stop burning CPU), detached
/// workers, per-thread chunk dispatch and the whole-program walk every
/// pool thread (master included) executes, one barrier per stage
/// transition: a transform costs k+1 barriers (dispatch, k-1
/// transitions, completion) — the single-fork structure of the
/// interpreter's fused path.
template <class C>
void pool_runtime(C& c, CProgram& p) {
  c.lit("enum { POOL_P = ");
  c.num(p.pool_p);
  c.lit(" };\n"
        "static _Atomic int pool_sense = 0;\n"
        "static _Atomic int pool_count = 0;\n"
        "static _Atomic int pool_sleepers = 0;\n"
        "static pthread_mutex_t pool_mu = PTHREAD_MUTEX_INITIALIZER;\n"
        "static pthread_cond_t pool_cv = PTHREAD_COND_INITIALIZER;\n"
        "static void pool_barrier(void) {\n"
        "  int my = !atomic_load_explicit(&pool_sense, memory_order_relaxed);\n"
        "  if (atomic_fetch_add_explicit(&pool_count, 1, "
        "memory_order_acq_rel) == POOL_P - 1) {\n"
        "    atomic_store_explicit(&pool_count, 0, memory_order_relaxed);\n"
        "    /* seq_cst store, then load: a parked waiter is either seen "
        "here or sees the new sense itself */\n"
        "    atomic_store(&pool_sense, my);\n"
        "    if (atomic_load(&pool_sleepers) > 0) {\n"
        "      pthread_mutex_lock(&pool_mu);\n"
        "      pthread_cond_broadcast(&pool_cv);\n"
        "      pthread_mutex_unlock(&pool_mu);\n"
        "    }\n"
        "  } else {\n"
        "    int spins = 0;\n"
        "    while (atomic_load_explicit(&pool_sense, memory_order_acquire) "
        "!= my) {\n"
        "      if (++spins <= 4096) continue;\n"
        "      pthread_mutex_lock(&pool_mu);\n"
        "      atomic_fetch_add(&pool_sleepers, 1);\n"
        "      while (atomic_load(&pool_sense) != my) "
        "pthread_cond_wait(&pool_cv, &pool_mu);\n"
        "      atomic_fetch_sub(&pool_sleepers, 1);\n"
        "      pthread_mutex_unlock(&pool_mu);\n"
        "    }\n"
        "  }\n}\n");
  // The job pointers must be _Atomic: they are written by the master and
  // read by workers on the far side of pool_barrier, and plain globals
  // get hoisted out of the worker loop (gcc IPA-modref sees that
  // pool_barrier never writes them and ignores the acquire ordering its
  // atomics establish — observed miscompile at -O2).
  c.lit("static const double *");
  c.opt(p.atomic_jobs[0], "_Atomic ");
  c.lit("job_x; static double *");
  c.opt(p.atomic_jobs[1], "_Atomic ");
  c.lit("job_y;\nstatic double *");
  c.opt(p.atomic_jobs[2], "_Atomic ");
  c.lit("job_b0; static double *");
  c.opt(p.atomic_jobs[3], "_Atomic ");
  c.lit("job_b1;\n"
        "static void run_stage_chunk(int sid, const double *x, double *y, "
        "int t) {\n  switch (sid) {\n");
  for (std::size_t si = 0; si < p.stages.size() && c.ok(); ++si) {
    CStage& s = p.stages[si];
    bool chunked = s.team > 1;
    const std::string arm = cat("    case ", si, ":\n      if (t ");
    pick_flag(c, chunked, cat(arm, "== 0) stage", si, "(x, y, 0, "),
              cat(arm, "< "));
    if (chunked) {
      c.num(s.team);
      c.lit(cat(") stage", si, "(x, y, (long)t*"));
    } else {
      s.team = 1;
    }
    c.num(s.iters);
    if (chunked) {
      c.lit(cat("/", s.team, ", (long)(t+1)*", s.iters, "/", s.team));
    }
    c.lit(");\n      break;\n");
  }
  c.lit("  }\n}\n"
        "static void run_program(const double *x, double *y, double *b0, "
        "double *b1, int t) {\n");
  if (p.stages.size() <= 1) c.lit("  (void)b0; (void)b1;\n");
  walk(c, p.walk, true);
  c.lit("}\n"
        "static void *pool_worker(void *arg) {\n"
        "  int t = (int)(long)arg;\n"
        "  for (;;) {\n"
        "    pool_barrier();\n"
        "    run_program(job_x, job_y, job_b0, job_b1, t);\n"
        "    pool_barrier();\n"
        "  }\n  return 0;\n}\n"
        "static int pool_started = 0;\n"
        "static void pool_start(void) {\n"
        "  if (pool_started) return;\n"
        "  pool_started = 1;\n"
        "  for (int t = 1; t < POOL_P; ++t) {\n"
        "    pthread_t th;\n"
        "    pthread_create(&th, 0, pool_worker, (void *)(long)t);\n"
        "    pthread_detach(th);\n"
        "  }\n}\n"
        "static void pool_run_program(const double *x, double *y, "
        "double *b0, double *b1) {\n"
        "  job_x = x; job_y = y; job_b0 = b0; job_b1 = b1;\n"
        "  pool_barrier();\n"
        "  run_program(x, y, b0, b1, 0);\n"
        "  pool_barrier();\n}\n\n");
}

/// The entry point; scratch comes from the caller (one pair per client
/// thread), so it holds no buffer state.
template <class C>
void entry(C& c, CProgram& p) {
  c.lit("void ");
  c.text(p.entry, "(");
  c.lit("(const double *x, double *y, double *b0, double *b1) {\n");
  if (p.stages.size() <= 1) c.lit("  (void)b0; (void)b1;\n");
  if (p.pooled) {
    c.lit("  pool_start();\n  pool_run_program(x, y, b0, b1);\n");
  } else {
    walk(c, p.walk, false);
  }
  c.lit("}\n\n");
}

/// main(): the entry point against a direct O(n^2) DFT of a seeded
/// signal; exit code 0 when the max error is within 1e-8 * sqrt(n).
template <class C>
void test_main(C& c, CProgram& p) {
  c.lit(cat(
      "int main(void) {\n",
      "  enum { N = ", p.n, " };\n",
      "  static double x[2*N], y[2*N], ref[2*N];\n",
      "  unsigned s = 123456789u;\n",
      "  for (int i = 0; i < 2*N; ++i) {\n",
      "    s = s*1103515245u + 12345u;\n",
      "    x[i] = ((double)(s >> 8) / (double)(1u<<24)) - 0.5;\n  }\n",
      "  for (int kk = 0; kk < N; ++kk) {\n",
      "    double ar = 0, ai = 0;\n",
      "    for (int l = 0; l < N; ++l) {\n",
      "      double a = -2.0*3.14159265358979323846*((double)((long)kk*l % ",
      "N))/N;\n",
      "      double c = cos(a), si2 = sin(a);\n",
      "      ar += x[2*l]*c - x[2*l+1]*si2;\n",
      "      ai += x[2*l]*si2 + x[2*l+1]*c;\n    }\n",
      "    ref[2*kk] = ar; ref[2*kk+1] = ai;\n  }\n",
      "  static double sb0[2*N], sb1[2*N];\n",
      "  ", p.entry, "(x, y, sb0, sb1);\n",
      "  double err = 0;\n",
      "  for (int i = 0; i < 2*N; ++i) {\n",
      "    double d = y[i] - ref[i]; if (d < 0) d = -d;\n",
      "    if (d > err) err = d;\n  }\n",
      "  printf(\"max error %g\\n\", err);\n",
      "  return err < 1e-8 * sqrt((double)N) ? 0 : 1;\n",
      "}\n"));
}

template <class C>
void program(C& c, CProgram& p) {
  idx_t k = static_cast<idx_t>(p.stages.size());
  header(c, p, k);
  items(c, p.stages, k,
        [&](idx_t si, CStage& s) { stage_tables(c, s, si); });
  c.lit("\n");
  for (std::size_t i = 0;
       c.peek(i < p.codelets.size(), "static void dft") ||
       c.peek(i < p.codelets.size(), "static void wht");
       ++i) {
    if constexpr (C::kReading) p.codelets.emplace_back();
    codelet(c, p.codelets[i]);
  }
  for (std::size_t si = 0; si < p.stages.size() && c.ok(); ++si) {
    StageSyntax<C>(c, p.stages[si], static_cast<idx_t>(si)).run();
  }
  if (p.pooled) pool_runtime(c, p);
  entry(c, p);
  if (p.has_main) test_main(c, p);
}

// ---------------------------------------------------------------------------
// Building the CProgram of a StageList.
// ---------------------------------------------------------------------------

/// Per-stage vector emission width under opts.simd_nu (0 = scalar).
/// Codegen vectorizes only the plain contiguous-lane shape
/// (kAcrossIterations on BOTH sides) of compute stages — the shape the
/// tandem smp+vec derivations produce for their codelet loops; anything
/// else keeps the scalar emission (the interpreter's drivers cover the
/// strided shapes).
idx_t simd_width(const Stage& s, idx_t simd_nu) {
  if (!s.is_compute || s.cn < 2 || !util::is_pow2(s.cn) || s.cn > 64) {
    return 0;
  }
  for (idx_t nu = simd_nu; nu >= 2; nu /= 2) {
    const SideVecInfo sv = stage_vector_sides(s, nu);
    if (sv.width == nu && sv.in == VecForm::kAcrossIterations &&
        sv.out == VecForm::kAcrossIterations) {
      return nu;
    }
  }
  return 0;
}

/// Shuffle index lists at width w: the re (mode 0) and im (1)
/// deinterleave of a load, and the low (2) and high (3) interleave
/// (r0,i0,r1,i1,...) of concat(re, im) for a store.
std::vector<idx_t> shuffle_indices(idx_t w, int mode) {
  std::vector<idx_t> v;
  for (idx_t i = 0; i < w; ++i) {
    switch (mode) {
      case 0: v.push_back(2 * i); break;
      case 1: v.push_back(2 * i + 1); break;
      case 2: v.push_back(i % 2 == 0 ? i / 2 : w + i / 2); break;
      default: v.push_back(i % 2 == 0 ? w / 2 + i / 2 : w + w / 2 + i / 2);
    }
  }
  return v;
}

/// A lane whose values name codelet values (COp) of the codelet `d` being
/// recorded: each +, -, unary - and * by a root appends one op to d's
/// body and names its result, so Codelet<RecLane, N, Kind>::run records
/// the template. A value is a bare index and `op` is out of line, so the
/// always_inline template expands to one call per op over integers.
struct RecLane {
  struct V {
    idx_t id = 0;
    V operator+(V b) const { return op(id, COp::kAdd, b.id, 0.0); }
    V operator-(V b) const { return op(id, COp::kSub, b.id, 0.0); }
    V operator*(double c) const { return op(id, COp::kMul, 0, c); }
    V operator-() const { return op(id, COp::kMul, 0, -1.0); }  // exact
  };
  static inline thread_local CCodelet* d = nullptr;
  [[gnu::noinline]] static V op(idx_t a, int kind, idx_t b, double c) {
    d->ops.push_back({kind, a, b, c});
    return {2 * d->n + static_cast<idx_t>(d->ops.size()) - 1};
  }
};

/// Renumbers d's ops in the order a depth-first walk from the stores
/// needs them, operand a first: compilers run the template's operator
/// calls in different orders, and the text must not depend on that.
void renumber(CCodelet& d) {
  const idx_t in = 2 * d.n;
  std::vector<idx_t> id(d.ops.size(), -1);
  std::vector<COp> ops;
  auto visit = [&](auto& self, idx_t& v) -> void {
    if (v < in) return;
    idx_t& k = id[static_cast<std::size_t>(v - in)];
    if (k < 0) {
      COp o = d.ops[static_cast<std::size_t>(v - in)];
      self(self, o.a);
      if (o.kind != COp::kMul) self(self, o.b);
      k = in + static_cast<idx_t>(ops.size());
      ops.push_back(o);
    }
    v = k;
  };
  for (idx_t& v : d.out) visit(visit, v);
  d.ops = std::move(ops);
}

/// fn records d's body and stores: DFT_N (Kind = the sign) or WHT_N
/// (Kind = 0) as the interpreter's codelets compute it, with its roots.
template <int N, int Kind>
struct RecordPick {
  static constexpr void (*fn)(CCodelet&) = [](CCodelet& d) {
    RecLane::d = &d;
    constexpr auto n = static_cast<std::size_t>(2 * N);
    RecLane::V x[n], y[n];
    for (int j = 0; j < 2 * N; ++j) x[j] = {j};
    Codelet<RecLane, N, Kind>::run(x, x + N, y, y + N,
                                   codelet_roots(Kind < 0 ? -1 : 1));
    for (const RecLane::V& v : y) d.out.push_back(v.id);
    renumber(d);
  };
};

CSide build_side(const Stage& s, bool input) {
  CSide c;
  c.affine = input ? s.in_affine : s.out_affine;
  if (c.affine) {
    const AffineMap a = (input ? s.in_bits : s.out_bits).affine(s.cn).value();
    c.base = a.base;
    c.iter_stride = a.iter_stride;
    c.elem_stride = a.elem_stride;
    return c;
  }
  for (idx_t k = 0; k < s.total_elems(); ++k) {
    c.table.push_back(input ? s.in_index(k / s.cn, k % s.cn)
                            : s.out_index(k / s.cn, k % s.cn));
  }
  return c;
}

std::vector<double> interleaved(const StageScale& sc) {
  std::vector<double> v;
  for (const cplx& z : sc.expand()) {
    v.push_back(z.real());
    v.push_back(z.imag());
  }
  return v;
}

/// Applies the active CodegenMutation to the built program.
void mutate(CProgram& p) {
  for (CStage& s : p.stages) {
    if (mutated(CodegenMutation::kStrideSkew)) {
      if (s.in.affine) ++s.in.iter_stride;
      for (idx_t& e : s.in.table) ++e;
    }
    if (mutated(CodegenMutation::kSwapLanes)) {
      std::swap(s.shuffle[0], s.shuffle[1]);
    }
    if (mutated(CodegenMutation::kNarrowIndex)) s.narrow = true;
  }
  if (mutated(CodegenMutation::kDropBarrier)) {
    std::erase_if(p.walk, [](const CStep& s) { return s.barrier; });
  }
}

CProgram build(const StageList& list, const CodegenOptions& opts) {
  CProgram p;
  p.n = list.n;
  p.has_main = opts.emit_main;
  p.entry = opts.function_name;
  for (const Stage& s : list.stages) {
    p.pool_p = std::max(p.pool_p, stage_tasks(s));
  }
  p.pooled = p.pool_p > 1;
  std::set<idx_t> types;
  // Scalar codelets first, WHT before DFT, then by size, sign and width.
  std::set<std::tuple<bool, bool, idx_t, int, idx_t>> codelets;
  for (const Stage& s : list.stages) {
    CStage c;
    c.label = s.label;
    c.in = build_side(s, true);
    c.out = build_side(s, false);
    c.iscl = interleaved(s.in_scale);
    c.oscl = interleaved(s.out_scale);
    c.compute = s.is_compute;
    c.cn = s.cn;
    c.wht = s.wht;
    c.sign = s.sign;
    c.vec_w = simd_width(s, opts.simd_nu);
    if (c.vec_w >= 2) {
      types.insert(c.vec_w);
      for (int m = 0; m < 4; ++m) c.shuffle[m] = shuffle_indices(c.vec_w, m);
    }
    if (s.is_compute && s.cn > 1) {
      const int sign = s.wht ? -1 : s.sign;
      codelets.insert({false, !s.wht, s.cn, sign, 0});
      if (c.vec_w >= 2) codelets.insert({true, !s.wht, s.cn, sign, c.vec_w});
    }
    c.team = stage_tasks(s);
    c.iters = s.iters;
    p.stages.push_back(std::move(c));
  }
  p.vec_types.assign(types.begin(), types.end());
  for (const auto& [vec, dft, n, sign, w] : codelets) {
    const auto record = select_codelet<RecordPick>(n, dft ? sign : 0);
    util::require(record != nullptr, "C codegen: no codelet of this size");
    record(p.codelets.emplace_back(CCodelet{!dft, n, sign, w, {}, {}}));
  }
  // Stages apply right-to-left along x -> b0 -> b1 -> ... -> y.
  int src = kBufX;
  int flip = 0;
  for (std::size_t j = list.stages.size(); j-- > 0;) {
    const int dst = j == 0 ? kBufY : (flip ? kBufB1 : kBufB0);
    if (j != 0) flip ^= 1;
    if (p.pooled && !p.walk.empty()) p.walk.push_back({true, 0, 0, 0, 0});
    p.walk.push_back({false, static_cast<idx_t>(j), src, dst,
                      list.stages[j].iters});
    src = dst;
  }
  mutate(p);
  return p;
}

}  // namespace

std::string write_c(CProgram p) {
  CWriter c;
  program(c, p);
  return c.take();
}

bool read_c(const std::string& source, CProgram* p, std::string* error) {
  CReader c(source);
  *p = CProgram{};
  program(c, *p);
  if (c.ok() && !c.at_end()) c.fail("the end of the translation unit");
  if (!c.ok()) *error = c.error();
  return c.ok();
}

std::string emit_c(const StageList& list, const CodegenOptions& opts) {
  return write_c(build(list, opts));
}

void set_codegen_mutation(CodegenMutation m) noexcept {
  g_codegen_mutation.store(m, std::memory_order_release);
}

CodegenMutation codegen_mutation() noexcept {
  return g_codegen_mutation.load(std::memory_order_acquire);
}

}  // namespace spiral::backend
