#include "analysis/codegen_check.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <sstream>
#include <tuple>

#include "analysis/verify.hpp"
#include "backend/codegen_c.hpp"
#include "backend/codelet_template.hpp"
#include "backend/schedule.hpp"
#include "backend/vectorize.hpp"
#include "spl/twiddle.hpp"
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

using backend::CCodelet;
using backend::COp;
using backend::CProgram;
using backend::CSide;
using backend::CStage;
using backend::CStep;
using backend::kBufNames;
using backend::Stage;
using backend::StageList;

struct Ctx {
  CodegenReport& rep;
  void add(CodegenDiag kind, int stage, std::string msg) {
    rep.findings.push_back({kind, stage, std::move(msg)});
  }
};

std::string join(const std::vector<idx_t>& v) {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
  return os.str();
}

/// The canonical shuffle lists at width w: re (mode 0) and im (1) lanes
/// of an interleaved load, low (2) and high (3) halves of the
/// re/im interleave for a store.
std::vector<idx_t> canonical_shuffle(idx_t w, int mode) {
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

/// Applies the codelet's body to each of the 2n real unit vectors (re
/// and im separately: a straight-line body is only R-linear) and
/// compares the stores with column j of DFT_n (e^(sign 2 pi i k j / n))
/// or WHT_n, times 1 or i. Returns false (with *err filled) when an op
/// reads a value not defined before it, a store names no temporary, or
/// the map deviates beyond tolerance.
bool check_body(const CCodelet& c, std::string* err) {
  const auto n = static_cast<std::size_t>(c.n);
  auto defined = [&](idx_t v, std::size_t ops) {
    return v >= 0 && static_cast<std::size_t>(v) < 2 * n + ops;
  };
  for (std::size_t k = 0; k < c.ops.size(); ++k) {
    const COp& o = c.ops[k];
    if (!defined(o.a, k) || (o.kind != COp::kMul && !defined(o.b, k))) {
      *err = "t" + std::to_string(k) + " reads a value not defined before it";
      return false;
    }
  }
  if (c.out.size() != 2 * n ||
      !std::all_of(c.out.begin(), c.out.end(), [&](idx_t v) {
        return !defined(v, 0) && defined(v, c.ops.size());
      })) {
    *err = "does not store one temporary to each output";
    return false;
  }
  double max_err = 0.0;
  std::vector<double> v(2 * n + c.ops.size());
  for (std::size_t col = 0; col < 2 * n; ++col) {
    std::fill(v.begin(), v.end(), 0.0);
    v[col] = 1.0;
    for (std::size_t k = 0; k < c.ops.size(); ++k) {
      const COp& o = c.ops[k];
      const double a = v[static_cast<std::size_t>(o.a)];
      const double b =
          o.kind == COp::kMul ? o.c : v[static_cast<std::size_t>(o.b)];
      v[2 * n + k] = o.kind == COp::kAdd   ? a + b
                     : o.kind == COp::kSub ? a - b
                                           : a * b;
    }
    const std::size_t j = col % n;
    for (std::size_t row = 0; row < n; ++row) {
      cplx m = c.wht ? cplx(std::popcount(row & j) % 2 ? -1.0 : 1.0)
                     : spl::root_of_unity(c.n, static_cast<idx_t>(row * j),
                                          c.sign);
      if (col >= n) m *= cplx(0.0, 1.0);
      const auto re = static_cast<std::size_t>(c.out[row]);
      const auto im = static_cast<std::size_t>(c.out[n + row]);
      max_err = std::max({max_err, std::fabs(v[re] - m.real()),
                          std::fabs(v[im] - m.imag())});
    }
  }
  if (max_err > 1e-9 * static_cast<double>(n)) {
    std::ostringstream os;
    os.precision(17);
    os << "linear map deviates from the " << (c.wht ? "WHT" : "DFT")
       << " matrix by " << max_err;
    *err = os.str();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Semantic diffs against the source StageList + reconstruction.
// ---------------------------------------------------------------------------

idx_t emitted_index(const CSide& s, idx_t cn, idx_t it, idx_t l) {
  if (s.affine) return s.base + it * s.iter_stride + l * s.elem_stride;
  const auto at = static_cast<std::size_t>(it * cn + l);
  return at < s.table.size() ? s.table[at] : -1;
}

void diff_side(Ctx& cx, int si, const Stage& src, const CSide& es,
               bool input) {
  const idx_t cn = src.cn;
  const char* name = input ? "input" : "output";
  if (!es.affine) {
    const idx_t need = src.iters * cn;
    if (static_cast<idx_t>(es.table.size()) != need) {
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
      const idx_t got = emitted_index(es, cn, it, l);
      const idx_t want = input ? src.in_index(it, l) : src.out_index(it, l);
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

void diff_scale(Ctx& cx, int si, const util::cvec& src,
                const std::vector<double>& tbl, bool input) {
  const char* name = input ? "input" : "output";
  const bool emitted = !tbl.empty();
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
void check_affine_range(Ctx& cx, int si, const CSide& s, idx_t iters,
                        idx_t cn, bool input) {
  if (!s.affine) return;
  const idx_t its[2] = {0, iters > 0 ? iters - 1 : 0};
  const idx_t ls[2] = {0, cn > 0 ? cn - 1 : 0};
  for (idx_t it : its) {
    for (idx_t l : ls) {
      idx_t t1 = 0, t2 = 0, v = 0, d = 0;
      bool ovf = __builtin_mul_overflow(it, s.iter_stride, &t1);
      ovf = ovf || __builtin_mul_overflow(l, s.elem_stride, &t2);
      ovf = ovf || __builtin_add_overflow(s.base, t1, &v);
      ovf = ovf || __builtin_add_overflow(v, t2, &v);
      ovf = ovf || __builtin_mul_overflow(v, idx_t{2}, &d);
      ovf = ovf || __builtin_add_overflow(d, idx_t{1}, &d);
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

bool has_codelet(const CStage& s) { return s.compute && s.cn > 1; }

/// `es.team` and `es.iters` are the stage's dispatch as emitted.
void diff_stage(Ctx& cx, int sid, const Stage& src, const CStage& es) {
  if (es.compute != src.is_compute) {
    cx.add(CodegenDiag::kShapeMismatch, sid,
           std::string("emitted as a ") + (es.compute ? "codelet" : "copy") +
               " stage, IR says " + (src.is_compute ? "codelet" : "copy"));
    return;
  }
  if (es.cn != src.cn) {
    cx.add(CodegenDiag::kShapeMismatch, sid,
           "codelet size " + std::to_string(es.cn) + " != IR " +
               std::to_string(src.cn));
    return;
  }
  if (has_codelet(es)) {
    if (es.wht != src.wht) {
      cx.add(CodegenDiag::kShapeMismatch, sid, "WHT/DFT codelet kind differs");
    } else if (!src.wht && es.sign != src.sign) {
      cx.add(CodegenDiag::kShapeMismatch, sid,
             "codelet root sign differs from the IR");
    }
  }
  if (es.iters != src.iters) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "dispatch covers " + std::to_string(es.iters) +
               " iteration(s), stage has " + std::to_string(src.iters));
  }
  const idx_t want_team = backend::stage_tasks(src);
  if (es.team != want_team) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "dispatched over " + std::to_string(es.team) +
               " thread(s), schedule says " + std::to_string(want_team));
  }
  if (src.parallel_p > 1 && src.sched_block > 0) {
    cx.add(CodegenDiag::kScheduleMismatch, sid,
           "block-cyclic schedule (sched_block=" +
               std::to_string(src.sched_block) +
               ") is not expressible in the emitted contiguous-chunk "
               "dispatch");
  }
  if (es.narrow) {
    cx.add(CodegenDiag::kNarrowedIndex, sid,
           "stage computes element indices in 32-bit `int` arithmetic");
  }
  // x[2*inm[l]] multiplies an int32 table entry in int arithmetic: entries
  // at or above 2^30 overflow before the promotion to the subscript.
  if (es.compute) {
    for (const CSide* side : {&es.in, &es.out}) {
      for (idx_t e : side->table) {
        if (e >= (idx_t{1} << 30)) {
          cx.add(CodegenDiag::kNarrowedIndex, sid,
                 "int32 table entry " + std::to_string(e) +
                     " overflows the emitted 2*idx int arithmetic");
          break;
        }
      }
    }
  }
  check_affine_range(cx, sid, es.in, src.iters, src.cn, true);
  check_affine_range(cx, sid, es.out, src.iters, src.cn, false);
  diff_side(cx, sid, src, es.in, true);
  diff_side(cx, sid, src, es.out, false);
  diff_scale(cx, sid, src.in_scale.expand(), es.iscl, true);
  diff_scale(cx, sid, src.out_scale.expand(), es.oscl, false);
}

/// Rebuilds a backend::Stage from the emitted one so the reconstructed
/// program can be re-run through analysis::verify and the vectorizability
/// prover. Returns false when tampered indices cannot be represented.
bool build_recon(const CStage& es, const Stage& src, int sid, Stage* out) {
  Stage s;
  s.iters = es.iters;
  s.cn = es.cn;
  s.sign = has_codelet(es) ? es.sign : src.sign;
  s.is_compute = es.compute;
  s.wht = has_codelet(es) && es.wht;
  s.parallel_p = es.team > 1 ? es.team : 0;
  // Both side forms come back as tables; an affine side is evaluated at
  // every (it, l).
  auto side = [&](const CSide& es_side, std::vector<std::int32_t>* m) {
    std::vector<idx_t> entries = es_side.table;
    if (es_side.affine) {
      for (idx_t it = 0; it < s.iters; ++it) {
        for (idx_t l = 0; l < s.cn; ++l) {
          entries.push_back(emitted_index(es_side, s.cn, it, l));
        }
      }
    }
    for (idx_t e : entries) {
      if (e < 0 || e >= backend::kMaxIndexableElems) return false;
      m->push_back(static_cast<std::int32_t>(e));
    }
    return true;
  };
  if (!side(es.in, &s.in_map) || !side(es.out, &s.out_map)) return false;
  auto scale = [](const std::vector<double>& t) {
    util::cvec v;
    for (std::size_t i = 0; i + 1 < t.size(); i += 2) {
      v.push_back(cplx(t[i], t[i + 1]));
    }
    return backend::StageScale(v);
  };
  if (!es.iscl.empty()) s.in_scale = scale(es.iscl);
  if (!es.oscl.empty()) s.out_scale = scale(es.oscl);
  s.label = "emitted stage " + std::to_string(sid);
  *out = std::move(s);
  return true;
}

// ---------------------------------------------------------------------------
// Dispatch structure: the pool runtime's job pointers, POOL_P and chunk
// arms, and the stage walk's order, barriers and ping-pong chain.
// ---------------------------------------------------------------------------

/// Stage order must be k-1..0, every transition between dependent stages
/// must cross a pool_barrier (pooled only), and the ping-pong chain must
/// thread x -> b0 -> b1 -> ... -> y without a stage writing its own input.
void check_walk(Ctx& cx, const std::vector<CStep>& walk, std::size_t k,
                bool pooled) {
  std::vector<const CStep*> calls;
  std::vector<int> barriers_before;  // barriers since the previous call
  int pending = 0;
  for (const CStep& s : walk) {
    if (s.barrier) {
      ++pending;
      continue;
    }
    calls.push_back(&s);
    barriers_before.push_back(pending);
    pending = 0;
  }
  if (calls.size() != k) {
    cx.add(CodegenDiag::kShapeMismatch, -1,
           "program walk dispatches " + std::to_string(calls.size()) +
               " stage(s), expected " + std::to_string(k));
    return;
  }
  int cur = backend::kBufX;
  int flip = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const idx_t want_sid = static_cast<idx_t>(k - 1 - i);
    const CStep& c = *calls[i];
    if (c.stage != want_sid) {
      cx.add(CodegenDiag::kShapeMismatch, static_cast<int>(want_sid),
             "stage dispatch order is " + std::to_string(c.stage) +
                 ", stages must run right-to-left");
      return;
    }
    if (pooled && i > 0 && barriers_before[i] == 0) {
      cx.add(CodegenDiag::kMissingBarrier, static_cast<int>(want_sid),
             "no pool_barrier between stage " +
                 std::to_string(calls[i - 1]->stage) + " and stage " +
                 std::to_string(c.stage) + " (dependent stages may race)");
    }
    int want_dst = backend::kBufY;
    if (want_sid != 0) {
      want_dst = flip ? backend::kBufB1 : backend::kBufB0;
      flip ^= 1;
    }
    if (c.src != cur || c.dst != want_dst) {
      cx.add(CodegenDiag::kShapeMismatch, static_cast<int>(want_sid),
             std::string("ping-pong chain broken: stage reads ") +
                 kBufNames[c.src] + " writes " + kBufNames[c.dst] +
                 ", expected " + kBufNames[cur] + " -> " +
                 kBufNames[want_dst]);
      return;
    }
    cur = want_dst;
  }
}

/// The pool's team size and `_Atomic` job pointers (plain globals get
/// hoisted above the barrier by IPA-modref — the observed gcc -O2
/// miscompile).
void check_pool(Ctx& cx, const CProgram& p, idx_t team) {
  if (p.pool_p != team) {
    cx.add(CodegenDiag::kScheduleMismatch, -1,
           "POOL_P is " + std::to_string(p.pool_p) + ", plan team size is " +
               std::to_string(team));
  }
  const char* const jobs[4] = {"job_x", "job_y", "job_b0", "job_b1"};
  for (int j = 0; j < 4; ++j) {
    if (!p.atomic_jobs[j]) {
      cx.add(CodegenDiag::kNonAtomicJobDispatch, -1,
             std::string(jobs[j]) +
                 " is not _Atomic: compilers may hoist its load above "
                 "pool_barrier");
    }
  }
}

/// Every codelet a stage calls must be emitted, and its body must compute
/// the DFT or WHT matrix.
void check_codelets(Ctx& cx, const CProgram& p) {
  std::set<std::tuple<bool, idx_t, int, idx_t>> needed;  // wht, n, sign, w
  for (const CStage& s : p.stages) {
    if (!has_codelet(s)) continue;
    const int sign = s.wht ? 0 : s.sign;
    needed.insert({s.wht, s.cn, sign, 0});
    if (s.vec_w >= 2) needed.insert({s.wht, s.cn, sign, s.vec_w});
  }
  for (const auto& [wht, cn, sign, w] : needed) {
    const std::string name =
        (wht ? "wht" + std::to_string(cn)
             : "dft" + std::to_string(cn) + (sign < 0 ? "f" : "i")) +
        (w >= 2 ? "_v" + std::to_string(w) : "");
    if (!util::is_pow2(cn) || cn > backend::kMaxCodelet) {
      cx.add(CodegenDiag::kCodeletMismatch, -1,
             name + ": codelet size is not a supported power of two");
      continue;
    }
    const auto it = std::find_if(
        p.codelets.begin(), p.codelets.end(), [&](const CCodelet& c) {
          return c.wht == wht && c.n == cn && c.w == w &&
                 (wht || c.sign == sign);
        });
    if (it == p.codelets.end()) {
      cx.add(CodegenDiag::kCodeletMismatch, -1,
             name + ": codelet function not emitted");
      continue;
    }
    std::string err;
    if (!check_body(*it, &err)) {
      cx.add(CodegenDiag::kCodeletMismatch, -1, name + ": " + err);
    }
  }
}

}  // namespace

CodegenReport check_codegen(const std::string& source,
                            const backend::StageList& list,
                            const CodegenCheckOptions& opt) {
  CodegenReport rep;
  Ctx cx{rep};
  CProgram p;
  std::string err;
  if (!backend::read_c(source, &p, &err)) {
    cx.add(CodegenDiag::kParseError, -1,
           "source deviates from the emitted dialect at " + err);
    return rep;
  }
  const std::size_t k = list.stages.size();
  rep.n = p.n;
  rep.stages = static_cast<int>(p.stages.size());
  if (p.n != list.n || p.stages.size() != k) {
    cx.add(CodegenDiag::kShapeMismatch, -1,
           "emitted program is n=" + std::to_string(p.n) + "/" +
               std::to_string(p.stages.size()) + " stage(s), plan is n=" +
               std::to_string(list.n) + "/" + std::to_string(k));
    return rep;
  }
  idx_t team = 1;
  for (const Stage& s : list.stages) {
    team = std::max(team, backend::stage_tasks(s));
  }
  if (p.pooled != (team > 1)) {
    cx.add(CodegenDiag::kScheduleMismatch, -1,
           p.pooled ? "worker pool emitted for a fully sequential plan"
                    : "parallel plan emitted without a worker pool");
  }
  if (p.pooled) {
    check_pool(cx, p, team);
  } else {
    // A sequential entry dispatches each stage through its walk call.
    for (const CStep& s : p.walk) {
      if (s.stage >= 0 && s.stage < static_cast<idx_t>(k)) {
        p.stages[static_cast<std::size_t>(s.stage)].iters = s.iters;
      }
    }
  }
  check_walk(cx, p.walk, k, p.pooled);

  backend::StageList recon;
  recon.n = list.n;
  bool reconstructable = true;
  for (std::size_t si = 0; si < k; ++si) {
    const CStage& es = p.stages[si];
    const int sid = static_cast<int>(si);
    diff_stage(cx, sid, list.stages[si], es);
    Stage rs;
    const bool rebuilt = build_recon(es, list.stages[si], sid, &rs);
    if (es.vec_w >= 2) {
      rep.vec_stage_ids.push_back(sid);
      rep.vec_stage_widths.push_back(es.vec_w);
      if (std::find(p.vec_types.begin(), p.vec_types.end(), es.vec_w) ==
          p.vec_types.end()) {
        cx.add(CodegenDiag::kParseError, sid,
               "vector typedef for width " + std::to_string(es.vec_w) +
                   " not emitted");
      }
      // Lane semantics: the four lists must be the canonical deinterleave
      // / interleave at width w (a swapped pair loads im into the re
      // lanes).
      static const char* const kLaneNames[4] = {
          "ar (real deinterleave)", "ai (imag deinterleave)",
          "o0 (low interleave)", "o1 (high interleave)"};
      for (int m = 0; m < 4; ++m) {
        const std::vector<idx_t> want = canonical_shuffle(es.vec_w, m);
        if (es.shuffle[m] != want) {
          cx.add(CodegenDiag::kLaneMismatch, sid,
                 std::string(kLaneNames[m]) + " shuffle is [" +
                     join(es.shuffle[m]) + "], canonical is [" + join(want) +
                     "]");
        }
      }
      if (rebuilt) {
        const backend::SideVecInfo sv =
            backend::stage_vector_sides(rs, es.vec_w);
        if (sv.width != es.vec_w ||
            sv.in != backend::VecForm::kAcrossIterations ||
            sv.out != backend::VecForm::kAcrossIterations) {
          cx.add(CodegenDiag::kLaneMismatch, sid,
                 "vector body emitted for a stage whose maps do not prove "
                 "the across-iterations shape at width " +
                     std::to_string(es.vec_w));
        }
      }
    }
    if (rebuilt) {
      recon.stages.push_back(std::move(rs));
    } else {
      reconstructable = false;
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
  check_codelets(cx, p);
  return rep;
}

}  // namespace spiral::analysis
