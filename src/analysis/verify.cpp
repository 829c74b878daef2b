#include "analysis/verify.hpp"

#include <algorithm>
#include <sstream>

#include "backend/schedule.hpp"
#include "backend/stage_group.hpp"

namespace spiral::analysis {

const char* to_string(Diag d) {
  switch (d) {
    case Diag::kMapSizeMismatch: return "map-size-mismatch";
    case Diag::kScaleSizeMismatch: return "scale-size-mismatch";
    case Diag::kIndexOutOfBounds: return "index-out-of-bounds";
    case Diag::kIndexOverflow: return "index-overflow";
    case Diag::kDuplicateWrite: return "duplicate-write";
    case Diag::kLostElement: return "lost-element";
    case Diag::kRaceWriteWrite: return "race-write-write";
    case Diag::kRaceReadWrite: return "race-read-write";
    case Diag::kFalseSharing: return "false-sharing";
    case Diag::kLoadImbalance: return "load-imbalance";
    case Diag::kGroupLeak: return "group-leak";
  }
  return "?";
}

const char* to_string(Severity s) {
  return s == Severity::kError ? "error" : "warning";
}

Severity severity_of(Diag d) {
  switch (d) {
    case Diag::kFalseSharing:
    case Diag::kLoadImbalance:
      return Severity::kWarning;
    default:
      return Severity::kError;
  }
}

std::size_t Report::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::kError;
      }));
}

std::size_t Report::warning_count() const {
  return findings.size() - error_count();
}

std::int64_t Report::total(Diag kind) const {
  std::int64_t sum = 0;
  for (const auto& f : findings) {
    if (f.kind == kind) sum += f.count;
  }
  return sum;
}

std::string Report::to_string() const {
  std::ostringstream os;
  os << "static verification: n=" << n << ", " << stages << " stage"
     << (stages == 1 ? "" : "s") << ": ";
  if (clean()) {
    os << "clean\n";
    return os.str();
  }
  os << findings.size() << " finding" << (findings.size() == 1 ? "" : "s")
     << " (" << error_count() << " errors, " << warning_count()
     << " warnings)\n";
  for (const auto& f : findings) {
    os << "  [" << analysis::to_string(f.severity) << "] ";
    if (f.stage >= 0) {
      os << "stage " << f.stage;
      if (!f.stage_label.empty()) os << " (" << f.stage_label << ")";
    } else {
      os << "program";
    }
    os << ": " << analysis::to_string(f.kind) << ": " << f.message << "\n";
  }
  return os.str();
}

namespace {

using backend::Stage;

std::string plural(std::int64_t c, const char* noun) {
  std::ostringstream os;
  os << c << " " << noun << (c == 1 ? "" : "s");
  return os.str();
}

/// Scratch buffers reused across stages so verification allocates O(n)
/// once per program, not per stage.
struct Scratch {
  std::vector<std::int32_t> writer;       ///< writing task per element
  std::vector<std::int32_t> line_writer;  ///< task per mu-line, -2 = shared
  std::vector<std::uint64_t> readers;     ///< reading-task bitmask per element
  std::vector<std::int64_t> task_iters;   ///< iteration count per task
};

constexpr std::int32_t kNoTask = -1;
constexpr std::int32_t kSharedLine = -2;

std::uint64_t task_bit(idx_t t) {
  return std::uint64_t{1} << static_cast<unsigned>(t % 64);
}

void verify_stage(const backend::StageList& program, int si,
                  const Options& opt, Scratch& sc, Report& rep) {
  const Stage& s = program.stages[static_cast<std::size_t>(si)];
  const idx_t n = program.n;
  auto add = [&](Diag kind, std::string msg, std::int64_t count) {
    Finding f;
    f.kind = kind;
    f.severity = severity_of(kind);
    f.stage = si;
    f.stage_label = s.label;
    f.message = std::move(msg);
    f.count = count;
    rep.findings.push_back(std::move(f));
  };

  // -- Well-formedness that later checks depend on: map/scale lengths.
  //    A bit-stride side or a scale must span exactly iters*cn
  //    positions, and a table side must have iters*cn entries.
  const idx_t expected = s.iters * s.cn;
  const auto entries = [](const backend::BitStrideMap& bits,
                          const std::vector<std::int32_t>& map) {
    return map.empty() ? bits.positions() : static_cast<idx_t>(map.size());
  };
  const idx_t in_entries = entries(s.in_bits, s.in_map);
  const idx_t out_entries = entries(s.out_bits, s.out_map);
  bool maps_ok = true;
  if (s.iters < 0 || s.cn < 1 || in_entries != expected ||
      out_entries != expected) {
    std::ostringstream os;
    os << "index maps have " << in_entries << "/" << out_entries
       << " entries, expected iters*cn = " << expected;
    add(Diag::kMapSizeMismatch, os.str(), 1);
    maps_ok = false;
  }
  for (const auto* sc : {&s.in_scale, &s.out_scale}) {
    if (sc->empty() || sc->positions() == expected) continue;
    std::ostringstream os;
    os << (sc == &s.in_scale ? "in_scale" : "out_scale") << " covers "
       << sc->positions() << " positions, expected iters*cn = " << expected;
    const std::int64_t got = sc->positions();
    add(Diag::kScaleSizeMismatch, os.str(),
        got > expected ? got - expected : expected - got);
  }
  if (!maps_ok) return;  // the maps cannot be traversed safely

  // -- Bounds: every addressed element (table entry or map-evaluated
  //    index — skewed affine strides surface right here) must fall in the
  //    n-element buffers.
  std::int64_t in_oob = 0, out_oob = 0;
  std::int64_t first_in = -1, first_in_val = 0;
  std::int64_t first_out = -1, first_out_val = 0;
  for (idx_t it = 0; it < s.iters; ++it) {
    for (idx_t l = 0; l < s.cn; ++l) {
      const idx_t ie = s.in_index(it, l);
      if (ie < 0 || ie >= n) {
        if (in_oob++ == 0) {
          first_in = it * s.cn + l;
          first_in_val = ie;
        }
      }
      const idx_t oe = s.out_index(it, l);
      if (oe < 0 || oe >= n) {
        if (out_oob++ == 0) {
          first_out = it * s.cn + l;
          first_out_val = oe;
        }
      }
    }
  }
  if (in_oob > 0) {
    std::ostringstream os;
    os << in_oob << " input " << (in_oob == 1 ? "index" : "indices")
       << " outside [0, " << n
       << ") (first: in(" << first_in << ") = " << first_in_val
       << (s.in_affine ? ", affine" : "") << ")";
    add(Diag::kIndexOutOfBounds, os.str(), in_oob);
  }
  if (out_oob > 0) {
    std::ostringstream os;
    os << out_oob << " output " << (out_oob == 1 ? "index" : "indices")
       << " outside [0, " << n
       << ") (first: out(" << first_out << ") = " << first_out_val
       << (s.out_affine ? ", affine" : "") << ")";
    add(Diag::kIndexOutOfBounds, os.str(), out_oob);
  }

  const idx_t tasks = backend::stage_tasks(s);
  const idx_t mu = std::max<idx_t>(1, opt.mu);
  const bool do_lines = opt.check_false_sharing && tasks > 1;
  const bool do_balance = opt.check_load_balance && tasks > 1;

  // -- One pass over the write footprint: per-element writing task
  //    (races, bijectivity) and per-line writing task (false sharing).
  sc.writer.assign(static_cast<std::size_t>(n), kNoTask);
  if (do_lines) {
    sc.line_writer.assign(static_cast<std::size_t>((n + mu - 1) / mu),
                          kNoTask);
  }
  if (do_balance) sc.task_iters.assign(static_cast<std::size_t>(tasks), 0);

  std::int64_t ww_races = 0, dup_writes = 0, fs_lines = 0;
  idx_t race_elem = -1, race_a = -1, race_b = -1;
  idx_t dup_elem = -1, fs_line = -1;
  std::int32_t fs_a = -1;
  idx_t fs_b = -1;
  for (idx_t it = 0; it < s.iters; ++it) {
    const idx_t t = backend::task_of(s, tasks, it);
    if (do_balance) ++sc.task_iters[static_cast<std::size_t>(t)];
    for (idx_t l = 0; l < s.cn; ++l) {
      const idx_t e = s.out_index(it, l);
      if (e < 0 || e >= n) continue;  // reported above
      auto& w = sc.writer[static_cast<std::size_t>(e)];
      if (w == kNoTask) {
        w = static_cast<std::int32_t>(t);
      } else if (w == t) {
        if (dup_writes++ == 0) dup_elem = e;
      } else {
        if (ww_races++ == 0) {
          race_elem = e;
          race_a = w;
          race_b = t;
        }
      }
      if (do_lines) {
        auto& lw = sc.line_writer[static_cast<std::size_t>(e / mu)];
        if (lw == kNoTask) {
          lw = static_cast<std::int32_t>(t);
        } else if (lw != kSharedLine && lw != t) {
          if (fs_lines++ == 0) {
            fs_line = e / mu;
            fs_a = lw;
            fs_b = t;
          }
          lw = kSharedLine;
        }
      }
    }
  }

  if (opt.check_races && ww_races > 0) {
    std::ostringstream os;
    os << plural(ww_races, "element") << " written by more than one thread"
       << " (e.g. element " << race_elem << " by threads " << race_a
       << " and " << race_b << ")";
    add(Diag::kRaceWriteWrite, os.str(), ww_races);
  } else if (!opt.check_races && opt.check_coverage && ww_races > 0) {
    dup_writes += ww_races;  // still doubly-written, just not flagged racy
    if (dup_elem < 0) dup_elem = race_elem;
  }
  if (opt.check_coverage) {
    if (dup_writes > 0) {
      std::ostringstream os;
      os << plural(dup_writes, "element") << " written twice by one thread"
         << " (e.g. element " << dup_elem << "): out_map is not injective";
      add(Diag::kDuplicateWrite, os.str(), dup_writes);
    }
    std::int64_t lost = 0;
    idx_t lost_elem = -1;
    for (idx_t e = 0; e < n; ++e) {
      if (sc.writer[static_cast<std::size_t>(e)] == kNoTask) {
        if (lost++ == 0) lost_elem = e;
      }
    }
    if (lost > 0) {
      std::ostringstream os;
      os << plural(lost, "element") << " of the destination buffer never "
         << "written (e.g. element " << lost_elem
         << "): stale ping-pong data would be read downstream";
      add(Diag::kLostElement, os.str(), lost);
    }
  }
  if (do_lines && fs_lines > 0) {
    std::ostringstream os;
    os << plural(fs_lines, "cache line") << " (mu = " << mu
       << ") written by more than one thread (e.g. line " << fs_line
       << ", elements [" << fs_line * mu << ", " << (fs_line + 1) * mu
       << "), by threads " << fs_a << " and " << fs_b << ")"
       << (s.sched_block > 0 ? "; block-cyclic schedule ignores mu" : "");
    add(Diag::kFalseSharing, os.str(), fs_lines);
  }

  // -- Read/write overlap under in-place aliasing (ping-pong buffers
  //    collapsed onto one array).
  if (opt.check_races && opt.inplace_aliasing && tasks > 1) {
    sc.readers.assign(static_cast<std::size_t>(n), 0);
    for (idx_t it = 0; it < s.iters; ++it) {
      const idx_t t = backend::task_of(s, tasks, it);
      for (idx_t l = 0; l < s.cn; ++l) {
        const idx_t e = s.in_index(it, l);
        if (e >= 0 && e < n) {
          sc.readers[static_cast<std::size_t>(e)] |= task_bit(t);
        }
      }
    }
    std::int64_t rw_races = 0;
    idx_t rw_elem = -1;
    for (idx_t e = 0; e < n; ++e) {
      const auto w = sc.writer[static_cast<std::size_t>(e)];
      if (w < 0) continue;
      if ((sc.readers[static_cast<std::size_t>(e)] & ~task_bit(w)) != 0) {
        if (rw_races++ == 0) rw_elem = e;
      }
    }
    if (rw_races > 0) {
      std::ostringstream os;
      os << plural(rw_races, "element")
         << " read by a thread other than its writer under in-place "
         << "aliasing (e.g. element " << rw_elem << ")";
      add(Diag::kRaceReadWrite, os.str(), rw_races);
    }
  }

  // -- Load balance: per-thread codelet counts of the schedule.
  if (do_balance) {
    const auto [mn_it, mx_it] =
        std::minmax_element(sc.task_iters.begin(), sc.task_iters.end());
    const std::int64_t mn = *mn_it, mx = *mx_it;
    const bool unbalanced =
        mx > mn + 1 &&
        (mn == 0 || static_cast<double>(mx) >
                        opt.imbalance_threshold * static_cast<double>(mn));
    if (unbalanced) {
      std::ostringstream os;
      os << "per-thread codelet counts range from " << mn << " to " << mx
         << " over " << tasks << " threads (threshold ratio "
         << opt.imbalance_threshold << ")";
      add(Diag::kLoadImbalance, os.str(), mx - mn);
    }
  }
}

/// The group check: at every boundary a -> b inside a stage group,
/// block j of b must read exactly the elements block j of a wrote. Both
/// stages cover n positions, so it suffices that every read lands on an
/// element its own block wrote.
void verify_groups(const backend::StageList& program, Scratch& sc,
                   Report& rep) {
  const idx_t n = program.n;
  const std::size_t count = program.stages.size();
  for (const backend::StageGroup& g : backend::find_stage_groups(program)) {
    for (std::size_t m = 0; m + 1 < g.count; ++m) {
      const std::size_t ai = g.stage(m, count);
      const Stage& a = program.stages[ai];
      const Stage& b = program.stages[ai - 1];
      sc.writer.assign(static_cast<std::size_t>(n), kNoTask);
      for (idx_t k = 0; k < a.iters * a.cn; ++k) {
        const idx_t e = a.out_index(k / a.cn, k % a.cn);
        if (e >= 0 && e < n) {
          sc.writer[static_cast<std::size_t>(e)] =
              static_cast<std::int32_t>(k / backend::kGroupBlock);
        }
      }
      std::int64_t leaks = 0;
      idx_t leak_pos = -1, leak_elem = -1;
      for (idx_t k = 0; k < b.iters * b.cn; ++k) {
        const idx_t e = b.in_index(k / b.cn, k % b.cn);
        if (e < 0 || e >= n ||
            sc.writer[static_cast<std::size_t>(e)] != k / backend::kGroupBlock) {
          if (leaks++ == 0) {
            leak_pos = k;
            leak_elem = e;
          }
        }
      }
      if (leaks > 0) {
        std::ostringstream os;
        os << plural(leaks, "element") << " read by a block of this stage "
           << "were not written by the same block of stage "
           << static_cast<int>(ai) << " in its group (e.g. position "
           << leak_pos << " of block " << leak_pos / backend::kGroupBlock
           << " reads element " << leak_elem << ")";
        Finding f;
        f.kind = Diag::kGroupLeak;
        f.severity = severity_of(f.kind);
        f.stage = static_cast<int>(ai - 1);
        f.stage_label = b.label;
        f.message = os.str();
        f.count = leaks;
        rep.findings.push_back(std::move(f));
      }
    }
  }
}

}  // namespace

Report verify(const backend::StageList& program, const Options& opt) {
  Report rep;
  rep.n = program.n;
  rep.stages = static_cast<int>(program.stages.size());
  if (program.n > backend::kMaxIndexableElems) {
    Finding f;
    f.kind = Diag::kIndexOverflow;
    f.severity = Severity::kError;
    f.stage = -1;
    std::ostringstream os;
    os << "transform size " << program.n
       << " exceeds the int32 index-map limit ("
       << backend::kMaxIndexableElems << " elements): maps would wrap";
    f.message = os.str();
    f.count = 1;
    rep.findings.push_back(std::move(f));
    return rep;  // the maps cannot be trusted past this point
  }
  if (program.n <= 0) return rep;
  Scratch sc;
  for (int si = 0; si < rep.stages; ++si) {
    verify_stage(program, si, opt, sc, rep);
  }
  // Groups are found on well-formed stages only, so their maps can be
  // walked whatever the per-stage findings were.
  verify_groups(program, sc, rep);
  return rep;
}

}  // namespace spiral::analysis
