#include "analysis/locality.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <unordered_map>

#include "backend/codelets.hpp"
#include "backend/schedule.hpp"

namespace spiral::analysis {

namespace {

// Region numbering mirrors the simulator's disjoint address regions
// (machine/simulator.cpp): x, the two ping-pong scratch halves, y, and
// one twiddle region per stage. Region bases there are multiples of 2^40,
// itself a multiple of every power-of-two line size, so a (region,
// local line) pair here is exactly one global line there.
constexpr int kRegX = 0;
constexpr int kRegB0 = 1;
constexpr int kRegB1 = 2;
constexpr int kRegY = 3;
constexpr int kRegTw0 = 4;  // + stage index k

constexpr idx_t kElemBytes = 16;  // complex<double>

/// Per-region line state. The directory half (writer / writer_stage)
/// replicates machine::Directory exactly; the rest is bookkeeping for
/// footprints, multi-writer detection and the reuse model.
struct RegionState {
  // Directory: last writing thread (-1 = clean) and the global stage id
  // of that write. Identical evolution to Simulator's LineState.
  std::vector<std::int32_t> writer;
  std::vector<std::int64_t> writer_stage;
  /// Global stage id of the last coherence transfer on the line (first
  /// transfer per stage feeds ideal_transfer_lines).
  std::vector<std::int64_t> last_transfer_stage;
  // Reuse model: the last two (stage, thread) touches with distinct
  // threads. Two entries matter because a coherence transfer invalidates
  // only the previous owner's L1 — its private L2 keeps the line, so a
  // producer re-touching data a consumer read in between hits L2, not
  // memory (see classify_first).
  std::vector<std::int64_t> last_touch_stage;
  std::vector<std::int32_t> last_touch_thread;
  std::vector<std::int64_t> prev_touch_stage;
  std::vector<std::int32_t> prev_touch_thread;
  // Per-stage scratch (epoch-stamped so no clearing between stages).
  std::vector<std::uint64_t> touch_mask;  ///< bit t: thread t touched it
  std::vector<std::int64_t> touch_epoch;
  std::vector<std::uint64_t> write_mask;  ///< bit t: thread t wrote it
  std::vector<std::int64_t> write_epoch;
  bool allocated = false;

  void ensure(idx_t lines) {
    if (allocated) return;
    const auto n = static_cast<std::size_t>(lines);
    writer.assign(n, -1);
    writer_stage.assign(n, -1);
    last_transfer_stage.assign(n, -1);
    last_touch_stage.assign(n, -1);
    last_touch_thread.assign(n, -1);
    prev_touch_stage.assign(n, -1);
    prev_touch_thread.assign(n, -1);
    touch_mask.assign(n, 0);
    touch_epoch.assign(n, -1);
    write_mask.assign(n, 0);
    write_epoch.assign(n, -1);
    allocated = true;
  }
};

/// Fenwick tree over access positions; marks sit at each line's most
/// recent access position, so a range sum counts distinct lines touched
/// in an interval — the textbook O(log n) LRU stack-distance algorithm.
class Fenwick {
 public:
  void reset(std::size_t n) {
    n_ = n + 1;
    tree_.assign(n_, 0);
  }
  void add(std::size_t i, std::int32_t v) {
    for (++i; i < n_; i += i & (~i + 1)) tree_[i] += v;
  }
  /// Sum of marks at positions [0, i].
  [[nodiscard]] std::int64_t sum(std::size_t i) const {
    std::int64_t s = 0;
    for (++i; i > 0; i -= i & (~i + 1)) s += tree_[i];
    return s;
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::int32_t> tree_;
};

/// True when the side's misses form sequential line streams the
/// hardware prefetcher absorbs. The simulator tracks 128 concurrent
/// miss streams per core (machine/simulator.cpp), so this is not just
/// the single contiguous walk: a codelet whose iteration stride is at
/// most a line (0 or 1 new lines per iteration per lane) advances cn
/// independent sequential streams — e.g. the stride-m twiddle stages
/// DFT_cn o D, whose lanes sit m apart but each walk forward
/// contiguously. cn is at most 64 (the largest codelet), well
/// under the tracker's capacity even with both sides plus twiddles
/// live at once.
bool side_streaming(bool affine, const backend::BitStrideMap& m, idx_t cn,
                    idx_t mu_elems) {
  if (!affine) return false;
  const backend::AffineMap a = m.affine(cn).value();
  if (cn == 1) return a.iter_stride == 1 || a.iter_stride == -1;
  if (a.elem_stride == 1 && a.iter_stride == cn) return true;  // one stream
  return a.iter_stride >= 1 && a.iter_stride <= mu_elems;  // cn lane streams
}

}  // namespace

LocalityReport analyze_locality(const backend::StageList& program,
                                const machine::MachineConfig& cfg,
                                const LocalityOptions& opt) {
  util::require(opt.threads >= 1, "analyze_locality: threads >= 1");
  util::require(opt.passes >= 1, "analyze_locality: passes >= 1");
  util::require(cfg.cores >= 1 && cfg.cores <= 64,
                "analyze_locality: cores in [1, 64] (footprint masks)");
  util::require(cfg.line_bytes >= kElemBytes &&
                    cfg.line_bytes % kElemBytes == 0,
                "analyze_locality: line size must hold whole elements");

  const auto& st = program.stages;
  const std::size_t S = st.size();
  const idx_t mu_elems = cfg.line_bytes / kElemBytes;
  const idx_t lines_n = util::ceil_div(std::max<idx_t>(program.n, 1),
                                       mu_elems);
  const std::int64_t cap1 =
      std::max<std::int64_t>(1, cfg.l1.size_bytes / cfg.line_bytes);
  const std::int64_t l2_lines =
      std::max<std::int64_t>(1, cfg.l2.size_bytes / cfg.line_bytes);

  LocalityReport rep;
  rep.n = program.n;
  rep.threads = opt.threads;
  rep.machine = cfg.name;
  rep.mu = mu_elems;
  rep.groups = backend::find_stage_groups(program);
  // Per stage (list index): is its input / output side internal to a
  // group, i.e. a block in the worker's scratch rather than a buffer?
  std::vector<char> in_resident(S, 0), out_resident(S, 0);
  for (const auto& g : rep.groups) {
    for (std::size_t m = 0; m < g.count; ++m) {
      const std::size_t k = g.stage(m, S);
      in_resident[k] = m > 0;
      out_resident[k] = m + 1 < g.count;
    }
  }

  std::vector<RegionState> regions(4 + S);
  // Running per-stage union footprints: prefix[id] = lines touched by all
  // stages with global id < id. Feeds the cross-stage reuse model.
  std::vector<std::int64_t> prefix{0};
  // Same running sum over the worst single-thread footprint per stage:
  // the volume competing for residency in one *private* cache. With a
  // partitioned schedule each core re-touches only its own share, so
  // judging private-cache reuse against the global union (prefix) calls
  // lines "memory" that every core still holds — the simulator keeps
  // them L2-resident. Taken from the replay's exact per-thread line
  // counts, not a p-divided estimate.
  std::vector<std::int64_t> prefix_core{0};

  // Per-thread scratch reused across stages.
  std::vector<idx_t> its;
  std::unordered_map<std::int64_t, std::int64_t> last_pos;
  Fenwick fen;

  std::int64_t stage_id = 0;
  for (int pass = 0; pass < opt.passes; ++pass) {
    const bool report_pass = pass == opt.passes - 1;
    int src = kRegX;
    int flip = 0;

    for (std::size_t k = S; k-- > 0;) {
      const backend::Stage& s = st[k];
      int dst;
      if (k == 0) {
        dst = kRegY;
      } else {
        dst = flip ? kRegB1 : kRegB0;
        flip ^= 1;
      }
      const bool has_tw = !s.in_scale.empty();
      const int twr = kRegTw0 + static_cast<int>(k);

      const int p_eff = backend::model_tasks(s, opt.threads, cfg.cores);
      const idx_t cn = s.cn;
      // The lines of the input scale's stored values for position
      // it*cn + l, one per factor; the factors' values lie back to back
      // in the stage's twiddle region.
      auto tw_lines = [&](idx_t it, idx_t l, auto&& visit) {
        idx_t offset = 0;
        for (const auto& f : s.in_scale.factors()) {
          visit((offset + f.map().at(it * cn + l)) / mu_elems);
          offset += static_cast<idx_t>(f.size());
        }
      };
      const std::size_t tw_reads =
          has_tw ? s.in_scale.factors().size() : 0;

      RegionState& SR = regions[static_cast<std::size_t>(src)];
      RegionState& DR = regions[static_cast<std::size_t>(dst)];
      SR.ensure(lines_n);
      DR.ensure(lines_n);
      if (has_tw) regions[static_cast<std::size_t>(twr)].ensure(lines_n);

      StageLocality sl;
      sl.stage = static_cast<int>(S - 1 - k);
      sl.label = s.label;
      sl.parallel_used = p_eff;
      sl.iters = s.iters;
      sl.in_scale_values = static_cast<std::int64_t>(s.in_scale.size());
      sl.out_scale_values = static_cast<std::int64_t>(s.out_scale.size());
      sl.exchange.assign(
          static_cast<std::size_t>(cfg.cores) *
              static_cast<std::size_t>(cfg.cores),
          0);

      std::vector<std::int64_t> thread_lines(
          static_cast<std::size_t>(p_eff), 0);
      std::vector<std::int64_t> thread_transfers(
          static_cast<std::size_t>(p_eff), 0);
      std::vector<std::int64_t> thread_fs(static_cast<std::size_t>(p_eff),
                                          0);
      std::vector<std::int64_t> region_union(4 + S, 0);

      // ---- analytic reuse model (report pass only; reads pre-stage
      // last-touch state, so it runs before the directory replay) -------
      std::vector<double> model_cycles(static_cast<std::size_t>(p_eff),
                                       0.0);
      if (opt.predict && report_pass) {
        // In-stage stack distances are measured per thread, so the
        // effective L2 share is the whole cache when private and a
        // 1/p_eff slice when shared.
        const std::int64_t cap2 =
            cfg.l2_shared && p_eff > 1 ? l2_lines / p_eff : l2_lines;
        // Values re-read within the stage stay in L2 when they fit.
        const bool tw_resident =
            sl.in_scale_values < s.total_elems() &&
            (sl.in_scale_values + mu_elems - 1) / mu_elems <= cap2;
        const bool in_stream =
            side_streaming(s.in_affine, s.in_bits, cn, mu_elems);
        const bool out_stream =
            side_streaming(s.out_affine, s.out_bits, cn, mu_elems);
        const double iter_flop_cycles =
            cfg.flop_cycles *
            ((s.is_compute ? (s.wht ? backend::wht_codelet_flops(cn)
                                    : backend::codelet_flops(cn))
                           : 0.0) +
             (s.in_scale.empty() ? 0.0 : 6.0 * static_cast<double>(cn)) +
             (s.out_scale.empty() ? 0.0 : 6.0 * static_cast<double>(cn)));

        // First touch of `line` by thread t this stage: 0 = L1 hit,
        // 1 = L2 hit, 2 = memory, 3 = coherence transfer (the replay
        // counts and prices those — don't double-charge a miss).
        auto classify_first = [&](const RegionState& R, idx_t line,
                                  int t) -> int {
          const auto li = static_cast<std::size_t>(line);
          const std::int64_t ls = R.last_touch_stage[li];
          if (ls < 0) return 2;  // compulsory
          // Dirty in another core's cache: the access will be served
          // cache-to-cache, exactly what the directory replay counts.
          const std::int32_t owner = R.writer[li];
          if (owner != -1 && owner != t) return 3;
          // Lines touched since (inclusive of the producing stage): the
          // volume competing for cache residency across the barrier(s).
          // Shared caches contend with every thread's lines (prefix);
          // private caches only with their owner's share (prefix_core).
          auto vol_since = [&](std::int64_t since) {
            return prefix[static_cast<std::size_t>(stage_id)] -
                   prefix[static_cast<std::size_t>(since)];
          };
          auto core_vol_since = [&](std::int64_t since) {
            return prefix_core[static_cast<std::size_t>(stage_id)] -
                   prefix_core[static_cast<std::size_t>(since)];
          };
          const std::int32_t lt = R.last_touch_thread[li];
          if (lt == t) {
            const std::int64_t vol = core_vol_since(ls);  // L1 is private
            if (vol <= cap1) return 0;
            if (cfg.l2_shared ? vol_since(ls) <= l2_lines
                              : vol <= l2_lines) {
              return 1;
            }
            return 2;
          }
          // Last toucher is someone else. A transfer in between evicted
          // our L1 copy but not our private L2 one: if *we* touched the
          // line recently enough (previous-toucher slot), it is still L2
          // resident. Shared-L2 machines hold it for everyone regardless.
          if (cfg.l2_shared) return vol_since(ls) <= l2_lines ? 1 : 2;
          const std::int64_t ps = R.prev_touch_stage[li];
          if (ps >= 0 && R.prev_touch_thread[li] == t &&
              core_vol_since(ps) <= l2_lines) {
            return 1;
          }
          return 2;
        };

        for (int t = 0; t < p_eff; ++t) {
          its.clear();
          backend::for_each_run(s, t, p_eff, [&](idx_t lo, idx_t hi) {
            for (idx_t it = lo; it < hi; ++it) its.push_back(it);
          });
          const std::size_t stream_len =
              its.size() * static_cast<std::size_t>(cn) * (2 + tw_reads);
          fen.reset(stream_len);
          last_pos.clear();
          std::int64_t pos = 0;
          std::int64_t l1m = 0;
          std::int64_t mem = 0;
          double cyc = iter_flop_cycles * static_cast<double>(its.size());

          auto access = [&](int reg, idx_t line, bool streaming,
                            bool resident) {
            if (line < 0 || line >= lines_n) return;  // malformed program
            const RegionState& R = regions[static_cast<std::size_t>(reg)];
            const std::int64_t key =
                (static_cast<std::int64_t>(reg) << 40) | line;
            int cls;
            auto itp = last_pos.find(key);
            if (itp == last_pos.end()) {
              cls = classify_first(R, line, t);
            } else {
              const std::int64_t dist =
                  (pos > 0 ? fen.sum(static_cast<std::size_t>(pos - 1))
                           : 0) -
                  fen.sum(static_cast<std::size_t>(itp->second));
              cls = dist < cap1 ? 0 : (dist < cap2 ? 1 : 2);
              fen.add(static_cast<std::size_t>(itp->second), -1);
            }
            if (resident && cls == 2) cls = 1;  // a block in L2
            fen.add(static_cast<std::size_t>(pos), 1);
            last_pos[key] = pos;
            ++pos;
            cyc += cfg.l1_hit_cycles;
            if (cls == 1) {
              ++l1m;
              cyc += cfg.l2_hit_cycles;
            } else if (cls == 2) {
              ++l1m;
              ++mem;
              cyc += cfg.mem_cycles * (streaming ? cfg.prefetch_factor : 1.0);
            }
          };

          for (const idx_t it : its) {
            for (idx_t l = 0; l < cn; ++l) {
              access(src, s.in_index(it, l) / mu_elems, in_stream,
                     in_resident[k] != 0);
              if (has_tw) {
                tw_lines(it, l, [&](idx_t line) {
                  access(twr, line, true, tw_resident);
                });
              }
            }
            for (idx_t l = 0; l < cn; ++l) {
              access(dst, s.out_index(it, l) / mu_elems, out_stream,
                     out_resident[k] != 0);
            }
          }
          model_cycles[static_cast<std::size_t>(t)] = cyc;
          sl.pred_l1_misses += l1m;
          sl.pred_mem_lines += mem;
        }
      }

      // ---- exact directory replay in the simulator's round-robin
      // interleave ------------------------------------------------------
      auto note_footprint = [&](RegionState& R, int reg, idx_t line,
                                int core) {
        auto& mask = R.touch_mask[static_cast<std::size_t>(line)];
        if (R.touch_epoch[static_cast<std::size_t>(line)] != stage_id) {
          R.touch_epoch[static_cast<std::size_t>(line)] = stage_id;
          mask = 0;
        }
        if (mask == 0) ++region_union[static_cast<std::size_t>(reg)];
        const std::uint64_t bit = std::uint64_t{1} << core;
        if ((mask & bit) == 0) {
          mask |= bit;
          ++thread_lines[static_cast<std::size_t>(core)];
        }
      };

      auto touch = [&](int core, int reg, idx_t line, bool write) {
        ++sl.accesses;
        if (line < 0 || line >= lines_n) return;  // malformed program
        RegionState& R = regions[static_cast<std::size_t>(reg)];
        note_footprint(R, reg, line, core);
        const auto li = static_cast<std::size_t>(line);
        if (R.last_touch_thread[li] != core) {
          // Keep the previous *distinct-thread* touch: the model's L2
          // residency hint for a producer whose line a consumer read.
          R.prev_touch_stage[li] = R.last_touch_stage[li];
          R.prev_touch_thread[li] = R.last_touch_thread[li];
        }
        R.last_touch_stage[li] = stage_id;
        R.last_touch_thread[li] = core;
        if (write) {
          auto& wm = R.write_mask[li];
          if (R.write_epoch[li] != stage_id) {
            R.write_epoch[li] = stage_id;
            wm = 0;
          }
          const std::uint64_t bit = std::uint64_t{1} << core;
          constexpr std::uint64_t kCounted = std::uint64_t{1} << 63;
          if ((wm & ~kCounted) != 0 && (wm & bit) == 0 &&
              (wm & kCounted) == 0) {
            ++sl.multi_writer_lines;
            wm |= kCounted;
          }
          wm |= bit;
        }
        // Directory transition — field for field what Simulator::touch
        // does before any cache is consulted.
        const std::int32_t lw = R.writer[li];
        if (lw != -1 && lw != core) {
          ++sl.coherence_transfers;
          ++thread_transfers[static_cast<std::size_t>(core)];
          if (write && R.writer_stage[li] == stage_id) {
            ++sl.false_sharing_events;
            ++thread_fs[static_cast<std::size_t>(core)];
          }
          if (R.last_transfer_stage[li] != stage_id) {
            R.last_transfer_stage[li] = stage_id;
            // Owner established before this stage: the line carried data
            // across the barrier, so one move was unavoidable.
            if (R.writer_stage[li] < stage_id) ++sl.ideal_transfer_lines;
          }
          if (write) {
            ++sl.cross_write_lines;
          } else {
            ++sl.cross_read_lines;
            if (R.writer_stage[li] == stage_id - 1) {
              ++sl.producer_consumer_lines;
            }
            sl.exchange[static_cast<std::size_t>(lw) *
                            static_cast<std::size_t>(cfg.cores) +
                        static_cast<std::size_t>(core)] += 1;
          }
          R.writer[li] = write ? core : -1;
          R.writer_stage[li] = write ? stage_id : -1;
          return;
        }
        if (write) {
          R.writer[li] = core;
          R.writer_stage[li] = stage_id;
        }
      };

      bool more = true;
      std::vector<idx_t> steps(static_cast<std::size_t>(p_eff), 0);
      while (more) {
        more = false;
        for (int c = 0; c < p_eff; ++c) {
          const idx_t it = backend::iteration_at(
              s, c, p_eff, steps[static_cast<std::size_t>(c)]);
          if (it < 0) continue;
          ++steps[static_cast<std::size_t>(c)];
          more = true;
          for (idx_t l = 0; l < cn; ++l) {
            touch(c, src, s.in_index(it, l) / mu_elems, false);
            if (has_tw) {
              tw_lines(it, l,
                       [&](idx_t line) { touch(c, twr, line, false); });
            }
          }
          for (idx_t l = 0; l < cn; ++l) {
            touch(c, dst, s.out_index(it, l) / mu_elems, true);
          }
        }
      }

      sl.in_lines = region_union[static_cast<std::size_t>(src)];
      sl.out_lines = region_union[static_cast<std::size_t>(dst)];
      sl.tw_lines = has_tw ? region_union[static_cast<std::size_t>(twr)] : 0;
      sl.max_thread_lines =
          *std::max_element(thread_lines.begin(), thread_lines.end());
      sl.min_thread_lines =
          *std::min_element(thread_lines.begin(), thread_lines.end());

      const std::int64_t stage_union =
          sl.in_lines + sl.out_lines + sl.tw_lines;
      prefix.push_back(prefix.back() + stage_union);
      prefix_core.push_back(prefix_core.back() + sl.max_thread_lines);

      if (opt.predict && report_pass) {
        double worst = 0.0;
        for (int t = 0; t < p_eff; ++t) {
          const auto ti = static_cast<std::size_t>(t);
          // A transferred access pays the coherence latency instead of
          // the hierarchy probe the model already charged.
          const double cyc =
              model_cycles[ti] +
              static_cast<double>(thread_transfers[ti]) *
                  std::max(0.0, cfg.coherence_cycles - cfg.l1_hit_cycles) +
              static_cast<double>(thread_fs[ti]) * cfg.false_sharing_cycles;
          worst = std::max(worst, cyc);
        }
        const double bus = static_cast<double>(sl.pred_mem_lines) *
                           cfg.bus_cycles_per_line;
        if (bus > worst) {
          worst = bus;
          sl.bandwidth_bound = true;
        }
        if (opt.threads > 1) worst += cfg.barrier_cycles;
        sl.pred_cycles = worst;
      }

      if (report_pass) {
        rep.accesses += sl.accesses;
        rep.coherence_transfers += sl.coherence_transfers;
        rep.false_sharing_events += sl.false_sharing_events;
        rep.cross_read_lines += sl.cross_read_lines;
        rep.cross_write_lines += sl.cross_write_lines;
        rep.multi_writer_lines += sl.multi_writer_lines;
        rep.ideal_transfer_lines += sl.ideal_transfer_lines;
        rep.pred_l1_misses += sl.pred_l1_misses;
        rep.pred_mem_lines += sl.pred_mem_lines;
        rep.pred_cycles += sl.pred_cycles;
        rep.stages.push_back(std::move(sl));
      }

      src = dst;
      ++stage_id;
    }
  }

  rep.pred_seconds = rep.pred_cycles / (cfg.ghz * 1e9);
  return rep;
}

std::string LocalityReport::to_string() const {
  std::ostringstream os;
  os << "locality: n=" << n << " threads=" << threads << " machine="
     << (machine.empty() ? "generic" : machine) << " mu=" << mu << "\n";
  os << "  totals: accesses=" << accesses << " coherence-transfers="
     << coherence_transfers << " false-sharing=" << false_sharing_events
     << " traffic-ratio=";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", traffic_ratio());
  os << buf << "\n";
  os << "  model:  l1-misses=" << pred_l1_misses << " mem-lines="
     << pred_mem_lines << " cycles=";
  std::snprintf(buf, sizeof(buf), "%.3e", pred_cycles);
  os << buf << "\n";
  for (const auto& g : groups) {
    os << "  group: stages " << g.first << "-" << g.first + g.count - 1
       << " run block by block, " << backend::kGroupBlock
       << "-element blocks\n";
  }
  for (const auto& s : stages) {
    os << "  stage " << s.stage << " [" << s.label << "] p="
       << s.parallel_used << " iters=" << s.iters << "\n";
    os << "    lines: in=" << s.in_lines << " out=" << s.out_lines
       << " tw=" << s.tw_lines << " per-thread=[" << s.min_thread_lines
       << ", " << s.max_thread_lines << "]\n";
    if (s.in_scale_values + s.out_scale_values > 0) {
      os << "    scale values: in=" << s.in_scale_values
         << " out=" << s.out_scale_values << "\n";
    }
    os << "    cross-barrier: producer->consumer="
       << s.producer_consumer_lines << " read-transfers="
       << s.cross_read_lines << " write-transfers=" << s.cross_write_lines
       << " ideal=" << s.ideal_transfer_lines << "\n";
    os << "    coherence: transfers=" << s.coherence_transfers
       << " false-sharing=" << s.false_sharing_events
       << " multi-writer-lines=" << s.multi_writer_lines << "\n";
    if (s.pred_cycles > 0.0) {
      std::snprintf(buf, sizeof(buf), "%.3e", s.pred_cycles);
      os << "    model: l1-misses=" << s.pred_l1_misses << " mem-lines="
         << s.pred_mem_lines << " cycles=" << buf
         << (s.bandwidth_bound ? " (bandwidth-bound)" : "") << "\n";
    }
  }
  return os.str();
}

std::string LocalityReport::to_json() const {
  std::ostringstream os;
  char buf[64];
  os << "{\"n\":" << n << ",\"threads\":" << threads << ",\"machine\":\""
     << (machine.empty() ? "generic" : machine) << "\",\"mu\":" << mu
     << ",\"accesses\":" << accesses << ",\"coherence_transfers\":"
     << coherence_transfers << ",\"false_sharing_events\":"
     << false_sharing_events << ",\"cross_read_lines\":" << cross_read_lines
     << ",\"cross_write_lines\":" << cross_write_lines
     << ",\"multi_writer_lines\":" << multi_writer_lines
     << ",\"ideal_transfer_lines\":" << ideal_transfer_lines;
  std::snprintf(buf, sizeof(buf), "%.4f", traffic_ratio());
  os << ",\"traffic_ratio\":" << buf;
  os << ",\"pred_l1_misses\":" << pred_l1_misses << ",\"pred_mem_lines\":"
     << pred_mem_lines;
  std::snprintf(buf, sizeof(buf), "%.6e", pred_cycles);
  os << ",\"pred_cycles\":" << buf;
  std::snprintf(buf, sizeof(buf), "%.6e", pred_seconds);
  os << ",\"pred_seconds\":" << buf << ",\"groups\":[";
  for (std::size_t i = 0; i < groups.size(); ++i) {
    os << (i > 0 ? "," : "") << "{\"first\":" << groups[i].first
       << ",\"count\":" << groups[i].count << ",\"block\":"
       << backend::kGroupBlock << "}";
  }
  os << "],\"stages\":[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const auto& s = stages[i];
    if (i > 0) os << ",";
    os << "{\"stage\":" << s.stage << ",\"parallel_used\":"
       << s.parallel_used << ",\"iters\":" << s.iters << ",\"accesses\":"
       << s.accesses << ",\"in_lines\":" << s.in_lines << ",\"out_lines\":"
       << s.out_lines << ",\"tw_lines\":" << s.tw_lines
       << ",\"max_thread_lines\":" << s.max_thread_lines
       << ",\"min_thread_lines\":" << s.min_thread_lines
       << ",\"producer_consumer_lines\":" << s.producer_consumer_lines
       << ",\"cross_read_lines\":" << s.cross_read_lines
       << ",\"cross_write_lines\":" << s.cross_write_lines
       << ",\"coherence_transfers\":" << s.coherence_transfers
       << ",\"false_sharing_events\":" << s.false_sharing_events
       << ",\"multi_writer_lines\":" << s.multi_writer_lines
       << ",\"ideal_transfer_lines\":" << s.ideal_transfer_lines
       << ",\"pred_l1_misses\":" << s.pred_l1_misses
       << ",\"pred_mem_lines\":" << s.pred_mem_lines;
    std::snprintf(buf, sizeof(buf), "%.6e", s.pred_cycles);
    os << ",\"pred_cycles\":" << buf << ",\"bandwidth_bound\":"
       << (s.bandwidth_bound ? "true" : "false") << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace spiral::analysis
