#include "machine/simulator.hpp"

#include <algorithm>
#include <cmath>

#include "backend/codelets.hpp"
#include "backend/schedule.hpp"
#include "backend/vectorize.hpp"

namespace spiral::machine {

namespace {

// Disjoint address regions (in bytes) for the buffers a program touches.
// Matches the ping-pong buffer scheme of backend::Program::execute.
constexpr std::int64_t kRegion = std::int64_t{1} << 40;
constexpr std::int64_t kX = 0 * kRegion;
constexpr std::int64_t kB0 = 1 * kRegion;
constexpr std::int64_t kB1 = 2 * kRegion;
constexpr std::int64_t kY = 3 * kRegion;
constexpr std::int64_t kTwiddleBase = 4 * kRegion;  // + stage * kRegion

constexpr idx_t kElemBytes = 16;  // complex<double>

}  // namespace

Simulator::Simulator(const MachineConfig& cfg, const SimOptions& opt)
    : cfg_(cfg), opt_(opt) {
  for (int c = 0; c < cfg_.cores; ++c) {
    l1_.emplace_back(cfg_.l1, cfg_.line_bytes);
    miss_streams_.push_back([] {
      std::array<line_t, 128> a;
      a.fill(-10);
      return a;
    }());
    miss_slot_rr_.push_back(0);
  }
  const int l2_count = cfg_.l2_shared ? 1 : cfg_.cores;
  for (int c = 0; c < l2_count; ++c) {
    l2_.emplace_back(cfg_.l2, cfg_.line_bytes);
  }
}

void Simulator::touch(int core, line_t line, bool write,
                      std::int64_t stage_id, double& cost, StageSim& ss,
                      SimResult& out) {
  ++out.accesses;
  ++ss.accesses;
  LineState& st = dir_.state(line);
  if (st.last_writer != -1 && st.last_writer != core) {
    // Line is dirty in another core's cache: cache-to-cache transfer.
    ++out.coherence_transfers;
    ++ss.coherence_transfers;
    cost += cfg_.coherence_cycles;
    if (write && st.writer_stage == stage_id) {
      // Two cores writing the same line within one stage: false sharing —
      // the line ping-pongs on every such write.
      ++out.false_sharing_events;
      ++ss.false_sharing_events;
      cost += cfg_.false_sharing_cycles;
    }
    // Transfer invalidates/downgrades the previous owner's copy and
    // installs the line here.
    l1_[static_cast<std::size_t>(st.last_writer)].invalidate(line);
    (void)l1_[static_cast<std::size_t>(core)].access(line);
    if (!cfg_.l2_shared) {
      (void)l2_[static_cast<std::size_t>(core)].access(line);
    } else {
      (void)l2_[0].access(line);
    }
    st.last_writer = write ? core : -1;
    st.writer_stage = write ? stage_id : -1;
    return;
  }
  // Normal hierarchy probe.
  cost += cfg_.l1_hit_cycles;
  if (!l1_[static_cast<std::size_t>(core)].access(line)) {
    ++out.l1_misses;
    ++ss.l1_misses;
    CacheModel& l2 =
        cfg_.l2_shared ? l2_[0] : l2_[static_cast<std::size_t>(core)];
    if (l2.access(line)) {
      cost += cfg_.l2_hit_cycles;
    } else {
      ++out.l2_misses;
      ++ss.mem_lines;
      // Hardware prefetcher: a miss continuing a sequential stream has
      // its latency largely hidden.
      auto& streams = miss_streams_[static_cast<std::size_t>(core)];
      bool prefetched = false;
      for (auto& last : streams) {
        if (line == last + 1) {
          prefetched = true;
          last = line;
          break;
        }
      }
      if (!prefetched) {
        // Start a new stream in the next slot (round-robin replacement).
        int& rr = miss_slot_rr_[static_cast<std::size_t>(core)];
        streams[static_cast<std::size_t>(rr)] = line;
        rr = (rr + 1) % static_cast<int>(streams.size());
      }
      cost += prefetched ? cfg_.mem_cycles * cfg_.prefetch_factor
                         : cfg_.mem_cycles;
    }
  }
  if (write) {
    st.last_writer = core;
    st.writer_stage = stage_id;
  }
}

SimResult Simulator::run(const backend::StageList& program) {
  SimResult out;
  if (!opt_.warm) {
    for (auto& c : l1_) c.clear();
    for (auto& c : l2_) c.clear();
    dir_.clear();
  }
  const auto& st = program.stages;
  const idx_t line_elems = cfg_.line_bytes / kElemBytes;

  // Ping-pong buffer assignment identical to Program::execute.
  std::int64_t src_base = kX;
  int flip = 0;

  std::vector<double> core_cycles(static_cast<std::size_t>(cfg_.cores));

  for (std::size_t k = st.size(); k-- > 0;) {
    const backend::Stage& s = st[k];
    const std::int64_t stage_id = stage_counter_++;
    std::int64_t dst_base;
    if (k == 0) {
      dst_base = kY;
    } else {
      dst_base = flip ? kB1 : kB0;
      flip ^= 1;
    }
    const std::int64_t tw_base =
        kTwiddleBase + static_cast<std::int64_t>(k) * kRegion;

    StageSim ss;
    const int p_eff = backend::model_tasks(s, opt_.threads, cfg_.cores);
    ss.parallel_used = p_eff;

    std::fill(core_cycles.begin(), core_cycles.end(), 0.0);

    // SIMD: vectorizable stages execute their arithmetic on vector units.
    double simd_factor = 1.0;
    if (opt_.simd_complex > 1) {
      const auto vi = backend::stage_vector_info(s, opt_.simd_complex);
      simd_factor = static_cast<double>(
          std::min<idx_t>(vi.width, opt_.simd_complex));
    }
    const double iter_flop_cycles =
        cfg_.flop_cycles / simd_factor *
        ((s.is_compute ? (s.wht ? backend::wht_codelet_flops(s.cn)
                                : backend::codelet_flops(s.cn))
                       : 0.0) +
         (s.in_scale.empty() ? 0.0 : 6.0 * double(s.cn)) +
         (s.out_scale.empty() ? 0.0 : 6.0 * double(s.cn)));

    // Round-robin interleaving of the cores' iterations, each core taking
    // its task's iterations of the stage schedule (contiguous chunks, or
    // block-cyclic for the FFTW-like scheduler): captures intra-stage
    // coherence conflicts (false sharing) faithfully.
    bool more = true;
    std::vector<idx_t> steps(static_cast<std::size_t>(p_eff), 0);
    while (more) {
      more = false;
      for (int c = 0; c < p_eff; ++c) {
        const idx_t it = backend::iteration_at(s, c, p_eff, steps[std::size_t(c)]);
        if (it < 0) continue;
        ++steps[std::size_t(c)];
        more = true;
        double cost = iter_flop_cycles;
        const idx_t cn = s.cn;
        const std::size_t base = static_cast<std::size_t>(it * cn);
        for (idx_t l = 0; l < cn; ++l) {
          const std::int64_t in_addr =
              src_base + std::int64_t(s.in_index(it, l)) * kElemBytes;
          touch(c, in_addr / cfg_.line_bytes, /*write=*/false, stage_id,
                cost, ss, out);
          if (!s.in_scale.empty()) {
            // One twiddle per position, in execution order (emitted C).
            const std::int64_t tw_addr =
                tw_base + std::int64_t(base + std::size_t(l)) * kElemBytes;
            touch(c, tw_addr / cfg_.line_bytes, false, stage_id, cost, ss,
                  out);
          }
        }
        for (idx_t l = 0; l < cn; ++l) {
          const std::int64_t out_addr =
              dst_base + std::int64_t(s.out_index(it, l)) * kElemBytes;
          touch(c, out_addr / cfg_.line_bytes, /*write=*/true, stage_id,
                cost, ss, out);
        }
        core_cycles[std::size_t(c)] += cost;
      }
    }

    ss.cycles = *std::max_element(core_cycles.begin(),
                                  core_cycles.begin() + p_eff);
    // Shared memory bandwidth: the stage cannot complete faster than the
    // bus can move its memory lines, no matter how many cores compute.
    const double bus_cycles =
        static_cast<double>(ss.mem_lines) * cfg_.bus_cycles_per_line;
    if (bus_cycles > ss.cycles) {
      ss.cycles = bus_cycles;
      ss.bandwidth_bound = true;
    }
    if (opt_.threads > 1) {
      // Every stage boundary in the multithreaded program is a barrier.
      const double barrier = cfg_.barrier_cycles * opt_.sync_scale;
      ss.cycles += barrier;
      out.barrier_cycles += barrier;
      if (!opt_.thread_pool && p_eff > 1) {
        const double spawn = cfg_.thread_spawn_cycles * (p_eff - 1) *
                             opt_.sync_scale;
        ss.cycles += spawn;
        out.spawn_cycles += spawn;
      }
    }
    out.cycles += ss.cycles;
    out.per_stage.push_back(ss);
    src_base = dst_base;
    (void)line_elems;
  }

  out.seconds = out.cycles / (cfg_.ghz * 1e9);
  double l = std::log2(static_cast<double>(program.n));
  out.pseudo_mflops =
      5.0 * static_cast<double>(program.n) * l / (out.seconds * 1e6);
  return out;
}

SimResult Simulator::run_steady(const backend::StageList& program) {
  (void)run(program);  // warm-up pass
  return run(program);
}

SimResult simulate(const backend::StageList& program,
                   const MachineConfig& cfg, const SimOptions& opt) {
  Simulator sim(cfg, opt);
  return sim.run_steady(program);
}

}  // namespace spiral::machine
