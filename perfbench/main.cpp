// perfbench: the repository benchmark program.
//
//   perfbench --workload <burst-1k|large-4m> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]
//
// Runs one workload in this (fresh) process, checks sampled outputs
// against a reference, and prints as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer ones and writes a
// Chrome trace. Exit code 1 when any output was wrong, 2 on usage or
// hygiene errors.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "backend/simd.hpp"
#include "threading/pool_registry.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed with tracing off.
const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_us.p50", "us"},
      {"latency_us.p99", "us"},
      {"throughput_tps", "1/s"},
      {"gflops", "GFlop/s"},
      {"cpu_us_per_transform", "us"},
      {"rss_peak_mib", "MiB"},
  };
  return defs;
}

/// Printed with tracing on. A layer a workload does not reach reports 0.
const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"core.plan_s", "s"},
      {"core.plan_rest_s", "s"},
      {"core.plan_cache.hit_ns", "ns"},
      {"core.plan_cache.misses", "count"},
      {"rewrite.formula_s", "s"},
      {"backend.lower_s", "s"},
      {"backend.lower_fused_s", "s"},
      {"backend.fuse_s", "s"},
      {"backend.first_exec_s", "s"},
      {"backend.stages", "count"},
      {"backend.affine_sides", "count"},
      {"backend.table_mib", "MiB"},
      {"backend.stage_us.0", "us"},
      {"backend.stage_us.1", "us"},
      {"backend.stage_us.2", "us"},
      {"backend.stage_us.3", "us"},
      {"backend.stage_us.4", "us"},
      {"backend.stage_us.5", "us"},
      {"backend.stage_us.6", "us"},
      {"backend.stage_us.7", "us"},
      {"backend.stage_sum_us", "us"},
      {"backend.sync_us", "us"},
      {"backend.whole_p50_us", "us"},
      {"backend.seq_p50_us", "us"},
      {"backend.speedup_vs_seq", "x"},
      {"backend.gbps_computed", "GB/s"},
      {"backend.gbps_pct_stream", "%"},
      {"threading.dispatch_us", "us"},
      {"threading.wake_us", "us"},
      {"threading.idle_cpu_cores", "cores"},
      {"threading.threads_spawned", "count"},
      {"threading.pools_created", "count"},
      {"service.setup_s", "s"},
      {"service.latency_us.p50", "us"},
      {"service.latency_us.p99", "us"},
      {"service.throughput_tps", "1/s"},
      {"service.gflops", "GFlop/s"},
      {"service.cpu_us_per_transform", "us"},
      {"service.submit_us", "us"},
      {"service.wait_us", "us"},
      {"service.stamp_p50_us", "us"},
      {"service.mean_batch", "count"},
      {"service.batches", "count"},
      {"service.flushes.size", "count"},
      {"service.flushes.deadline", "count"},
      {"service.flushes.idle", "count"},
      {"service.exec_us_per_transform", "us"},
      {"service.overhead_us", "us"},
      {"service.direct_tps", "1/s"},
      {"host.fma_gflops", "GFlop/s"},
      {"host.stream_gbps", "GB/s"},
      {"host.gflops_pct_peak", "%"},
      {"check.err_rel_l2.max", "ratio"},
      {"check.sampled", "count"},
      {"check.failed_frac", "ratio"},
      {"check.selfcheck_caught", "count"},
      {"latency.samples", "count"},
      {"latency.tail_pct", "%"},
      {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
      {"trace.self_s.bench", "s"},
      {"trace.self_s.core", "s"},
      {"trace.self_s.rewrite", "s"},
      {"trace.self_s.backend", "s"},
      {"trace.self_s.service", "s"},
      {"recon.stage_sync_pct_err", "%"},
      {"recon.setup_pct_err", "%"},
  };
  return defs;
}

/// STREAM arrays: 4x the 105 MiB L3 of the reference host, each.
constexpr double kStreamArrayMiB = 420.0;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <burst-1k|large-4m> --seed <n>"
               " --seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]\n";
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  std::string commit = "unknown";
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) usage("bad argument '" + k + "'");
    kv[k.substr(2)] = argv[++i];
  }
  try {
    a.workload = kv.at("workload");
    a.seed = std::stoull(kv.at("seed"));
    a.seconds = std::stod(kv.at("seconds"));
    a.trace = std::stoi(kv.at("trace")) != 0;
  } catch (const std::exception&) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (kv.count("out-dir") != 0) a.out_dir = kv["out-dir"];
  if (kv.count("commit") != 0) commit = kv["commit"];
  Result (*run)(const Args&, Tracer&) = nullptr;
  if (a.workload == "burst-1k") run = run_burst_1k;
  if (a.workload == "large-4m") run = run_large_4m;
  if (run == nullptr) usage("unknown workload '" + a.workload + "'");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");

  // Hygiene: this process must start with no worker team anywhere.
  if (spiral::threading::global_pool_registry().idle_count() != 0 ||
      spiral::threading::ThreadPool::threads_spawned() != 0) {
    std::cerr << "perfbench: worker pools exist before the workload started\n";
    return 2;
  }
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "perfbench: WARNING: build type '" << build_type
              << "' is not Release; timings are not comparable\n";
  }

  // Hardware bounds first, before any worker pool spins.
  if (a.trace) a.host = probe_host(4, kStreamArrayMiB);

  Tracer tr(a.trace);
  Result r;
  try {
    r = run(a, tr);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: workload failed: " << e.what() << "\n";
    return 1;
  }

  if (a.trace) {
    r.set("host.fma_gflops", a.host.fma_gflops);
    r.set("host.stream_gbps", a.host.stream_gbps);
    r.set("trace.spans", static_cast<double>(tr.size()));
    for (const auto& [layer, s] : tr.self_seconds()) r.set("trace.self_s." + layer, s);
    if (!a.out_dir.empty()) {
      const std::string path =
          a.out_dir + "/trace-" + a.workload + "-seed" + std::to_string(a.seed) + ".json";
      if (!tr.write_chrome(path, 20000)) std::cerr << "perfbench: cannot write " << path << "\n";
    }
  }

  // Metadata: host, toolchain, build, source.
  r.note("workload", a.workload);
  r.note("seed", std::to_string(a.seed));
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  r.note("isa", spiral::backend::simd::to_string(spiral::backend::simd::detect_isa()));
  r.note("compiler", PERFBENCH_COMPILER);
  r.note("build_type", build_type);
  r.note("release_build", build_type == "Release" ? "yes" : "NO");
  r.note("commit", commit);
  if (a.trace) {
    r.note("fma_isa", a.host.fma_isa);
    r.note("stream_array_mib", json_number(a.host.stream_array_mib) + " x3");
  }

  const auto& defs = a.trace ? per_layer_metrics() : end_to_end_metrics();
  const auto& values = r.metrics;
  std::string metrics = "{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    if (!a.trace && it == values.end()) {
      std::cerr << "perfbench: end-to-end metric " << defs[i].name << " was not measured\n";
      return 2;
    }
    // A layer this workload never reaches reports 0, and so does a ratio
    // whose base was 0 (with a warning: every metric prints as a number).
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      std::cerr << "perfbench: " << defs[i].name << " is not finite; reported as 0\n";
      v = 0.0;
    }
    metrics += (i == 0 ? "" : ", ") + json_string(defs[i].name) +
               ": {\"value\": " + json_number(v) + ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  metrics += "}";
  std::string notes = "{";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    notes += (i == 0 ? "" : ", ") + json_string(r.notes[i].first) + ": " +
             json_string(r.notes[i].second);
  }
  notes += "}";
  const std::string line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(r.attempted) +
                           ", \"failed\": " + std::to_string(r.failed) +
                           ", \"metrics\": " + metrics + "}";
  if (!a.out_dir.empty()) {
    std::ofstream rec(a.out_dir + "/result-" + a.workload + "-seed" + std::to_string(a.seed) +
                      (a.trace ? "-trace" : "") + ".json");
    rec << "{\"meta\": " << notes << ", \"result\": " << line << "}\n";
  }
  std::cerr << "perfbench: meta " << notes << "\n";
  std::cout << line << std::endl;
  return r.correct ? 0 : 1;
}
