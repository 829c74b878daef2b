// Batch-service throughput and latency: service::BatchExecutor coalescing
// many small same-size transforms into I_k (x) DFT_n programs versus the
// naive per-call loop, across the two execution substrates (scalar
// interpreter, SIMD nu=4). Every mode runs --repeats times; a row holds
// the median of each metric over the repeats and the best (the min of a
// latency, the max of a throughput).
//
// Modes measured per (substrate, n):
//   percall-seq  plain plan->execute() loop, sequential plan (reference)
//   percall      plan->execute() loop on a p-thread plan — the naive
//                baseline the service must beat: every call pays pool
//                dispatch and S+1 barrier crossings for ONE transform
//   sync         C client threads doing submit()+wait() round trips
//   async        one pipelined submitter (bounded in-flight window via the
//                service queue) + a completion waiter, full speed
//   async-win    one pipelined submitter holding at most C requests in
//                flight (reaps the oldest ticket before submitting the
//                next) — the same concurrency as the sync run, so by
//                Little's law the same offered load; only the submission
//                style differs. The apples-to-apples p99 comparison.
// plus one mixed-size async run (the 10^6-request service scenario).
//
// Latency bases differ by what the caller experiences: sync rows record
// the client round trip (submit -> wait() returned — a blocked caller
// pays the wake-up), async rows record the service's completion stamp
// (Ticket::latency_us: submit -> result ready; a pipelined caller is not
// blocked per request, so notification is off the critical path). The
// JSON carries the basis per row.
//
// Note rule (9) admissibility: a p-thread DFT_n program needs both CT
// factors divisible by p*mu, so with p=4, mu=4 the smallest parallel size
// is n=256. Below that the "percall" baseline silently degenerates to the
// sequential plan and coalescing into a p-thread batch program cannot pay
// on principle — those rows are reported but excluded from --check.
//
//   --requests-per-size=N  requests per (substrate, n) run (default 1e5)
//   --requests=N           requests of the mixed-size run (default 1e6)
//   --threads=P            service/percall thread count (default 4)
//   --max-batch=K          largest coalesced chunk (default 32)
//   --clients=C            sync client threads (default 4)
//   --substrates=LIST      comma list of interp,simd (default both)
//   --repeats=R            runs per mode (default 3)
//   --json=PATH            write rows, with the host, nproc and R, as JSON
//   --check                exit 1 unless every coalesced async run reaches
//                          --check-ratio (default 1.0) times the percall
//                          throughput at the same (substrate, n) — the CI
//                          smoke gate (on the medians)
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/plan_cache.hpp"
#include "service/batch_executor.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace spiral;

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct RunStats {
  double elapsed_s = 0.0;
  std::size_t requests = 0;
  std::vector<double> lat_us;
  std::string lat_basis = "client-rtt";
  bool parallel_plan = true;  // percall: did the p-thread plan parallelize?
  service::BatchExecutor::Stats svc;  // zeroed for percall modes
  [[nodiscard]] double throughput() const {
    return elapsed_s > 0 ? static_cast<double>(requests) / elapsed_s : 0.0;
  }
};

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// Per-size request buffers; inputs are read-only to the service, so all
/// in-flight requests of a size may share one signal.
struct Buffers {
  std::map<idx_t, util::cvec> x, y;
  void ensure(idx_t n) {
    if (x.count(n)) return;
    util::Rng rng(0xbe7cULL ^ static_cast<std::uint64_t>(n));
    x[n] = rng.complex_signal(n);
    y[n].assign(static_cast<std::size_t>(n), cplx{0.0, 0.0});
  }
};

/// Naive baseline: one plan, one context, one execute() per request.
RunStats run_percall(idx_t n, int threads,
                     const core::PlannerOptions& planner,
                     std::size_t requests) {
  core::PlannerOptions opt = planner;
  opt.threads = threads;
  core::PlanCache cache;
  const auto plan = cache.dft(n, opt);
  bool parallel = false;
  for (const auto& st : plan->stages().stages) {
    if (st.parallel_p > 1) parallel = true;
  }
  backend::ExecContext ctx;
  Buffers buf;
  buf.ensure(n);
  plan->execute(ctx, buf.x[n].data(), buf.y[n].data());  // warm the pool
  RunStats rs;
  rs.requests = requests;
  rs.parallel_plan = parallel;
  rs.lat_basis = "direct";
  rs.lat_us.reserve(requests);
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const auto t0 = Clock::now();
    plan->execute(ctx, buf.x[n].data(), buf.y[n].data());
    rs.lat_us.push_back(us_between(t0, Clock::now()));
  }
  rs.elapsed_s = us_between(begin, Clock::now()) * 1e-6;
  return rs;
}

/// Plans every chunk size the service can reach for `sizes` up front, so
/// the timed window measures execution, not planning.
void warm_service(service::BatchExecutor& svc,
                  const std::vector<idx_t>& sizes) {
  core::PlannerOptions p = svc.options().planner;
  p.threads = svc.options().threads;
  for (idx_t n : sizes) {
    (void)svc.cache().dft(n, p);
    for (idx_t c = 2; c <= svc.options().max_batch; c *= 2) {
      (void)svc.cache().batch_dft(n, c, p);
    }
  }
  Buffers buf;
  for (idx_t n : sizes) {
    buf.ensure(n);
    svc.execute(n, buf.x[n].data(), buf.y[n].data());
  }
}

/// C client threads doing synchronous submit+wait round trips.
RunStats run_sync(const std::vector<idx_t>& sizes, service::ServiceOptions opt,
                  std::size_t requests, int clients) {
  service::BatchExecutor svc(opt);
  warm_service(svc, sizes);
  const std::size_t per_client = requests / static_cast<std::size_t>(clients);
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(clients));
  std::vector<std::thread> team;
  const auto begin = Clock::now();
  for (int c = 0; c < clients; ++c) {
    team.emplace_back([&, c] {
      Buffers buf;
      auto& mine = lat[static_cast<std::size_t>(c)];
      mine.reserve(per_client);
      for (std::size_t i = 0; i < per_client; ++i) {
        const idx_t n = sizes[(static_cast<std::size_t>(c) + i) % sizes.size()];
        buf.ensure(n);
        // A blocked caller's latency is the full round trip, wake-up
        // included — that is what synchronous submission costs.
        const auto t0 = Clock::now();
        svc.wait(svc.submit(n, buf.x[n].data(), buf.y[n].data()));
        mine.push_back(us_between(t0, Clock::now()));
      }
    });
  }
  for (auto& t : team) t.join();
  RunStats rs;
  rs.elapsed_s = us_between(begin, Clock::now()) * 1e-6;
  rs.requests = per_client * static_cast<std::size_t>(clients);
  for (auto& l : lat) {
    rs.lat_us.insert(rs.lat_us.end(), l.begin(), l.end());
  }
  rs.svc = svc.stats();
  return rs;
}

/// Closed-loop pipelined submitter: at most `window` requests in flight;
/// before submitting request i the oldest outstanding ticket is reaped
/// (usually already complete — its whole batch finished together, so one
/// wake-up amortizes over the coalesced chunk). Matches the sync run's
/// concurrency, pipelined instead of blocked.
RunStats run_async_window(const std::vector<idx_t>& sizes,
                          service::ServiceOptions opt, std::size_t requests,
                          int window) {
  service::BatchExecutor svc(opt);
  warm_service(svc, sizes);
  Buffers buf;
  for (idx_t n : sizes) buf.ensure(n);
  std::deque<service::Ticket> inflight;
  RunStats rs;
  rs.requests = requests;
  rs.lat_basis = "service-stamp";
  rs.lat_us.reserve(requests);
  const auto begin = Clock::now();
  for (std::size_t i = 0; i < requests; ++i) {
    const idx_t n = sizes[i % sizes.size()];
    if (static_cast<int>(inflight.size()) >= window) {
      svc.wait(inflight.front());
      rs.lat_us.push_back(inflight.front().latency_us());
      inflight.pop_front();
    }
    inflight.push_back(svc.submit(n, buf.x[n].data(), buf.y[n].data()));
  }
  for (auto& t : inflight) {
    svc.wait(t);
    rs.lat_us.push_back(t.latency_us());
  }
  rs.elapsed_s = us_between(begin, Clock::now()) * 1e-6;
  rs.svc = svc.stats();
  return rs;
}

/// Pipelined submitter + completion waiter. pace_tps > 0 throttles
/// submissions to that rate; 0 runs at full speed. The service queue
/// bounds the in-flight window.
RunStats run_async(const std::vector<idx_t>& sizes,
                   service::ServiceOptions opt, std::size_t requests,
                   double pace_tps) {
  opt.queue_capacity = 64;
  service::BatchExecutor svc(opt);
  warm_service(svc, sizes);

  struct Pending {
    service::Ticket t;
  };
  std::mutex m;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool done = false;

  RunStats rs;
  rs.requests = requests;
  rs.lat_basis = "service-stamp";
  rs.lat_us.reserve(requests);
  std::thread waiter([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      // A pipelined caller is not blocked per request, so the result-ready
      // time (service completion stamp) is its latency; the waiter's own
      // scheduling lag is off the critical path.
      svc.wait(p.t);
      rs.lat_us.push_back(p.t.latency_us());
    }
  });

  Buffers buf;
  for (idx_t n : sizes) buf.ensure(n);
  const auto begin = Clock::now();
  auto next = begin;
  const auto interval =
      pace_tps > 0 ? std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(1.0 / pace_tps))
                   : Clock::duration::zero();
  for (std::size_t i = 0; i < requests; ++i) {
    const idx_t n = sizes[i % sizes.size()];
    if (pace_tps > 0) {
      next += interval;
      std::this_thread::sleep_until(next);
    }
    service::Ticket t = svc.submit(n, buf.x[n].data(), buf.y[n].data());
    {
      std::lock_guard<std::mutex> lk(m);
      pending.push_back({std::move(t)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(m);
    done = true;
  }
  cv.notify_one();
  waiter.join();
  rs.elapsed_s = us_between(begin, Clock::now()) * 1e-6;
  rs.svc = svc.stats();
  return rs;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// One mode's runs over the repeats, reduced: medians and bests.
struct Summary {
  RunStats first;  ///< latency basis, plan and batcher counts of run 0
  double tps = 0.0, tps_max = 0.0;
  double p50 = 0.0, p50_min = 0.0;
  double p99 = 0.0, p99_min = 0.0;
  double p999 = 0.0;
};

template <class Run>
Summary repeat_runs(int repeats, Run&& run) {
  Summary out;
  std::vector<double> tps, p50, p99, p999;
  for (int r = 0; r < repeats; ++r) {
    RunStats rs = run();
    tps.push_back(rs.throughput());
    p50.push_back(percentile(rs.lat_us, 0.50));
    p99.push_back(percentile(rs.lat_us, 0.99));
    p999.push_back(percentile(rs.lat_us, 0.999));
    if (r == 0) out.first = std::move(rs);
  }
  out.tps = median(tps);
  out.tps_max = *std::max_element(tps.begin(), tps.end());
  out.p50 = median(p50);
  out.p50_min = *std::min_element(p50.begin(), p50.end());
  out.p99 = median(p99);
  out.p99_min = *std::min_element(p99.begin(), p99.end());
  out.p999 = median(p999);
  return out;
}

void report(bench::JsonRows& rows, const std::string& substrate,
            const std::string& mode, const std::string& sizes, int threads,
            const Summary& s) {
  const RunStats& rs = s.first;
  std::printf("%s,%s,%s,%d,%zu,%.0f,%.1f,%.1f,%.1f,%.2f\n",
              substrate.c_str(), mode.c_str(), sizes.c_str(), threads,
              rs.requests, s.tps, s.p50, s.p99, s.p999, rs.svc.mean_batch());
  rows.begin_row();
  rows.field("substrate", substrate);
  rows.field("mode", mode);
  rows.field("sizes", sizes);
  rows.field("threads", threads);
  rows.field("requests", static_cast<std::int64_t>(rs.requests));
  rows.field("transforms_per_sec", s.tps);
  rows.field("transforms_per_sec_max", s.tps_max);
  rows.field("p50_us", s.p50);
  rows.field("p50_us_min", s.p50_min);
  rows.field("p99_us", s.p99);
  rows.field("p99_us_min", s.p99_min);
  rows.field("p999_us", s.p999);
  rows.field("batches", static_cast<std::int64_t>(rs.svc.batches));
  rows.field("mean_batch", rs.svc.mean_batch());
  rows.field("lat_basis", rs.lat_basis);
  rows.field("parallel_plan", static_cast<std::int64_t>(rs.parallel_plan));
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const auto per_size =
      static_cast<std::size_t>(args.get_int("requests-per-size", 100000));
  const auto mixed_requests =
      static_cast<std::size_t>(args.get_int("requests", 1000000));
  const int threads = static_cast<int>(args.get_int("threads", 4));
  const idx_t max_batch = args.get_int("max-batch", 32);
  const int clients = static_cast<int>(args.get_int("clients", 4));
  const bool check = args.has("check");
  const double check_ratio = args.get_double("check-ratio", 1.0);
  const int repeats =
      std::max(1, static_cast<int>(args.get_int("repeats", 3)));
  const std::string substrates_arg =
      args.has("substrates") ? args.get("substrates") : "interp,simd";

  struct Substrate {
    std::string name;
    core::PlannerOptions planner;
  };
  std::vector<Substrate> substrates;
  if (substrates_arg.find("interp") != std::string::npos) {
    substrates.push_back({"interp", {}});
  }
  if (substrates_arg.find("simd") != std::string::npos) {
    core::PlannerOptions p;
    p.vector_nu = 4;
    substrates.push_back({"simd", p});
  }

  const std::vector<idx_t> all_sizes = {64, 256, 1024};

  std::printf("# Batch service vs per-call loop (p=%d, max_batch=%lld)\n",
              threads, static_cast<long long>(max_batch));
  std::printf(
      "substrate,mode,sizes,threads,requests,"
      "transforms_per_sec,p50_us,p99_us,p999_us,mean_batch\n");

  bench::JsonRows rows;
  bench::describe_host(rows, repeats);
  std::vector<std::string> failures;

  for (const auto& sub : substrates) {
    service::ServiceOptions base;
    base.threads = threads;
    base.max_batch = max_batch;
    base.planner = sub.planner;

    for (idx_t n : all_sizes) {
      const std::string ns = std::to_string(n);
      const std::vector<idx_t> one{n};

      const Summary seq = repeat_runs(
          repeats, [&] { return run_percall(n, 1, sub.planner, per_size); });
      report(rows, sub.name, "percall-seq", ns, 1, seq);

      const Summary percall = repeat_runs(repeats, [&] {
        return run_percall(n, threads, sub.planner, per_size);
      });
      report(rows, sub.name, "percall", ns, threads, percall);

      const Summary sync = repeat_runs(
          repeats, [&] { return run_sync(one, base, per_size, clients); });
      report(rows, sub.name, "sync", ns, threads, sync);

      const Summary async_full = repeat_runs(
          repeats, [&] { return run_async(one, base, per_size, 0.0); });
      report(rows, sub.name, "async", ns, threads, async_full);

      // Same concurrency as the sync run (Little's law: same offered
      // load), pipelined — the p99 delta is purely the submission style.
      const Summary win = repeat_runs(repeats, [&] {
        return run_async_window(one, base, per_size, clients);
      });
      report(rows, sub.name, "async-win", ns, threads, win);

      // Gate only sizes where a p-thread per-call program exists (rule (9)
      // admissibility) — below that the baseline is the sequential plan
      // and a parallel coalesced program is not comparable.
      if (check && percall.first.parallel_plan) {
        if (async_full.tps < check_ratio * percall.tps) {
          failures.push_back(sub.name + " n=" + ns + ": async " +
                             std::to_string(async_full.tps) + " tps < " +
                             std::to_string(check_ratio) + "x percall " +
                             std::to_string(percall.tps) + " tps");
        }
        if (win.p99 >= sync.p99) {
          failures.push_back(sub.name + " n=" + ns + ": async-win p99 " +
                             std::to_string(win.p99) + "us >= sync p99 " +
                             std::to_string(sync.p99) + "us");
        }
        if (win.tps < sync.tps) {
          failures.push_back(sub.name + " n=" + ns + ": async-win " +
                             std::to_string(win.tps) + " tps < sync " +
                             std::to_string(sync.tps) + " tps");
        }
      }
    }

    // The headline scenario: a million mixed-size requests through one
    // pipelined service.
    const Summary mixed = repeat_runs(repeats, [&] {
      return run_async(all_sizes, base, mixed_requests, 0.0);
    });
    report(rows, sub.name, "async", "64,256,1024", threads, mixed);
  }

  if (args.has("json")) {
    const std::string path = args.get("json");
    if (!rows.write(path)) {
      std::fprintf(stderr, "bench_service: cannot write '%s'\n", path.c_str());
      return 2;
    }
    std::printf("# wrote %s\n", path.c_str());
  }
  if (!failures.empty()) {
    for (const auto& f : failures) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  if (check) std::printf("# check passed\n");
  return 0;
}
