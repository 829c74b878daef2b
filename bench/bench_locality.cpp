// Static locality analyzer evaluation: model-vs-simulator traffic
// cross-validation and the model-pruned plan-search ablation
// (DpSearch(cost, leaf, model, k)).
//
// Part A (traffic): for k in [kmin, kmax] x p in {2, 4}, analyze the
// multicore plan statically (analysis::analyze_locality) and replay it
// through the MESI simulator; the coherence-transfer and false-sharing
// counts must agree line for line (the analyzer's exactness contract),
// and predicted memory lines / cycles are reported next to the
// simulator's for calibration (ROADMAP item: model calibration from
// committed bench rows).
//
// Part B (prune): for k in the --prune list, run the full DP search over
// the simulated cost and the model-pruned search (top-k by predicted
// cycles, only those simulator-timed); reports candidate evaluations and
// the cost of the chosen plan — the acceptance claim is evals_pruned <=
// evals_full / 2 with cost within 10%.
//
// Usage:
//   bench_locality [--kmin=8] [--kmax=14] [--prune=16,18,20]
//                  [--prune-k=6] [--json=PATH]
//
// --json writes every row to PATH (BENCH_locality.json, committed).
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/locality.hpp"
#include "bench_common.hpp"
#include "machine/config.hpp"
#include "search/cost.hpp"
#include "search/search.hpp"
#include "util/cli.hpp"

namespace {

using namespace spiral;

std::vector<int> parse_list(const std::string& s) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const int kmin = static_cast<int>(args.get_int("kmin", 8));
  const int kmax = static_cast<int>(args.get_int("kmax", 14));
  const std::vector<int> prune_ks = parse_list(args.get("prune", "16,18,20"));
  const int prune_k = static_cast<int>(args.get_int("prune-k", 6));
  const idx_t mu = 4;

  bench::JsonRows json;

  // Part A: exact coherence cross-validation + miss-model calibration.
  std::printf("# Static locality model vs MESI simulator (mu=%lld)\n",
              static_cast<long long>(mu));
  std::printf(
      "p,log2n,n,transfers_model,transfers_sim,fs_model,fs_sim,"
      "pred_mem_lines,sim_mem_lines,pred_cycles,sim_cycles,exact\n");
  int mismatches = 0;
  for (int p : {2, 4}) {
    const auto cfg = machine::generic_config(p, mu);
    for (int k = kmin; k <= kmax; ++k) {
      const idx_t n = idx_t{1} << k;
      auto plan = bench::spiral_par_plan(n, p, mu);
      if (!plan) continue;

      analysis::LocalityOptions lopt;
      lopt.threads = p;
      const auto rep = analysis::analyze_locality(*plan, cfg, lopt);

      machine::SimOptions sopt;
      sopt.threads = p;
      machine::Simulator sim(cfg, sopt);
      const auto sr = sim.run_steady(*plan);
      std::int64_t sim_mem = 0;
      for (const auto& ss : sr.per_stage) sim_mem += ss.mem_lines;

      const bool exact = rep.coherence_transfers == sr.coherence_transfers &&
                         rep.false_sharing_events == sr.false_sharing_events;
      mismatches += exact ? 0 : 1;
      std::printf("%d,%d,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%.0f,%.0f,%d\n",
                  p, k, static_cast<long long>(n),
                  static_cast<long long>(rep.coherence_transfers),
                  static_cast<long long>(sr.coherence_transfers),
                  static_cast<long long>(rep.false_sharing_events),
                  static_cast<long long>(sr.false_sharing_events),
                  static_cast<long long>(rep.pred_mem_lines),
                  static_cast<long long>(sim_mem), rep.pred_cycles,
                  sr.cycles, exact ? 1 : 0);

      json.begin_row();
      json.field("experiment", "traffic");
      json.field("p", p);
      json.field("log2n", k);
      json.field("n", static_cast<std::int64_t>(n));
      json.field("transfers_model", rep.coherence_transfers);
      json.field("transfers_sim", sr.coherence_transfers);
      json.field("false_sharing_model", rep.false_sharing_events);
      json.field("false_sharing_sim", sr.false_sharing_events);
      json.field("pred_mem_lines", rep.pred_mem_lines);
      json.field("sim_mem_lines", sim_mem);
      json.field("pred_cycles", rep.pred_cycles);
      json.field("sim_cycles", sr.cycles);
      json.field("traffic_ratio", rep.traffic_ratio());
      json.field("exact_match", static_cast<std::int64_t>(exact ? 1 : 0));
    }
  }
  std::printf("# coherence mismatches: %d (0 = exact everywhere)\n\n",
              mismatches);

  // Part B: model-pruned DP search vs the full search.
  const idx_t p = 4;
  const auto cfg = machine::opteron();
  std::printf("# Model-pruned DP search (p=%lld, mu=%lld, %s)\n",
              static_cast<long long>(p), static_cast<long long>(mu),
              cfg.name.c_str());
  std::printf(
      "log2n,n,evals_full,evals_pruned,model_evals,cost_full,cost_pruned,"
      "cost_ratio\n");
  for (const int k : prune_ks) {
    const idx_t n = idx_t{1} << k;
    auto sim_cost = search::simulated_parallel_cost(cfg, p, mu);
    search::DpSearch full(sim_cost, 32);
    const auto f = full.best(n);
    search::DpSearch pruned(sim_cost, 32,
                            search::locality_model_parallel_cost(cfg, p, mu),
                            prune_k);
    const auto pr = pruned.best(n);
    const double ratio = pr.cost / f.cost;
    std::printf("%d,%lld,%lld,%lld,%lld,%.4g,%.4g,%.4f\n", k,
                static_cast<long long>(n),
                static_cast<long long>(f.evaluations),
                static_cast<long long>(pr.evaluations),
                static_cast<long long>(pr.model_evaluations), f.cost,
                pr.cost, ratio);

    json.begin_row();
    json.field("experiment", "model_prune");
    json.field("p", static_cast<std::int64_t>(p));
    json.field("log2n", k);
    json.field("n", static_cast<std::int64_t>(n));
    json.field("machine", cfg.name);
    json.field("model_prune_k", prune_k);
    json.field("evals_full", static_cast<std::int64_t>(f.evaluations));
    json.field("evals_pruned", static_cast<std::int64_t>(pr.evaluations));
    json.field("model_evals",
               static_cast<std::int64_t>(pr.model_evaluations));
    json.field("cost_full", f.cost);
    json.field("cost_pruned", pr.cost);
    json.field("cost_ratio", ratio);
  }

  if (args.has("json")) {
    const std::string path = args.get("json", "BENCH_locality.json");
    if (!json.write(path)) {
      std::fprintf(stderr, "bench_locality: cannot write '%s'\n",
                   path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", path.c_str());
  }
  return mismatches == 0 ? 0 : 1;
}
