// Program generation demo: emit a standalone multithreaded C source file
// implementing DFT_n for a given machine configuration — what Spiral's
// backend produces (Section 3.1, "Generating multithreaded code"). A
// parallel derivation runs on a persistent pthreads pool.
//
//   $ ./codegen_demo [--n=256] [--p=2] [--mu=4] [--out=dft.c]
//
// The generated file is self-testing:  cc -O2 -pthread dft.c -lm && ./a.out
#include <cstdio>
#include <fstream>

#include "backend/codegen_c.hpp"
#include "backend/lower.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace spiral;
  util::CliArgs args(argc, argv);
  const idx_t n = args.get_int("n", 256);
  const idx_t p = args.get_int("p", 2);
  const idx_t mu = args.get_int("mu", 4);
  const std::string out = args.get("out", "generated_dft.c");

  // Derive, expand, lower, fuse.
  idx_t m = 0;
  for (idx_t cand : rewrite::possible_splits(n)) {
    if (cand % (p * mu) == 0 && (n / cand) % (p * mu) == 0) m = cand;
  }
  spl::FormulaPtr f;
  if (m != 0) {
    f = rewrite::derive_multicore_ct(n, m, p, mu);
    std::printf("generated parallel code from formula (14), split m=%lld\n",
                static_cast<long long>(m));
  } else {
    f = rewrite::formula_from_ruletree(rewrite::balanced_ruletree(n));
    std::printf("size not (p*mu)^2-divisible; generating sequential code\n");
  }
  auto list = backend::lower_fused(rewrite::expand_dfts_balanced(f));

  backend::CodegenOptions opts;
  opts.function_name = "spiral_dft_" + std::to_string(n);
  opts.emit_main = true;
  const std::string src = backend::emit_c(list, opts);

  std::ofstream os(out);
  os << src;
  os.close();

  std::printf("wrote %zu bytes of C to %s\n", src.size(), out.c_str());
  std::printf(
      "stages: %zu; compile with:\n  cc -O2 -pthread %s -lm && ./a.out\n",
      list.stages.size(), out.c_str());

  // Print the head of the generated file as a taste.
  std::printf("\n--- %s (first lines) ---\n", out.c_str());
  std::size_t pos = 0;
  for (int line = 0; line < 12 && pos != std::string::npos; ++line) {
    const auto next = src.find('\n', pos);
    std::printf("%s\n", src.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  return 0;
}
