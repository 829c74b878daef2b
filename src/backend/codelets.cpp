#include "backend/codelets.hpp"

#include "backend/codelet_template.hpp"
#include "backend/stage.hpp"
#include "rewrite/breakdown.hpp"
#include "spl/twiddle.hpp"

namespace spiral::backend {

static_assert(rewrite::kMaxCodeletSize <= kMaxCodelet,
              "every leaf the planner may choose needs a codelet");

namespace {

CodeletRoots make_roots(int sign) {
  CodeletRoots r;
  for (int k = 0; k < kMaxCodelet; ++k) {
    const cplx v = spl::root_of_unity(kMaxCodelet, k, sign);
    r.re[k] = v.real();
    r.im[k] = v.imag();
  }
  return r;
}

}  // namespace

const CodeletRoots& codelet_roots(int sign) {
  static const CodeletRoots roots[2] = {make_roots(-1), make_roots(+1)};
  return roots[sign < 0 ? 0 : 1];
}

int codelet_kind(const Stage& s) {
  return s.is_compute && !s.wht ? s.sign : 0;
}

double codelet_flops(idx_t n) {
  if (n <= 1) return 0.0;
  // log2(n) stages of n/2 butterflies: one complex mul (6 flops) and two
  // complex adds (4 flops) each.
  const double k = static_cast<double>(util::log2_exact(n));
  return k * static_cast<double>(n) / 2.0 * 10.0;
}

double wht_codelet_flops(idx_t n) {
  if (n <= 1) return 0.0;
  // log2(n) stages of n/2 butterflies, 2 complex adds (4 real flops) each.
  return static_cast<double>(util::log2_exact(n)) *
         static_cast<double>(n) / 2.0 * 4.0;
}

}  // namespace spiral::backend
