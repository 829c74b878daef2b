// AVX-512F kernel variant (see simd_avx2.cpp for the pattern): W = 2, 4
// and 8, compiled with -mavx512f -mfma when supported, giving the W=8
// kernels single zmm operations. Dispatch only reaches this variant when
// the CPU reports avx512f at runtime.
#include "backend/simd.hpp"

#if defined(__AVX512F__) && defined(__FMA__)
#define SPIRAL_SIMD_VARIANT avx512
#include "backend/simd_kernels.hpp"
#endif

namespace spiral::backend::simd {

PackFn pack_fn_avx512(idx_t width, idx_t cn, int kind) {
#if defined(__AVX512F__) && defined(__FMA__)
  return avx512::pack_fn<kMaxWidth>(width, cn, kind);
#else
  (void)width;
  (void)cn;
  (void)kind;
  return nullptr;
#endif
}

}  // namespace spiral::backend::simd
