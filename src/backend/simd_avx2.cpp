// AVX2+FMA kernel variant: the shared kernels from simd_kernels.hpp at
// W = 2 and 4, instantiated in a TU compiled with -mavx2 -mfma (set
// per-file by src/backend/CMakeLists.txt when the compiler supports the
// flags), so the W=4 kernels are single ymm operations. When the flags
// are unavailable the resolver reports nullptr, and detect_isa() never
// reports the AVX2 tier.
#include "backend/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)
#define SPIRAL_SIMD_VARIANT avx2
#include "backend/simd_kernels.hpp"
#endif

namespace spiral::backend::simd {

PackFn pack_fn_avx2(idx_t width, idx_t cn, int kind) {
#if defined(__AVX2__) && defined(__FMA__)
  return avx2::pack_fn<4>(width, cn, kind);
#else
  (void)width;
  (void)cn;
  (void)kind;
  return nullptr;
#endif
}

}  // namespace spiral::backend::simd
