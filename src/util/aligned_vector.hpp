// Cache-line aligned storage for signal vectors and execution scratch.
//
// The paper assumes "all shared data vectors are aligned at cache line
// boundaries in the final program" (Section 3.1); the proofs that formula
// (14) avoids false sharing depend on it. This allocator guarantees that
// assumption for every buffer the library creates.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "util/common.hpp"

namespace spiral::util {

/// Alignment used for all signal buffers. 64 bytes covers the cache-line
/// size of every platform in the paper's evaluation (and mu=4 complex
/// doubles); it is also the natural alignment for SSE2/AVX loads.
inline constexpr std::size_t kBufferAlignment = 64;

// The SIMD execution layer and the ExecContext scratch buffers assume every
// library-allocated signal buffer is aligned to the widest vector
// register in play (64 B = one AVX-512 zmm). A weaker guarantee would
// make aligned vector loads fault; keep the invariant machine-checked.
static_assert(kBufferAlignment >= 64,
              "signal buffers must be aligned for 512-bit vector loads");
static_assert(kBufferAlignment % alignof(cplx) == 0,
              "buffer alignment must refine the element alignment");

/// Minimal standard-conforming aligned allocator.
template <class T, std::size_t Align = kBufferAlignment>
struct AlignedAllocator {
  using value_type = T;

  /// Explicit rebind is required: the non-type Align parameter defeats the
  /// default rebinding machinery in allocator_traits.
  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    void* p = std::aligned_alloc(Align, round_up(n * sizeof(T)));
    if (p == nullptr) throw std::bad_alloc{};
    return static_cast<T*>(p);
  }
  void deallocate(T* p, std::size_t) noexcept { std::free(p); }

  template <class U>
  bool operator==(const AlignedAllocator<U, Align>&) const noexcept {
    return true;
  }

 private:
  static constexpr std::size_t round_up(std::size_t bytes) noexcept {
    return (bytes + Align - 1) / Align * Align;
  }
};

/// AlignedAllocator whose default construction leaves the element unset,
/// so growing a vector of it writes nothing. For scratch whose every read
/// is proven to follow a write: each page is then first touched by
/// whoever writes it, not by a fill on the thread that allocates.
template <class T>
struct UninitializedAllocator : AlignedAllocator<T> {
  template <class U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };

  UninitializedAllocator() noexcept = default;
  template <class U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  template <class U>
  void construct(U*) noexcept {}
};

/// Cache-line aligned complex scratch that is never value-initialized.
using scratch_cvec = std::vector<cplx, UninitializedAllocator<cplx>>;

/// Grows `v` to at least n elements (never shrinks). Growth drops the old
/// contents instead of copying them, and frees the old allocation before
/// making the new one, so every element is unset afterwards.
inline void grow_scratch(scratch_cvec& v, std::size_t n) {
  if (v.size() >= n) return;
  v = scratch_cvec();
  v.resize(n);
}

/// Cache-line aligned vector of complex samples: the standard signal type.
using cvec = std::vector<cplx, AlignedAllocator<cplx>>;

/// Cache-line aligned vector of doubles (twiddle tables etc.).
using dvec = std::vector<double, AlignedAllocator<double>>;

}  // namespace spiral::util
