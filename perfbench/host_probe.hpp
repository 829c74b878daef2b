// Measured hardware bounds of the host, so throughput figures carry a
// %-of-peak: an FMA-chain compute peak and a STREAM-triad bandwidth.
#pragma once

#include <string>

namespace perfbench {

struct HostBounds {
  double fma_gflops = 0.0;   ///< all cores, double precision
  std::string fma_isa;       ///< "avx512f" / "avx2" / "scalar"
  double stream_gbps = 0.0;  ///< triad, all cores, STREAM byte convention
  double stream_array_mib = 0.0;
};

/// FMA peak: every core runs 12 independent AVX-512 FMA chains (AVX2 or
/// scalar when the CPU lacks AVX-512); best of 3 trials.
/// STREAM triad a = b + s*c over three arrays of `array_mib` MiB each,
/// split across all cores; best of 3 trials, 24 bytes per element.
HostBounds probe_host(int threads, double array_mib);

}  // namespace perfbench
