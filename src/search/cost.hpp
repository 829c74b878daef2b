// The search engine's cost function: wall-clock timing on the host
// (Spiral's actual evaluation loop).
#pragma once

#include "search/search.hpp"

namespace spiral::search {

/// Cost = measured wall-clock seconds per transform (best of a few reps)
/// for the sequential fused program of the tree.
[[nodiscard]] CostFn walltime_cost();

}  // namespace spiral::search
