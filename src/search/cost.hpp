// Ready-made cost functions for the search engine: wall-clock timing on
// the host (Spiral's actual evaluation loop) and deterministic cycles on
// the machine simulator (used by the benches for reproducibility).
#pragma once

#include "backend/program.hpp"
#include "machine/simulator.hpp"
#include "search/search.hpp"

namespace spiral::search {

/// Cost = measured wall-clock seconds per transform (best of a few reps)
/// for the sequential fused program of the tree.
[[nodiscard]] CostFn walltime_cost();

/// Cost = simulated cycles for the sequential fused program on `machine`.
[[nodiscard]] CostFn simulated_cost(const machine::MachineConfig& machine);

/// Cost = simulated cycles on `machine` running the *parallel* program:
/// the tree expands the sequential blocks of the multicore CT formula for
/// (p, mu); simulation uses `threads` threads. Drives parallel autotuning.
[[nodiscard]] CostFn simulated_parallel_cost(
    const machine::MachineConfig& machine, idx_t p, idx_t mu);

/// Static-model twin of simulated_parallel_cost: same multicore CT
/// derivation and the same +inf rejection of non-(p*mu)-divisible splits,
/// but priced by analysis::locality instead of the simulator (no
/// access-by-access simulation — static working sets and stack
/// distances). Intended as the `model` argument of DpSearch: rank
/// candidates cheaply, simulator-time only the survivors.
[[nodiscard]] CostFn locality_model_parallel_cost(
    const machine::MachineConfig& machine, idx_t p, idx_t mu);

}  // namespace spiral::search
