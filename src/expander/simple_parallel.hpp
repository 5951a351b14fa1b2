#pragma once

/// \file simple_parallel.hpp
/// The simple/parallel expander-decomposition backend, in the style of
/// Chen, Meierhans, Probst Gutenberg & Saranurak, "Parallel and Distributed
/// Expander Decomposition: Simple, Fast, and Near-Optimal"
/// (arXiv:2410.13451).  Selected via DecompositionParams::backend
/// (docs/decomposition.md); call through expander_decomposition, never
/// this function directly.
///
/// Where the nibble driver (decomposition.cpp) runs the Chang–Saranurak
/// two-phase machinery -- a φ₀..φ_k schedule, a Phase 2 level loop with
/// Remove-3 rip-outs -- this backend keeps one conductance target φ₀ and
/// three steps on the shared driver skeleton (driver.hpp):
///
///   cluster   the skeleton's LDD clustering step (Remove-1 the
///             inter-cluster edges), one certify child per cluster;
///   certify   one nearly-most-balanced sparse cut at φ₀.  No cut means
///             the cluster is a certified expander and becomes final.  A
///             cut is Remove-2'd: the sparse side re-clusters one level
///             deeper, and the large side is *trimmed* -- certified again
///             at the same depth, up to O(log Vol) consecutive trims
///             before it too is sent back to clustering;
///   (merge)   a driver-side εm budget guard: removals are applied at the
///             epoch barrier in item-index order, and an item whose
///             removals would push the total past ⌊ε·|E|⌋ is finalized
///             as-is instead.  That makes the Theorem 1 cut budget
///             unconditional rather than a charging-argument promise.
///
/// The skeleton's determinism discipline makes the partition, overlay, and
/// counters bit-identical at every scheduler thread count, and
/// cross-backend differential testing (cross_check.hpp) pins both drivers
/// against the same contract.

#include "congest/ledger.hpp"
#include "expander/decomposition.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xd::expander::detail {

/// Runs the simple-parallel backend on g, charging `ledger`.  Same output
/// contract as expander_decomposition (which dispatches here when
/// prm.backend == DecompositionBackend::kSimpleParallel).
DecompositionResult simple_parallel_decomposition(const Graph& g,
                                                  const DecompositionParams& prm,
                                                  Rng& rng,
                                                  congest::RoundLedger& ledger);

}  // namespace xd::expander::detail
