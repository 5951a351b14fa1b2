#pragma once

/// \file ldd.hpp
/// LowDiamDecomposition(β) -- Theorem 4.
///
/// Pipeline: build the V_D/V_S guard partition, run MPX Clustering(β)
/// through the kernel, then cut exactly the inter-cluster edges with at
/// least one endpoint in V_S.  The output components have diameter
/// O(log²n/β²) and at most 3β|E| edges are cut **with high probability**
/// (not just in expectation -- the guard is what the paper adds over MPX).

#include <cstdint>
#include <vector>

#include "congest/network.hpp"
#include "graph/graph.hpp"
#include "ldd/mpx.hpp"
#include "ldd/vdvs.hpp"

namespace xd::ldd {

/// Tunables for LowDiamDecomposition.
struct LddParams {
  /// Theorem 4 target: at most beta * |E| cut edges w.h.p., component
  /// diameter O(log²n / beta²).  Internally re-parameterized to beta/3
  /// (the proof of Theorem 4 composes Lemma 13's 3β' bound with β' = β/3).
  double beta = 0.2;
  double K = 2.0;      ///< the paper's "large constant" in b = K ln n / β
  /// Ablation switch: false = plain MPX (cut every inter-cluster edge, only
  /// an in-expectation bound); true = full Theorem 4 pipeline.
  bool use_guard = true;
};

/// Output of LowDiamDecomposition.
struct LddResult {
  /// Dense component id per vertex (the final decomposition V = V_1 ∪ ...).
  std::vector<std::uint32_t> component;
  std::size_t num_components = 0;
  /// Per edge: cut by the decomposition?  (Self-loops never are.)
  std::vector<char> cut_edge;
  std::uint64_t num_cut_edges = 0;
  /// Diagnostics.
  VdVsPartition guard;
  Clustering clustering;
  std::uint64_t rounds = 0;  ///< total simulated rounds for this call
};

/// Runs the full decomposition on net's graph, charging net's ledger.
LddResult low_diameter_decomposition(congest::Network& net,
                                     const LddParams& prm);

/// Largest double-sweep diameter over the decomposition's components
/// (diagnostic the tests hold against the O(log²n/β²) bound).
std::uint32_t max_component_diameter(const Graph& g, const LddResult& result);

}  // namespace xd::ldd
