#pragma once

/// \file baseline_local.hpp
/// Neighborhood-exchange baseline: every vertex ships its full adjacency
/// list to every neighbor (the obvious LOCAL algorithm, simulated in
/// CONGEST where a list of deg(v) ids costs deg(v) rounds on one edge).
/// Rounds ≈ max degree -- Θ(n) on dense graphs, the foil for Theorem 2's
/// Õ(n^{1/3}) in experiment E4.

#include <cstdint>
#include <vector>

#include "congest/ledger.hpp"
#include "graph/graph.hpp"
#include "triangle/clique_dlp.hpp"

namespace xd::triangle {

/// Runs the baseline on g, charging `ledger`.  Every triangle is reported
/// by each of its vertices; the result is deduplicated.  Detection runs on
/// csr_triangle_join below.
EnumerationResult enumerate_local_baseline(const Graph& g,
                                           congest::RoundLedger& ledger);

/// All triangles v < u < w of a CSR whose per-vertex neighbor lists are
/// sorted, deduplicated, and loop-free (`offsets` has n+1 entries into
/// `adj`).  Appends Triangle{v, u, w} in (v asc, u asc, w asc) order --
/// each triangle exactly once, via its smallest edge (v, u).  Closing-edge
/// searches run on the hybrid intersection kernels (intersect.hpp): the
/// merge kernel per oriented edge, or -- for vertices whose degree clears
/// the bitmap threshold -- one epoch-stamped bitmap of N(v) probed by
/// every N(u).  Output is identical under every kernel/ISA and equals
/// triangles_exact (graph/metrics.hpp) on the same graph.
void csr_triangle_join(const std::uint32_t* offsets, const VertexId* adj,
                       std::size_t n, std::vector<Triangle>& out);

}  // namespace xd::triangle
