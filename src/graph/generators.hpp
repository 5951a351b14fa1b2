#pragma once

/// \file generators.hpp
/// Graph families used throughout the tests and benches:
///  * G(n, p) with p = 1/2 is the triangle-enumeration lower-bound family;
///  * random regular graphs are the expanders (conductance Ω(1) w.h.p.);
///  * dumbbells / planted partitions provide cuts of known conductance and
///    balance for the nearly-most-balanced sparse cut tests;
///  * rings, tori, hypercubes, trees provide known diameters/mixing times
///    for the LDD and mixing tests.

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xd::gen {

/// Simple path 0-1-...-(n-1).  Diameter n-1.
Graph path(std::size_t n);

/// Cycle on n >= 3 vertices.  Conductance Θ(1/n).
Graph cycle(std::size_t n);

/// Complete graph K_n.  Conductance Θ(1).
Graph complete(std::size_t n);

/// Star with one hub and n-1 leaves.
Graph star(std::size_t n);

/// rows x cols grid; `wrap` makes it a torus.  Torus mixing time Θ(n log n)
/// for the square case.
Graph grid(std::size_t rows, std::size_t cols, bool wrap = false);

/// d-dimensional hypercube (2^d vertices).  Conductance Θ(1/d).
Graph hypercube(int dim);

/// Complete binary tree of the given depth (2^{depth+1} - 1 vertices).
Graph binary_tree(int depth);

/// Erdős–Rényi G(n, p): each pair independently an edge.
Graph gnp(std::size_t n, double p, Rng& rng);

/// Random d-regular simple graph via the pairing model with restarts.
/// Requires n * d even and d < n.  An expander w.h.p. for d >= 3.
Graph random_regular(std::size_t n, int d, Rng& rng);

/// Two cliques K_k joined by a path of `bridge_len` extra vertices
/// (bridge_len == 0 joins them by a single edge).  The classic low
/// conductance, perfectly balanced cut.
Graph barbell(std::size_t k, std::size_t bridge_len = 0);

/// Two random d-regular expanders of sizes n1 and n2 joined by
/// `bridge_edges` random cross edges.  Planted sparse cut with conductance
/// about bridge_edges / (d * min(n1, n2)) and balance min-side controlled by
/// n1 : n2.  The workhorse for Theorem 3 experiments.
Graph dumbbell_expanders(std::size_t n1, std::size_t n2, int d,
                         std::size_t bridge_edges, Rng& rng);

/// Stochastic block model: `blocks` equal communities over n vertices,
/// intra-community edge probability p_in, inter p_out.
Graph planted_partition(std::size_t n, int blocks, double p_in, double p_out,
                        Rng& rng);

/// Chain of `count` cliques K_k, consecutive cliques joined by one edge.
/// High diameter with locally dense pieces -- stress case for the LDD.
Graph clique_chain(std::size_t count, std::size_t k);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices.  Skewed degrees for volume-weighted sampling
/// tests.
Graph preferential_attachment(std::size_t n, int attach, Rng& rng);

/// Lollipop: K_k with a path of `tail` vertices hanging off it.  The
/// classic worst case for hitting/mixing times -- the walk bench's slowest
/// family.
Graph lollipop(std::size_t k, std::size_t tail);

/// `count` cliques K_k arranged in a ring, consecutive cliques joined by
/// one edge.  Like clique_chain but vertex-transitive at the cluster
/// level; its optimal expander decomposition is exactly the cliques.
Graph ring_of_cliques(std::size_t count, std::size_t k);

/// Watts–Strogatz small world: ring lattice with 2`k` neighbors per
/// vertex, each edge rewired with probability `p`.  Interpolates between
/// the high-diameter lattice (p = 0) and an expander-like graph (p ~ 1).
Graph watts_strogatz(std::size_t n, int k, double p, Rng& rng);

}  // namespace xd::gen
