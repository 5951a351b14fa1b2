#pragma once

/// \file enumerate.hpp
/// Theorem 2: triangle enumeration in Õ(n^{1/3}) CONGEST rounds.
///
/// Per recursion level:
///   1. expander-decompose the surviving edge set (ε <= 1/6) -- at level 0
///      that is the input graph itself, so a caller that already holds its
///      Theorem 1 decomposition (the serving partition) can hand it in;
///   2. preprocess a router per cluster (constant-depth GKS structure:
///      o(n^{1/3}) preprocessing, polylog queries -- the §3 observation
///      that lifts 2^{O(√log n)} to polylog);
///   3. run the clustered enumeration on every cluster's E_i;
///   4. recurse on E* = the inter-cluster edges (every triangle not yet
///      reported has all three edges there); |E*| <= ε|E| halves the work,
///      so O(log m) levels suffice.

#include <cstdint>
#include <vector>

#include "congest/ledger.hpp"
#include "expander/params.hpp"
#include "graph/graph.hpp"
#include "triangle/clique_dlp.hpp"
#include "util/rng.hpp"

namespace xd::expander {
struct DecompositionResult;
}  // namespace xd::expander

namespace xd::triangle {

/// Per-cluster router backend (docs/routing.md):
///   kCharged        -- HierarchicalRouter, the GKS cost model (charges the
///                      §3 formulas with a measured τ_mix);
///   kTree           -- TreeRouter, fully simulated store-and-forward over
///                      O(log n) random BFS trees;
///   kHierarchicalSim - SimulatedHierarchicalRouter, the fully simulated
///                      GKS hierarchy (portal embedding + relay delivery on
///                      the round engine).
enum class RouterBackend { kCharged, kTree, kHierarchicalSim };

/// Knobs for the CONGEST enumeration.
struct EnumParams {
  /// Decomposition budget; the CPZ recursion needs <= 1/6.
  double epsilon = 1.0 / 6.0;
  /// Decomposition level count (Theorem 1's k).
  int k = 2;
  /// φ₀ override for the decomposition (0 = derived; see
  /// DecompositionParams::phi0_override).
  double phi0_override = 0.05;
  /// Which router serves each cluster's DLP traffic.
  RouterBackend backend = RouterBackend::kCharged;
  /// GKS depth parameter (constant, per §3; both hierarchical backends).
  int router_depth = 2;
  /// Concurrent cluster scheduler (scheduler.hpp), forwarded to the
  /// per-level expander decomposition as well.  0 = sequential: clusters
  /// run one after another and their rounds SUM.  >= 1 = the level's
  /// clusters run concurrently on that many host threads with forked
  /// ledger branches joined by MAX (the one-network composition Theorem 2
  /// charges; docs/rounds.md).  The triangle list is bit-identical across
  /// all settings.
  int scheduler_threads = 0;
};

/// Result of the CONGEST enumeration.
struct CongestEnumResult {
  std::vector<Triangle> triangles;  ///< deduplicated, sorted
  std::uint64_t rounds = 0;
  int levels = 0;
  std::uint64_t clusters_processed = 0;
  std::uint64_t router_queries = 0;
};

/// Fork id of the level-0 decomposition stream: level 0 decomposes g with
/// rng.fork(kLevel0Stream), which leaves the caller's stream untouched.
inline constexpr std::uint64_t kLevel0Stream = 0xD5C0;

/// The Theorem 1 parameters every recursion level decomposes with.
expander::DecompositionParams decomposition_params(
    const EnumParams& prm, expander::DecompositionBackend backend =
                               expander::DecompositionBackend::kNibble);

/// Runs the Theorem 2 algorithm on g, charging `ledger`.
///
/// `level0`, when given, is the level-0 decomposition of g itself --
/// expander_decomposition(g, decomposition_params(prm, level0->backend),
/// rng.fork(kLevel0Stream), ...) -- computed and charged by the caller.  It
/// is used as is: its rounds count toward the result's `rounds` but are
/// not charged to `ledger` again, and levels >= 1 decompose with its
/// backend.  With a nibble `level0` on a graph of >= 3 non-loop edges the
/// result equals that of a call without `level0`.
CongestEnumResult enumerate_congest(
    const Graph& g, const EnumParams& prm, Rng& rng,
    congest::RoundLedger& ledger,
    const expander::DecompositionResult* level0 = nullptr);

}  // namespace xd::triangle
