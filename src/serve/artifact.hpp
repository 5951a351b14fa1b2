#pragma once

/// \file artifact.hpp
/// Build-once prepared artifacts: the preprocess half of the serving
/// lifecycle (docs/serving.md).
///
/// Every entry point used to rebuild the expander decomposition, the GKS
/// hierarchy summaries, and the triangle tuple plane per call.  The paper's
/// structures are explicitly preprocess-then-query (the §3 routing
/// hierarchy is built once and then answers arbitrary demand streams), so
/// the lifecycle splits here: `prepare_artifact` pays the whole
/// preprocessing cost once and captures the results in an immutable
/// `PreparedArtifact` that a concurrent `QueryService` (service.hpp) then
/// serves from, and that serializes to disk as the versioned `XDA1` binary
/// format (mmap'd loader in the graph/io style; doubles as the fixture
/// format for the --large bench tier).
///
/// The file stores only what cannot be derived:
///   * GRPH -- the ambient graph's edge list, replayed in EdgeId order so
///     the reloaded CSR is bit-identical to the prepared one;
///   * DCMP -- the Theorem 1 decomposition: per-vertex component labels,
///     the removed-edge overlay, Remove-1/2/3 counts;
///   * TRIS -- the flat triangle tuple plane (sorted, deduplicated);
///   * META -- build parameters, seeds, the GKS depth, and the charged
///     round/message totals, so artifact-served answers replay the
///     fresh-build charges.
/// Everything else -- per-component conductance/balance stats, the relay
/// forests (the Lemma 3.4 delivery trees), β = m^{1/k} and portal counts,
/// the triangle incidence index -- is rebuilt by build_index() from those
/// four sections, after prepare and after every load alike.

#include <cstdint>
#include <string>
#include <vector>

#include "expander/params.hpp"
#include "graph/graph.hpp"
#include "triangle/enumerate.hpp"

namespace xd::serve {

/// 'XDA1' little-endian.
inline constexpr std::uint32_t kArtifactMagic = 0x31414458u;
inline constexpr std::uint32_t kArtifactVersion = 2;
/// Largest GKS depth an artifact accepts (the paper's k is a small
/// constant); bounds the derived portal table a META field can demand.
inline constexpr std::uint32_t kMaxRouterDepth = 64;

/// Preprocessing knobs.  The enumeration parameters drive both the
/// decomposition (epsilon, k, phi0) and the triangle plane; `seed` is the
/// build Rng seed (the whole prepare is a pure function of (graph, params),
/// bit-identical at every scheduler thread count).
struct PrepareParams {
  triangle::EnumParams enumerate;
  std::uint64_t seed = 17;
  /// Which Theorem 1 backend preprocesses the serving partition -- which is
  /// also Theorem 2's level 0, so every enumeration level runs it too
  /// (docs/decomposition.md); recorded in META so a reloaded artifact
  /// reports which backend built it.
  expander::DecompositionBackend decomp_backend =
      expander::DecompositionBackend::kNibble;
};

/// Per-component quality and hierarchy summary.
struct ComponentInfo {
  VertexId root = 0;            ///< min-id member; relay forest root
  std::uint32_t size = 0;       ///< vertices
  std::uint64_t volume = 0;     ///< ambient degree sum
  std::uint64_t cut = 0;        ///< boundary edges to other components
  std::uint64_t internal_edges = 0;  ///< live (non-removed) internal edges
  double conductance = 0.0;  ///< cut/min-side volume; inf if one side empty
  double balance = 0.0;         ///< min(vol, total - vol) / total
  std::uint32_t height = 0;     ///< relay forest height
  double beta = 0.0;            ///< GKS beta = internal_edges^{1/depth}
};

/// The immutable prepared state.  Everything queries need -- no rebuild on
/// the hot path.  Instances come from prepare_artifact() or
/// load_artifact(); treat as read-only afterwards (the QueryService shares
/// one across all its workers).
struct PreparedArtifact {
  // ---- GRPH ----
  Graph graph;

  // ---- DCMP ----
  std::vector<std::uint32_t> component;  ///< per vertex
  std::uint32_t num_components = 0;
  std::vector<char> removed_edge;        ///< per ambient edge
  std::uint64_t removed_by[3] = {0, 0, 0};

  // ---- TRIS ----
  std::vector<triangle::Triangle> triangles;  ///< sorted, deduplicated

  // ---- META ----
  double epsilon = 0.0;
  int k = 0;
  double phi0 = 0.0;
  int backend = 0;  ///< triangle::RouterBackend of the build
  /// expander::DecompositionBackend of the build (0 == nibble).
  int decomp_backend = 0;
  std::uint64_t seed = 0;
  std::uint64_t build_rounds = 0;    ///< total charged rounds of the prepare
  std::uint64_t build_messages = 0;
  std::uint64_t enum_rounds = 0;     ///< enumeration-only rounds (golden pin)
  std::uint64_t router_queries = 0;
  std::uint32_t enum_levels = 0;
  std::uint64_t clusters_processed = 0;
  /// GKS k of the hierarchy summary, in [1, kMaxRouterDepth].
  std::uint32_t router_depth = 2;

  // ---- derived by build_index() (not serialized) ----
  std::vector<ComponentInfo> components;
  std::vector<VertexId> relay_parent;      ///< per vertex; root -> itself
  std::vector<std::uint32_t> relay_depth;  ///< hops to the component root
  /// Per-component per-level portal counts, row-major
  /// [component * router_depth + level].
  std::vector<std::uint64_t> portals;
  /// Triangle incidence CSR: triangles touching v are
  /// tri_ids[tri_offsets[v] .. tri_offsets[v+1]), ascending triangle ids.
  std::vector<std::uint32_t> tri_offsets;
  std::vector<std::uint32_t> tri_ids;
  /// Per-component triangle counts (a triangle belongs to its first
  /// vertex's component -- triangles never span components, the removed
  /// overlay cuts them).  The degraded-answer path of the QueryService
  /// serves component-local counts from this when a global answer is out
  /// of budget (docs/robustness.md).
  std::vector<std::uint64_t> comp_triangles;

  /// (Re)builds every derived field above from the stored ones (graph,
  /// decomposition, router_depth, triangles).
  void build_index();

  // ------------------------------------------------------------- queries
  // Read-only, thread-safe once built: the QueryService's parallel phase
  // calls these from any worker.

  [[nodiscard]] std::uint64_t triangle_count() const {
    return triangles.size();
  }

  /// Ids of the triangles incident to v (ascending).
  [[nodiscard]] std::span<const std::uint32_t> triangles_of(VertexId v) const {
    return {tri_ids.data() + tri_offsets[v],
            tri_offsets[v + 1] - tri_offsets[v]};
  }

  /// Is {a, b, c} a listed triangle?  (Order-insensitive.)
  [[nodiscard]] bool has_triangle(VertexId a, VertexId b, VertexId c) const;

  [[nodiscard]] std::uint32_t component_of(VertexId v) const {
    return component[v];
  }

  /// Relay-forest route u -> v (up to the lowest common ancestor, then
  /// down), appended to `path` as a vertex sequence starting at u and
  /// ending at v.  Returns false (path untouched) when u and v live in
  /// different components -- no intra-component route exists.
  [[nodiscard]] bool relay_path(VertexId u, VertexId v,
                                std::vector<VertexId>& path) const;
};

/// Runs the whole preprocessing pipeline on g: Theorem 1 decomposition,
/// per-component stats, relay forests + GKS summaries, and the Theorem 2
/// triangle plane.  The decomposition runs once and serves as Theorem 2's
/// level 0, so build_rounds == enum_rounds.  Deterministic in (g, prm):
/// every scheduler thread count yields a byte-identical artifact.
PreparedArtifact prepare_artifact(const Graph& g, const PrepareParams& prm);

/// Serializes to the XDA1 format.  save(load(save(x))) is byte-identical
/// to save(x).
void save_artifact(const PreparedArtifact& art, const std::string& path);

/// Loads (mmap'd, with streamed fallback) and validates an XDA1 file, then
/// derives the rest via build_index().  Throws CheckError on truncation,
/// bad magic/version, section-table overruns, or inconsistent section
/// payloads (including listed triples that are not triangles of GRPH).
PreparedArtifact load_artifact(const std::string& path);

}  // namespace xd::serve
