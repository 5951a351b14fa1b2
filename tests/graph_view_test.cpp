// GraphView: the zero-copy G{U} overlay must be observationally equivalent
// to the one subgraph builder (live_subgraph / subgraph) under the monotone
// renumbering, the builder's batch entry must match its single-part entry,
// and the paths that promise to stay view-only must build no intermediate
// CSR (GraphBuilder::total_builds hook).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "core/xd.hpp"
#include "util/check.hpp"

namespace xd {
namespace {

Graph make_family(const std::string& family, std::size_t n, Rng& rng) {
  if (family == "gnp_sparse") {
    return gen::gnp(n, 6.0 / static_cast<double>(n), rng);
  }
  if (family == "gnp_dense") return gen::gnp(n, 0.3, rng);
  if (family == "regular") return gen::random_regular(n - n % 2, 4, rng);
  if (family == "cliques") {
    return gen::ring_of_cliques(std::max<std::size_t>(n / 6, 2), 6);
  }
  XD_CHECK_MSG(false, "unknown family " << family);
  return {};
}

/// A random active set plus a random removal overlay (non-loop edges only).
struct Overlay {
  VertexSet active;
  std::vector<char> removed;
};

Overlay random_overlay(const Graph& g, Rng& rng, double keep_vertex,
                       double remove_edge) {
  Overlay out;
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.next_bool(keep_vertex)) ids.push_back(v);
  }
  if (ids.empty()) ids.push_back(0);
  out.active = VertexSet(std::move(ids));
  out.removed.assign(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.is_loop(e) && rng.next_bool(remove_edge)) out.removed[e] = 1;
  }
  return out;
}

/// Multiset of neighbor reads per vertex, as sorted vectors.
std::vector<VertexId> neighbor_multiset(const Graph& g, VertexId v) {
  auto nbrs = g.neighbors(v);
  std::vector<VertexId> out(nbrs.begin(), nbrs.end());
  std::sort(out.begin(), out.end());
  return out;
}

template <typename ViewLike>
std::vector<VertexId> view_neighbor_multiset(const ViewLike& view, VertexId v) {
  std::vector<VertexId> out;
  for (VertexId u : view.neighbors(v)) out.push_back(u);
  std::sort(out.begin(), out.end());
  return out;
}

using GridParam = std::tuple<std::string, std::size_t, int>;

class GraphViewEquivalence : public ::testing::TestWithParam<GridParam> {};

// GraphView(g, removed, U) ≡ live_subgraph(g, removed, U): degrees,
// volume, |E| splits, loop counts, and neighbor multisets all match under
// the to_parent/from_parent renumbering.
TEST_P(GraphViewEquivalence, MatchesLiveSubgraph) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Graph g = make_family(family, n, rng);
  const Overlay ov = random_overlay(g, rng, 0.6, 0.15);

  const GraphView view(g, &ov.removed, ov.active);
  const LiveSubgraph live = live_subgraph(g, ov.removed, ov.active);

  ASSERT_EQ(view.num_active(), live.graph.num_vertices());
  EXPECT_EQ(view.volume(), live.graph.volume());
  EXPECT_EQ(view.num_edges(), live.graph.num_edges());
  EXPECT_EQ(view.num_nonloop_edges(), live.graph.num_nonloop_edges());
  EXPECT_EQ(view.num_loops(), live.graph.num_loops());

  for (VertexId lv = 0; lv < live.graph.num_vertices(); ++lv) {
    const VertexId pv = live.to_parent[lv];
    EXPECT_TRUE(view.active(pv));
    ASSERT_EQ(view.degree(pv), live.graph.degree(lv));
    EXPECT_EQ(view.loops_at(pv), live.graph.loops_at(lv));

    // Neighbor multisets agree after mapping local -> parent.
    std::vector<VertexId> local = neighbor_multiset(live.graph, lv);
    for (VertexId& x : local) x = live.to_parent[x];
    std::sort(local.begin(), local.end());
    EXPECT_EQ(view_neighbor_multiset(view, pv), local);
  }

  // Inactive vertices read as absent: degree 0, empty neighbors.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (view.active(v)) continue;
    EXPECT_EQ(view.degree(v), 0u);
    EXPECT_EQ(view.neighbors(v).size(), 0u);
  }
}

// GraphView ≡ the loop-mode builder when nothing is removed.
TEST_P(GraphViewEquivalence, MatchesLoopBuilderWithoutRemovals) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 777);
  const Graph g = make_family(family, n, rng);
  const Overlay ov = random_overlay(g, rng, 0.5, 0.0);

  const GraphView view(g, nullptr, ov.active);
  const LiveSubgraph sub = subgraph(g, nullptr, ov.active, Boundary::kLoop);

  ASSERT_EQ(view.num_active(), sub.graph.num_vertices());
  EXPECT_EQ(view.volume(), sub.graph.volume());
  EXPECT_EQ(view.num_edges(), sub.graph.num_edges());
  EXPECT_EQ(view.num_nonloop_edges(), sub.graph.num_nonloop_edges());
  for (VertexId lv = 0; lv < sub.graph.num_vertices(); ++lv) {
    const VertexId pv = sub.to_parent[lv];
    ASSERT_EQ(view.degree(pv), sub.graph.degree(lv));
    EXPECT_EQ(view.loops_at(pv), sub.graph.loops_at(lv));
  }
}

std::vector<std::pair<VertexId, VertexId>> edge_list(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) out.push_back(g.edge(e));
  return out;
}

// Every part of the batch entry equals the single-part builder on that
// label's members bit for bit (verify_decomposition relies on this), over
// random label and removal overlays.
TEST_P(GraphViewEquivalence, BatchPartsEqualSinglePart) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 4242);
  const Graph g = make_family(family, n, rng);
  const Overlay ov = random_overlay(g, rng, 1.0, 0.15);
  const std::uint32_t num_labels = 5;
  std::vector<std::uint32_t> label(g.num_vertices());
  for (auto& l : label) {
    l = static_cast<std::uint32_t>(rng.next_below(num_labels));
  }
  std::vector<char> wanted(num_labels, 1);
  wanted[rng.next_below(num_labels)] = 0;

  const auto parts = label_subgraphs(g, ov.removed, label, wanted);
  ASSERT_EQ(parts.size(), num_labels);
  for (std::uint32_t c = 0; c < num_labels; ++c) {
    if (!wanted[c]) {
      EXPECT_TRUE(parts[c].to_parent.empty());
      EXPECT_EQ(parts[c].graph.num_vertices(), 0u);
      continue;
    }
    std::vector<VertexId> members;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (label[v] == c) members.push_back(v);
    }
    const LiveSubgraph single =
        live_subgraph(g, ov.removed, VertexSet(std::move(members)));
    EXPECT_EQ(parts[c].to_parent, single.to_parent) << "label " << c;
    EXPECT_EQ(parts[c].edge_to_parent, single.edge_to_parent) << "label " << c;
    EXPECT_EQ(parts[c].graph.num_vertices(), single.graph.num_vertices());
    EXPECT_EQ(edge_list(parts[c].graph), edge_list(single.graph))
        << "label " << c;
    EXPECT_TRUE(parts[c].from_parent.empty());
  }
}

// Generic metrics and components on the view equal their values on the
// materialized twin (after id mapping).
TEST_P(GraphViewEquivalence, MetricsAndComponentsAgree) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 99);
  const Graph g = make_family(family, n, rng);
  const Overlay ov = random_overlay(g, rng, 0.8, 0.2);

  const GraphView view(g, &ov.removed, ov.active);
  const LiveSubgraph live = live_subgraph(g, ov.removed, ov.active);

  EXPECT_EQ(diameter_double_sweep(view), diameter_double_sweep(live.graph));

  // Components agree as partitions (same dense ids by first-vertex order).
  const auto [vcomp, vcount] = connected_components(view);
  const auto [lcomp, lcount] = connected_components(live.graph);
  ASSERT_EQ(vcount, lcount);
  for (VertexId lv = 0; lv < live.graph.num_vertices(); ++lv) {
    EXPECT_EQ(vcomp[live.to_parent[lv]], lcomp[lv]);
  }

  // A random cut set: volume / cut size / conductance match after mapping.
  std::vector<VertexId> view_ids, local_ids;
  for (VertexId lv = 0; lv < live.graph.num_vertices(); ++lv) {
    if (rng.next_bool(0.5)) {
      local_ids.push_back(lv);
      view_ids.push_back(live.to_parent[lv]);
    }
  }
  const VertexSet vs(std::move(view_ids));
  const VertexSet ls(std::move(local_ids));
  EXPECT_EQ(volume(view, vs), volume(live.graph, ls));
  EXPECT_EQ(cut_size(view, vs), cut_size(live.graph, ls));
  EXPECT_EQ(conductance(view, vs), conductance(live.graph, ls));
}

// Nested restriction == direct view of the intersection.
TEST_P(GraphViewEquivalence, RestrictionComposes) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 12);
  const Graph g = make_family(family, n, rng);
  const Overlay ov = random_overlay(g, rng, 0.8, 0.1);

  const GraphView outer(g, &ov.removed, ov.active);
  std::vector<VertexId> subset;
  for (VertexId v : outer.vertices()) {
    if (rng.next_bool(0.6)) subset.push_back(v);
  }
  if (subset.empty()) subset.push_back(outer.vertices().front());
  const VertexSet w(std::move(subset));

  const GraphView narrowed = restrict_view(outer, w);
  const GraphView direct(g, &ov.removed, w);
  EXPECT_EQ(narrowed.volume(), direct.volume());
  EXPECT_EQ(narrowed.num_edges(), direct.num_edges());
  EXPECT_EQ(narrowed.num_nonloop_edges(), direct.num_nonloop_edges());
  for (VertexId v : direct.vertices()) {
    EXPECT_EQ(view_neighbor_multiset(narrowed, v),
              view_neighbor_multiset(direct, v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GraphViewEquivalence,
    ::testing::Combine(::testing::Values("gnp_sparse", "gnp_dense", "regular",
                                         "cliques"),
                       ::testing::Values(std::size_t{24}, std::size_t{64}),
                       ::testing::Values(1, 2, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// The builder's exact output, pinned by hand in both boundary modes, on a
// multigraph with an ambient loop (edge 1), a parallel pair (2, 3), a
// removed edge (4) and a boundary edge (5), over U = {1, 2, 4}: local
// ids 0, 1, 2.  Loop mode appends each member's substitution loops after
// its slots; drop mode emits only the surviving edges, in the same order.
TEST(SubgraphBuilder, PinnedFixtureBothModes) {
  GraphBuilder b(6, /*allow_parallel=*/true);
  b.add_edge(1, 2);  // 0
  b.add_edge(2, 2);  // 1: ambient loop
  b.add_edge(2, 4);  // 2
  b.add_edge(2, 4);  // 3: parallel to 2
  b.add_edge(1, 4);  // 4: removed
  b.add_edge(4, 5);  // 5: boundary (5 outside U)
  b.add_edge(5, 0);  // 6: outside U
  const Graph g = b.build();
  std::vector<char> removed(g.num_edges(), 0);
  removed[4] = 1;
  const VertexSet u{1, 2, 4};
  const GraphView view(g, &removed, u);

  using Edges = std::vector<std::pair<VertexId, VertexId>>;
  constexpr EdgeId kNo = LiveSubgraph::kNoEdge;
  constexpr VertexId kAbs = LiveSubgraph::kAbsent;
  const std::vector<VertexId> to_parent{1, 2, 4};
  const std::vector<VertexId> from_parent{kAbs, 0, 1, kAbs, 2, kAbs};

  const auto expect_loop_mode = [&](const LiveSubgraph& loop) {
    EXPECT_EQ(edge_list(loop.graph),
              (Edges{{0, 1}, {0, 0}, {1, 1}, {1, 2}, {1, 2}, {2, 2}, {2, 2}}));
    EXPECT_EQ(loop.edge_to_parent,
              (std::vector<EdgeId>{0, kNo, 1, 2, 3, kNo, kNo}));
    EXPECT_EQ(loop.to_parent, to_parent);
    EXPECT_EQ(loop.from_parent, from_parent);
    for (VertexId lv = 0; lv < 3; ++lv) {
      EXPECT_EQ(loop.graph.degree(lv), g.degree(to_parent[lv]));
    }
  };
  expect_loop_mode(live_subgraph(g, removed, u));
  expect_loop_mode(view.materialize());

  const auto expect_drop_mode = [&](const LiveSubgraph& drop) {
    EXPECT_EQ(edge_list(drop.graph), (Edges{{0, 1}, {1, 1}, {1, 2}, {1, 2}}));
    EXPECT_EQ(drop.edge_to_parent, (std::vector<EdgeId>{0, 1, 2, 3}));
    EXPECT_EQ(drop.to_parent, to_parent);
    EXPECT_EQ(drop.from_parent, from_parent);
  };
  expect_drop_mode(subgraph(g, &removed, u, Boundary::kDrop));
  expect_drop_mode(view.materialize_induced());
}

// The Nibble stack on a view is value-identical to the same stack on the
// materialized graph (ids mapped): the decomposition's bit-identity rests
// on exactly this.
TEST(GraphViewNibble, ViewRunEqualsMaterializedRun) {
  Rng grng(2024);
  const Graph g = gen::planted_partition(96, 3, 0.4, 0.02, grng);
  Rng orng(7);
  const Overlay ov = random_overlay(g, orng, 0.75, 0.1);

  const GraphView view(g, &ov.removed, ov.active);
  const LiveSubgraph live = live_subgraph(g, ov.removed, ov.active);
  ASSERT_GT(view.volume(), 0u);

  const auto prm = sparsecut::NibbleParams::practical(
      0.05, std::max<std::size_t>(view.num_edges(), 1), view.volume());

  Rng rng_view(31337);
  Rng rng_mat(31337);
  congest::RoundLedger ledger_view, ledger_mat;
  const auto pr_view =
      sparsecut::partition(view, prm, rng_view, ledger_view, std::nullopt);
  const auto pr_mat = sparsecut::partition(live.graph, prm, rng_mat,
                                           ledger_mat, std::nullopt);

  EXPECT_EQ(pr_view.iterations, pr_mat.iterations);
  EXPECT_EQ(pr_view.rounds, pr_mat.rounds);
  EXPECT_EQ(ledger_view.rounds(), ledger_mat.rounds());
  EXPECT_EQ(pr_view.conductance, pr_mat.conductance);
  EXPECT_EQ(pr_view.balance, pr_mat.balance);

  // Cuts map onto each other through the renumbering.
  std::vector<VertexId> mapped;
  for (VertexId lv : pr_mat.cut) mapped.push_back(live.to_parent[lv]);
  EXPECT_EQ(pr_view.cut, VertexSet(std::move(mapped)));
}

// Regression: a decomposition whose parts all meet the LDD diameter bound
// (practical preset skips the MPX call) must stay entirely view-only -- no
// intermediate Graph may be materialized anywhere in the driver, the
// sparse-cut stack, or the final component assembly.
TEST(GraphViewZeroCopy, DecompositionViewOnlyPathBuildsNoGraph) {
  Rng grng(5150);
  const Graph g = gen::gnp(160, 0.12, grng);  // diameter ~2: LDD skipped

  expander::DecompositionParams prm;
  prm.epsilon = 0.25;
  prm.k = 2;
  Rng rng(42);
  congest::RoundLedger ledger;

  const std::uint64_t builds_before = GraphBuilder::total_builds();
  const auto res = expander::expander_decomposition(g, prm, rng, ledger);
  const std::uint64_t builds_after = GraphBuilder::total_builds();

  EXPECT_EQ(builds_after, builds_before)
      << "the view-only decomposition path materialized a Graph";
  EXPECT_GE(res.num_components, 1u);
}

// And the counter does move when materialization is genuinely required
// (paper preset always runs the LDD through the CONGEST kernel).
TEST(GraphViewZeroCopy, PaperModeStillMaterializesAtNetworkBoundary) {
  // Paper mode skips the diameter probe, so both backends run their
  // clustering step through the LDD's Network on a materialized G{U} --
  // the only test input that drives the simple-parallel LDD branch.  The
  // pins hold the two backends to the same partition and round count.
  Rng grng(99);
  const Graph g = gen::gnp(40, 0.2, grng);

  for (const auto backend : {expander::DecompositionBackend::kNibble,
                             expander::DecompositionBackend::kSimpleParallel}) {
    expander::DecompositionParams prm;
    prm.epsilon = 0.25;
    prm.k = 2;
    prm.preset = expander::Preset::kPaper;
    prm.backend = backend;
    Rng rng(7);
    congest::RoundLedger ledger;

    const std::uint64_t builds_before = GraphBuilder::total_builds();
    const auto res = expander::expander_decomposition(g, prm, rng, ledger);
    EXPECT_GT(GraphBuilder::total_builds(), builds_before)
        << expander::to_string(backend);
    EXPECT_EQ(ledger.rounds_for("LDD/mpx"), 92960u)
        << expander::to_string(backend);
    EXPECT_EQ(expander::partition_fingerprint(res), 10833787877845357519ull)
        << expander::to_string(backend);
    EXPECT_EQ(res.rounds, 302454748960ull) << expander::to_string(backend);
  }
}

}  // namespace
}  // namespace xd
