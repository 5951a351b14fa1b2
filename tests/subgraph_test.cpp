#include "graph/subgraph.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd {
namespace {

TEST(VertexSet, BasicOps) {
  const VertexSet s{3, 1, 2, 2};
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(s.contains(1));
  EXPECT_FALSE(s.contains(0));

  const VertexSet c = s.complement(5);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.contains(0));
  EXPECT_TRUE(c.contains(4));

  const VertexSet t{2, 4};
  EXPECT_EQ(s.set_union(t).size(), 4u);
  EXPECT_EQ(s.set_intersection(t), (VertexSet{2}));
  EXPECT_EQ(s.set_difference(t), (VertexSet{1, 3}));
}

TEST(VertexSet, BitmapRoundTrip) {
  const VertexSet s{0, 2};
  const auto mask = s.bitmap(4);
  EXPECT_EQ(mask, (std::vector<char>{1, 0, 1, 0}));
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < mask.size(); ++v) {
    if (mask[v]) ids.push_back(v);
  }
  EXPECT_EQ(VertexSet(ids), s);
}

TEST(InducedSubgraph, DropsBoundaryEdges) {
  const Graph g = gen::cycle(6);
  const LiveSubgraph sub = induced_subgraph(g, VertexSet{0, 1, 2});
  EXPECT_EQ(sub.graph.num_vertices(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 0-1, 1-2 survive
  EXPECT_EQ(sub.graph.num_loops(), 0u);
  EXPECT_EQ(sub.to_parent.size(), 3u);
  EXPECT_EQ(sub.from_parent[5], LiveSubgraph::kAbsent);
}

TEST(LoopBoundary, PreservesDegrees) {
  // G{S} keeps deg(v) for every v in S -- the paper's central invariant.
  const Graph g = gen::cycle(6);
  const VertexSet s{0, 1, 2};
  const LiveSubgraph sub = subgraph(g, nullptr, s, Boundary::kLoop);
  for (std::size_t nv = 0; nv < sub.graph.num_vertices(); ++nv) {
    const VertexId pv = sub.to_parent[nv];
    EXPECT_EQ(sub.graph.degree(static_cast<VertexId>(nv)), g.degree(pv));
  }
  // Ends of the arc lost one edge each -> one loop each.
  EXPECT_EQ(sub.graph.num_loops(), 2u);
}

TEST(LoopBoundary, ConductanceRelation) {
  // Φ(G{S}) <= Φ(G[S]) (paper, §1) -- check on a small graph where both
  // are computable exactly.
  Rng rng(1);
  const Graph g = gen::gnp(12, 0.5, rng);
  const VertexSet s{0, 1, 2, 3, 4, 5, 6};
  const auto with_loops = subgraph(g, nullptr, s, Boundary::kLoop);
  const auto plain = induced_subgraph(g, s);
  const double phi_loops = conductance_exact(with_loops.graph);
  const double phi_plain = conductance_exact(plain.graph);
  EXPECT_LE(phi_loops, phi_plain + 1e-12);
}

TEST(LiveSubgraph, RemovalAddsLoopsAtBothEndpoints) {
  const Graph g = gen::path(3);  // edges 0: {0,1}, 1: {1,2}
  std::vector<char> removed(g.num_edges(), 0);
  removed[0] = 1;
  const LiveSubgraph live = live_subgraph(g, removed, VertexSet::all(3));
  const Graph& h = live.graph;
  EXPECT_EQ(h.num_vertices(), 3u);
  EXPECT_EQ(h.num_edges(), 3u);  // 1 surviving + 2 loops
  EXPECT_EQ(h.num_loops(), 2u);
  // Degrees preserved; on the whole vertex set local ids are parent ids.
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(h.degree(v), g.degree(v));
  EXPECT_EQ(h.loops_at(0), 1u);
  EXPECT_EQ(h.loops_at(1), 1u);
}

// A self-loop flagged as removed is a CheckError in both boundary modes.
TEST(FlaggedSelfLoop, ThrowsInLoopMode) {
  GraphBuilder b(2);
  b.add_loops(0, 1).add_edge(0, 1);
  const Graph g = b.build();
  std::vector<char> removed(g.num_edges(), 0);
  removed[0] = 1;  // the loop at 0
  EXPECT_THROW((void)live_subgraph(g, removed, VertexSet{0, 1}), CheckError);
  EXPECT_THROW((void)GraphView(g, &removed, VertexSet{0, 1}).materialize(),
               CheckError);
}

TEST(FlaggedSelfLoop, ThrowsInDropMode) {
  GraphBuilder b(2);
  b.add_loops(0, 1).add_edge(0, 1);
  const Graph g = b.build();
  std::vector<char> removed(g.num_edges(), 0);
  removed[0] = 1;
  EXPECT_THROW((void)subgraph(g, &removed, VertexSet{0, 1}, Boundary::kDrop),
               CheckError);
  EXPECT_THROW(
      (void)GraphView(g, &removed, VertexSet{0, 1}).materialize_induced(),
      CheckError);
}

TEST(ConnectedComponents, CountsAndLabels) {
  GraphBuilder b(6);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(3, 4);
  const Graph g = b.build();
  auto [comp, count] = connected_components(g);
  EXPECT_EQ(count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(comp[0], comp[2]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[3], comp[5]);
}

TEST(LabelSubgraphs, SplitsComponentsCorrectly) {
  GraphBuilder b(5);
  b.add_edge(0, 1).add_edge(2, 3).add_edge(3, 4);
  const Graph g = b.build();
  auto [comp, count] = connected_components(g);
  ASSERT_EQ(count, 2u);
  const std::vector<char> none(g.num_edges(), 0);
  const auto subs = label_subgraphs(g, none, comp, std::vector<char>(count, 1));
  ASSERT_EQ(subs.size(), 2u);
  std::size_t total_vertices = 0;
  std::size_t total_edges = 0;
  for (const auto& sub : subs) {
    total_vertices += sub.graph.num_vertices();
    total_edges += sub.graph.num_edges();
  }
  EXPECT_EQ(total_vertices, 5u);
  EXPECT_EQ(total_edges, 3u);
}

TEST(LabelSubgraphs, SkipsUnwantedLabels) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = b.build();
  const std::vector<char> none(g.num_edges(), 0);
  const auto subs = label_subgraphs(g, none, {0, 0, 1, 1}, {0, 1});
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].graph.num_vertices(), 0u);
  EXPECT_TRUE(subs[0].to_parent.empty());
  EXPECT_EQ(subs[1].to_parent, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(subs[1].graph.num_edges(), 1u);
}

TEST(Subgraph, MappingsRoundTrip) {
  GraphBuilder b(4);
  b.add_edge(0, 2).add_edge(1, 3);
  const Graph g = b.build();
  auto [comp, count] = connected_components(g);
  const std::vector<char> none(g.num_edges(), 0);
  const auto parts =
      label_subgraphs(g, none, comp, std::vector<char>(count, 1));
  for (const auto& part : parts) {
    // Each batch part's to_parent is one label's members, ascending; the
    // single-part builder on them inverts it through from_parent.
    const LiveSubgraph sub = live_subgraph(g, none, VertexSet(part.to_parent));
    EXPECT_EQ(sub.to_parent, part.to_parent);
    for (std::size_t nv = 0; nv < sub.graph.num_vertices(); ++nv) {
      EXPECT_EQ(sub.from_parent[sub.to_parent[nv]], nv);
      EXPECT_EQ(comp[part.to_parent[nv]], comp[part.to_parent[0]]);
    }
  }
  // Edge subgraphs round-trip too, and keep their edges' ids.
  const LiveSubgraph es = edge_subgraph(g, {1, 0});
  EXPECT_EQ(es.to_parent, (std::vector<VertexId>{1, 3, 0, 2}));
  EXPECT_EQ(es.edge_to_parent, (std::vector<EdgeId>{1, 0}));
  for (std::size_t nv = 0; nv < es.graph.num_vertices(); ++nv) {
    EXPECT_EQ(es.from_parent[es.to_parent[nv]], nv);
  }
}

}  // namespace
}  // namespace xd
