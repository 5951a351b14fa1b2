// Edge cases across the whole public API: degenerate graphs, boundary
// parameters, and misuse that must fail loudly rather than corrupt a run.

#include <gtest/gtest.h>

#include "core/xd.hpp"
#include "util/check.hpp"

namespace xd {
namespace {

TEST(EdgeCases, DecompositionOfSingleEdge) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  Rng rng(1);
  expander::DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 1;
  congest::RoundLedger ledger;
  const auto res = expander::expander_decomposition(g, prm, rng, ledger);
  const auto report =
      expander::verify_decomposition(g, res, prm.epsilon,
                                     res.schedule.phi_final());
  EXPECT_TRUE(report.is_partition);
  // K2 is an expander; it must survive as one component with no removals.
  EXPECT_EQ(res.num_components, 1u);
  EXPECT_EQ(res.total_removed(), 0u);
}

TEST(EdgeCases, DecompositionOfStar) {
  const Graph g = gen::star(40);
  Rng rng(2);
  expander::DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  congest::RoundLedger ledger;
  const auto res = expander::expander_decomposition(g, prm, rng, ledger);
  EXPECT_TRUE(expander::verify_decomposition(g, res, prm.epsilon,
                                             res.schedule.phi_final())
                  .is_partition);
}

TEST(EdgeCases, DecompositionRejectsDegenerateInputs) {
  Rng rng(3);
  congest::RoundLedger ledger;
  expander::DecompositionParams prm;
  GraphBuilder b(1);
  EXPECT_THROW((void)expander::expander_decomposition(b.build(), prm, rng, ledger),
               CheckError);
  prm.epsilon = 1.5;
  EXPECT_THROW((void)expander::expander_decomposition(gen::cycle(4), prm, rng, ledger),
               CheckError);
  prm.epsilon = 0.3;
  prm.k = 0;
  EXPECT_THROW((void)expander::expander_decomposition(gen::cycle(4), prm, rng, ledger),
               CheckError);
}

TEST(EdgeCases, TriangleEnumerationOnTinyGraphs) {
  Rng rng(4);
  congest::RoundLedger ledger;
  triangle::EnumParams prm;
  // Too few edges to hold a triangle: immediately empty.
  GraphBuilder b(3);
  b.add_edge(0, 1);
  Rng r1(4);
  congest::RoundLedger l1;
  EXPECT_TRUE(triangle::enumerate_congest(b.build(), prm, r1, l1)
                  .triangles.empty());
  // Exactly one triangle.
  Rng r2(4);
  congest::RoundLedger l2;
  const auto res = triangle::enumerate_congest(gen::complete(3), prm, r2, l2);
  ASSERT_EQ(res.triangles.size(), 1u);
  EXPECT_EQ(res.triangles[0], (triangle::Triangle{0, 1, 2}));
}

TEST(EdgeCases, PartitionOnGraphWithLoops) {
  // Graphs already carrying self-loops (e.g. a previous G{S}) must flow
  // through the whole sparse-cut stack.
  GraphBuilder b(8, /*allow_parallel=*/true);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) {
      b.add_edge(i, j);
      b.add_edge(4 + i, 4 + j);
    }
  }
  b.add_edge(0, 4);
  b.add_loops(1, 2).add_loops(6, 1);
  const Graph g = b.build();
  Rng rng(5);
  congest::RoundLedger ledger;
  const auto res = sparsecut::nearly_most_balanced_sparse_cut(
      g, 0.2, sparsecut::Preset::kPractical, rng, ledger);
  if (res.found()) {
    EXPECT_LE(res.conductance, sparsecut::theorem3_conductance_bound(
                                   0.2, g.num_edges(), g.volume(),
                                   sparsecut::Preset::kPractical) +
                                   1e-12);
  }
}

TEST(EdgeCases, LddOnDisconnectedGraph) {
  GraphBuilder b(30);
  for (VertexId v = 0; v < 9; ++v) b.add_edge(v, v + 1);       // path
  for (VertexId v = 10; v < 19; ++v) b.add_edge(v, v + 1);     // path
  for (VertexId i = 20; i < 30; ++i) {
    for (VertexId j = i + 1; j < 30; ++j) b.add_edge(i, j);    // clique
  }
  const Graph g = b.build();
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 7);
  ldd::LddParams prm;
  prm.beta = 0.5;
  const auto res = ldd::low_diameter_decomposition(net, prm);
  // Components never merge across connectivity.
  EXPECT_GE(res.num_components, 3u);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (!res.cut_edge[e]) {
      EXPECT_EQ(res.component[u], res.component[v]);
    }
  }
}

TEST(EdgeCases, RouterWithSelfDemandIsNoop) {
  Rng rng(8);
  const Graph g = gen::random_regular(32, 4, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 8);
  routing::TreeRouter router(net);
  router.preprocess();
  const auto rounds = router.route({routing::Demand{5, 5, 3}});
  EXPECT_EQ(rounds, 1u);  // nothing to move; one idle exchange charged
}

TEST(EdgeCases, MixingTimeOfDisconnectedGraphIsCapped) {
  GraphBuilder b(8);
  b.add_edge(0, 1).add_edge(2, 3);
  const Graph g = b.build();
  // Never mixes: the estimate must hit the cap, not loop forever.
  EXPECT_EQ(spectral::mixing_time_simulated(g, 0.25, 2, 500), 500u);
}

TEST(EdgeCases, VertexSetOnEmptyGround) {
  const VertexSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.complement(0).size(), 0u);
  EXPECT_EQ(VertexSet::all(0).size(), 0u);
}

TEST(EdgeCases, SweepOnAllZeroScores) {
  const Graph g = gen::cycle(5);
  const auto sweep = spectral::sweep_cut(g, std::vector<double>(5, 0.0));
  EXPECT_EQ(sweep.size(), 0u);
  EXPECT_EQ(spectral::best_prefix(sweep), 0u);
}

TEST(EdgeCases, NibbleOnCompleteGraphFindsNothingSparse) {
  const Graph g = gen::complete(20);
  const auto prm =
      sparsecut::NibbleParams::practical(0.05, g.num_edges(), g.volume());
  const auto res = sparsecut::approximate_nibble(g, 0, prm, 3);
  EXPECT_FALSE(res.found());
}

}  // namespace
}  // namespace xd
