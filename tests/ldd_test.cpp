#include "ldd/ldd.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <iostream>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "ldd/neighborhood.hpp"
#include "util/check.hpp"

namespace xd::ldd {
namespace {

using congest::Network;
using congest::RoundLedger;

TEST(Mpx, ClustersEveryVertexAndClustersAreConnected) {
  Rng rng(1);
  const Graph g = gen::gnp(150, 0.05, rng);
  RoundLedger ledger;
  Network net(g, ledger, 7);
  const Clustering c = mpx_clustering(net, 0.3, "mpx");

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_NE(c.center[v], static_cast<VertexId>(-1));
    EXPECT_GE(c.joined_epoch[v], 1u);
  }
  // Centers belong to their own cluster.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(c.center[c.center[v]], c.center[v]);
  }
  // Connectivity: every non-center vertex has a neighbor in its cluster
  // that joined strictly earlier.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (c.center[v] == v) continue;
    bool has_earlier = false;
    for (VertexId u : g.neighbors(v)) {
      if (u != v && c.center[u] == c.center[v] &&
          c.joined_epoch[u] < c.joined_epoch[v]) {
        has_earlier = true;
      }
    }
    EXPECT_TRUE(has_earlier) << "vertex " << v;
  }
}

TEST(Mpx, RoundsAreEpochBounded) {
  Rng rng(2);
  const Graph g = gen::random_regular(200, 4, rng);
  RoundLedger ledger;
  Network net(g, ledger, 9);
  const double beta = 0.25;
  const Clustering c = mpx_clustering(net, beta, "mpx");
  EXPECT_EQ(c.epochs, static_cast<std::uint32_t>(
                          std::ceil(2.0 * std::log(200.0) / beta)));
  EXPECT_GE(ledger.rounds(), c.epochs);
  EXPECT_LE(ledger.rounds(), c.epochs + 3);
}

TEST(Mpx, ClusterRadiusBounded) {
  Rng rng(3);
  const Graph g = gen::grid(20, 20);
  RoundLedger ledger;
  Network net(g, ledger, 11);
  const double beta = 0.3;
  const Clustering c = mpx_clustering(net, beta, "mpx");
  // Radius <= 2 ln n / beta: joined_epoch - center's start >= depth, and
  // every join chain starts at a center, so depth <= epochs always; check
  // the measured radius against the theory bound via BFS from centers.
  const double bound = 4.0 * std::log(400.0) / beta;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto dist = bfs_distances(g, c.center[v]);
    EXPECT_LE(dist[v], bound);
  }
}

TEST(Mpx, Lemma12CutProbability) {
  // Lemma 12 bounds each edge's cut probability by 2β, so the mean cut
  // fraction over seeds must stay within 2β.  A single seed may exceed it
  // (0.286 at β = 0.1 on regular(1500,4)), so only the mean is asserted.
  const auto mean_cut_fraction = [](const Graph& g, double beta, int trials,
                                    std::uint64_t seed0) {
    double total_fraction = 0;
    for (int s = 0; s < trials; ++s) {
      RoundLedger ledger;
      Network net(g, ledger, seed0 + s);
      const Clustering c = mpx_clustering(net, beta, "mpx");
      total_fraction += static_cast<double>(c.inter_cluster_edges(g)) /
                        static_cast<double>(g.num_edges());
    }
    return total_fraction / trials;
  };
  Rng r300(4);
  const Graph g300 = gen::random_regular(300, 4, r300);
  EXPECT_LE(mean_cut_fraction(g300, 0.15, 10, 100), 2.0 * 0.15);
  Rng r1500 = Rng(2026).fork(5);
  const Graph g1500 = gen::random_regular(1500, 4, r1500);
  for (const double beta : {0.1, 0.2, 0.4}) {
    EXPECT_LE(mean_cut_fraction(g1500, beta, 20, 1000), 2.0 * beta)
        << "beta=" << beta;
  }
}

TEST(BallEdgeCount, MatchesBruteForce) {
  Rng rng(5);
  const Graph g = gen::gnp(40, 0.1, rng);
  for (VertexId v = 0; v < 10; ++v) {
    for (std::uint32_t r : {0u, 1u, 2u, 3u}) {
      // Brute force: all edges with both endpoints within distance r.
      const auto dist = bfs_distances(g, v);
      std::uint64_t expect = 0;
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const auto [x, y] = g.edge(e);
        if (dist[x] <= r && dist[y] <= r) ++expect;
      }
      EXPECT_EQ(ball_edge_count(g, v, r, 1u << 30), expect)
          << "v=" << v << " r=" << r;
    }
  }
}

TEST(BallEdgeCount, CapShortCircuits) {
  const Graph g = gen::complete(30);
  EXPECT_EQ(ball_edge_count(g, 0, 2, 10), 11u);  // cap+1 signals overflow
}

TEST(BallEdgeCount, CountsLoopsInsideBall) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_loops(1, 2);
  const Graph g = b.build();
  EXPECT_EQ(ball_edge_count(g, 0, 1, 100), 3u);  // {0,1} + two loops at 1
  EXPECT_EQ(ball_edge_count(g, 0, 2, 100), 4u);
}

TEST(ThresholdTest, SeparatesSparseAndDenseBalls) {
  // Star center has a huge 1-ball; leaves of a long path have tiny ones.
  GraphBuilder b(64);
  for (VertexId v = 1; v < 32; ++v) b.add_edge(0, v);  // star of 31 edges
  for (VertexId v = 32; v + 1 < 64; ++v) b.add_edge(v, v + 1);  // path
  b.add_edge(31, 32);  // connect halves far from both probes
  b.add_edge(0, 33);
  const Graph g = b.build();
  Rng rng(6);
  congest::RoundLedger ledger;
  const auto bit = ball_threshold_test(g, 1, 10.0, 0.5, 20.0, rng, ledger);
  EXPECT_EQ(bit[0], 0);   // |E(N^1(0))| = 33 >= 15
  EXPECT_EQ(bit[60], 1);  // tiny path ball
  EXPECT_GT(ledger.rounds_for("LDD/Lemma14-gather"), 0u);
}

TEST(BallEdgeEstimate, WithinFactorOnSmallGraph) {
  Rng rng(7);
  const Graph g = gen::gnp(60, 0.15, rng);
  congest::RoundLedger ledger;
  const double f = 0.25;
  const auto est = ball_edge_estimate(g, 2, f, 20.0, rng, ledger);
  // w.h.p. |E(N^d(v))| ∈ [m_v/(1+f), (1+f) m_v]; allow one extra (1+f) of
  // small-sample slack.
  const double slack = (1.0 + f) * (1.0 + f);
  for (VertexId v = 0; v < g.num_vertices(); v += 7) {
    const auto exact = ball_edge_count(g, v, 2, 1u << 30);
    if (exact == 0) continue;
    EXPECT_LE(est[v], slack * static_cast<double>(exact));
    EXPECT_GE(est[v] * slack, static_cast<double>(exact));
  }
}

TEST(VdVs, LowDiameterGraphBecomesAllVd) {
  // On an expander, a = 5 ln n / beta exceeds the diameter, so every ball
  // is the whole graph and everything is dense.
  Rng rng(8);
  const Graph g = gen::random_regular(100, 6, rng);
  congest::RoundLedger ledger;
  const auto part = build_vd_vs(g, 0.3, 2.0, ledger);
  std::size_t vd = 0;
  for (char c : part.in_vd) vd += c;
  EXPECT_EQ(vd, g.num_vertices());
}

TEST(VdVs, CycleIsAllVs) {
  // On a long cycle every radius-a ball has only O(a) = O(|E|/b) edges
  // when n >> a*b, so no vertex seeds V_D.
  const Graph g = gen::cycle(3000);
  congest::RoundLedger ledger;
  const auto part = build_vd_vs(g, 0.9, 1.0, ledger);
  std::size_t vd = 0;
  for (char c : part.in_vd) vd += c;
  EXPECT_EQ(vd, 0u);
  EXPECT_EQ(part.seed_vertices, 0u);
}

TEST(VdVs, ComponentsFarApart) {
  // Two dense cliques joined by a very long path: each clique seeds V_D;
  // after growth, distinct V_D components must be > a apart.
  GraphBuilder b(220);
  for (VertexId i = 0; i < 10; ++i) {
    for (VertexId j = i + 1; j < 10; ++j) {
      b.add_edge(i, j);
      b.add_edge(210 + i, 210 + j);
    }
  }
  for (VertexId v = 9; v < 210; ++v) b.add_edge(v, v + 1);
  const Graph g = b.build();
  congest::RoundLedger ledger;
  const auto part = build_vd_vs(g, 0.9, 1.0, ledger);

  // Collect V_D components and check pairwise distance > a.
  std::vector<VertexId> vd_ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (part.in_vd[v]) vd_ids.push_back(v);
  }
  if (vd_ids.empty()) GTEST_SKIP() << "no dense seeds at this scale";
  const VertexSet vd(std::move(vd_ids));
  const LiveSubgraph sub = induced_subgraph(g, vd);
  auto [comp, count] = connected_components(sub.graph);
  if (count < 2) return;  // merged into one: fine
  // For each pair of components measure distance in g.
  for (VertexId u = 0; u < sub.graph.num_vertices(); ++u) {
    const auto dist = bfs_distances(g, sub.to_parent[u]);
    for (VertexId w = 0; w < sub.graph.num_vertices(); ++w) {
      if (comp[u] != comp[w]) {
        EXPECT_GT(dist[sub.to_parent[w]], part.a);
      }
    }
  }
}

// Theorem 4 on one run: at most β|E| cut edges, and every component's
// diameter within O(log² n / β²) at the explicit constant 150, which
// absorbs the internal β/3 (16 * 9 = 144, rounded up).
void expect_theorem4(const Graph& g, double beta, const LddResult& res) {
  const double logn = std::log(static_cast<double>(g.num_vertices()));
  EXPECT_LE(max_component_diameter(g, res),
            150.0 * logn * logn / (beta * beta));
  EXPECT_LE(res.num_cut_edges,
            static_cast<std::uint64_t>(beta * g.num_edges()));
}

class LddTheorem4 : public ::testing::TestWithParam<int> {};

TEST_P(LddTheorem4, GuaranteesOnCycle) {
  // The cycle stresses the diameter guarantee: at n = 20000, β = 0.9, K = 1
  // every ball is sparse (2a < |E|/b at the internal β/3), all vertices
  // land in V_S, and MPX must actually chop the cycle.
  const int seed = GetParam();
  const Graph g = gen::cycle(20000);
  RoundLedger ledger;
  Network net(g, ledger, static_cast<std::uint64_t>(seed));
  LddParams prm;
  prm.beta = 0.9;
  prm.K = 1.0;
  const LddResult res = low_diameter_decomposition(net, prm);
  expect_theorem4(g, prm.beta, res);
  EXPECT_GT(res.num_components, 1u);
  // Every vertex sparse: the guard never seeds V_D at this scale.
  EXPECT_EQ(res.guard.seed_vertices, 0u);
}

TEST_P(LddTheorem4, GuaranteesOnTorus) {
  const int seed = GetParam();
  const Graph g = gen::grid(40, 40, /*wrap=*/true);
  RoundLedger ledger;
  Network net(g, ledger, static_cast<std::uint64_t>(seed) + 50);
  LddParams prm;
  prm.beta = 0.3;
  expect_theorem4(g, prm.beta, low_diameter_decomposition(net, prm));
}

TEST_P(LddTheorem4, GuaranteesAcrossFamiliesAndBeta) {
  // An expander, a chain of cliques (diameter ~300), a complete binary
  // tree and a 64x64 torus, each at three β with K = 1.  At these sizes
  // every radius-a ball holds the whole graph, so the guard marks all of
  // V dense, keeps each family whole, and the diameter bound applies to
  // the graph itself.
  const int seed = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 2026);
  const std::vector<Graph> families = {
      gen::random_regular(2000, 6, rng), gen::clique_chain(150, 8),
      gen::binary_tree(12), gen::grid(64, 64, /*wrap=*/true)};
  for (const Graph& g : families) {
    for (const double beta : {0.3, 0.6, 0.9}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << g.num_vertices() << " beta=" << beta);
      RoundLedger ledger;
      Network net(g, ledger, static_cast<std::uint64_t>(seed) + 11);
      LddParams prm;
      prm.beta = beta;
      prm.K = 1.0;
      expect_theorem4(g, beta, low_diameter_decomposition(net, prm));
    }
  }
}

TEST_P(LddTheorem4, GuaranteesOnBarbellWithSparseBridge) {
  // Both sides of the guard at K = 2: at β = 0.9 (a = 177, b = 71 at the
  // internal β/3) each K_40 end and the bridge within ~a of it are dense,
  // while a bridge vertex far from both ends sees 2a = 354 ball edges
  // against |E|/(1.5b) ~ 390, so it lands in V_S.  MPX cuts the middle of
  // the bridge; inter-cluster edges with both ends in V_D stay.
  const int seed = GetParam();
  const Graph g = gen::barbell(40, 40000);
  RoundLedger ledger;
  Network net(g, ledger, static_cast<std::uint64_t>(seed) + 300);
  LddParams prm;
  prm.beta = 0.9;
  prm.K = 2.0;
  const LddResult res = low_diameter_decomposition(net, prm);
  expect_theorem4(g, prm.beta, res);
  std::size_t vd = 0;
  for (const char c : res.guard.in_vd) vd += c;
  EXPECT_GT(res.guard.seed_vertices, 0u);
  EXPECT_GT(vd, 0u);
  EXPECT_LT(vd, g.num_vertices());
  EXPECT_GT(res.num_cut_edges, 0u);
  const double tightness = static_cast<double>(res.num_cut_edges) /
                           (prm.beta * static_cast<double>(g.num_edges()));
  std::cout << "Theorem 4 tightness (barbell, seed " << seed << "): "
            << tightness << "\n";
}

INSTANTIATE_TEST_SUITE_P(Seeds, LddTheorem4, ::testing::Values(1, 2, 3, 4, 5));

TEST(Ldd, ExpanderStaysWhole) {
  // All vertices are V_D and MPX inter-cluster edges between V_D vertices
  // are not cut, so an expander comes back as a single component with zero
  // cut edges.
  Rng rng(11);
  const Graph g = gen::random_regular(150, 6, rng);
  RoundLedger ledger;
  Network net(g, ledger, 13);
  LddParams prm;
  prm.beta = 0.2;
  const LddResult res = low_diameter_decomposition(net, prm);
  EXPECT_EQ(res.num_cut_edges, 0u);
  EXPECT_EQ(res.num_components, 1u);
}

TEST(Ldd, ComponentIdsArePartition) {
  const Graph g = gen::clique_chain(12, 8);
  RoundLedger ledger;
  Network net(g, ledger, 17);
  LddParams prm;
  prm.beta = 0.35;
  const LddResult res = low_diameter_decomposition(net, prm);
  ASSERT_EQ(res.component.size(), g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(res.component[v], res.num_components);
  }
  // Cut edges cross components; kept edges do not.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    if (res.cut_edge[e]) {
      // A cut edge *may* still land inside one component (another path
      // reconnects) -- but a kept edge must never cross.
    } else {
      EXPECT_EQ(res.component[u], res.component[v]);
    }
  }
}

TEST(Ldd, GuardAblationCutsMore) {
  // Plain MPX cuts all inter-cluster edges; the guard uncuts V_D-V_D ones,
  // so on the same MPX run (same network seed) it never cuts more.
  for (const auto& [g, beta] : {std::pair{gen::clique_chain(20, 10), 0.3},
                                std::pair{gen::clique_chain(150, 8), 0.5}}) {
    LddParams with_guard;
    with_guard.beta = beta;
    LddParams no_guard = with_guard;
    no_guard.use_guard = false;

    RoundLedger l1, l2;
    Network n1(g, l1, 21), n2(g, l2, 21);
    const auto res_guard = low_diameter_decomposition(n1, with_guard);
    const auto res_plain = low_diameter_decomposition(n2, no_guard);
    EXPECT_LE(res_guard.num_cut_edges, res_plain.num_cut_edges)
        << "n=" << g.num_vertices() << " beta=" << beta;
  }
}

}  // namespace
}  // namespace xd::ldd
