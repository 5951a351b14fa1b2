// Property-style sweeps (parameterized over family × size × seed grids):
// cross-module invariants that must hold on *every* graph, not just the
// hand-picked cases of the unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/xd.hpp"
#include "util/check.hpp"

namespace xd {
namespace {

/// Graph family factory keyed by name (parameterized tests print these).
Graph make_family(const std::string& family, std::size_t n, Rng& rng) {
  if (family == "gnp_sparse") return gen::gnp(n, 6.0 / static_cast<double>(n), rng);
  if (family == "gnp_dense") return gen::gnp(n, 0.3, rng);
  if (family == "regular") return gen::random_regular(n - n % 2, 4, rng);
  if (family == "cycle") return gen::cycle(n);
  if (family == "grid") {
    const auto side = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
    return gen::grid(side, side, true);
  }
  if (family == "pref") return gen::preferential_attachment(n, 2, rng);
  XD_CHECK_MSG(false, "unknown family " << family);
  return {};
}

using GridParam = std::tuple<std::string, std::size_t, int>;

class GraphInvariants : public ::testing::TestWithParam<GridParam> {};

TEST_P(GraphInvariants, StructuralIdentities) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed));
  const Graph g = make_family(family, n, rng);

  // Volume identity: Σ deg == 2 * nonloop + loops.
  std::uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, g.volume());
  EXPECT_EQ(g.volume(), 2 * g.num_nonloop_edges() + g.num_loops());

  // Every edge id appears in exactly two incidence lists (one for loops).
  std::vector<int> appearances(g.num_edges(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (EdgeId e : g.incident_edges(v)) ++appearances[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(appearances[e], g.is_loop(e) ? 1 : 2);
  }

  // Cut + conductance consistency for a random subset.
  std::vector<VertexId> ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.next_bool(0.4)) ids.push_back(v);
  }
  const VertexSet s(std::move(ids));
  const auto vol_s = volume(g, s);
  const auto vol_c = volume(g, s.complement(g.num_vertices()));
  EXPECT_EQ(vol_s + vol_c, g.volume());
  EXPECT_EQ(cut_size(g, s), cut_size(g, s.complement(g.num_vertices())));
}

TEST_P(GraphInvariants, SubgraphDegreePreservation) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 100);
  const Graph g = make_family(family, n, rng);

  std::vector<VertexId> ids;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (rng.next_bool(0.5)) ids.push_back(v);
  }
  if (ids.empty()) return;
  const VertexSet s(std::move(ids));
  const LiveSubgraph sub = subgraph(g, nullptr, s, Boundary::kLoop);
  for (std::size_t lv = 0; lv < sub.graph.num_vertices(); ++lv) {
    EXPECT_EQ(sub.graph.degree(static_cast<VertexId>(lv)),
              g.degree(sub.to_parent[lv]));
  }
  // Φ(G{S}) <= Φ(G[S]) spot check via any fixed cut of the subgraph.
  if (sub.graph.num_vertices() >= 4) {
    std::vector<VertexId> half;
    for (VertexId v = 0; v < sub.graph.num_vertices() / 2; ++v) {
      half.push_back(v);
    }
    const VertexSet cut(std::move(half));
    const LiveSubgraph plain = induced_subgraph(g, s);
    const double phi_loops = conductance(sub.graph, cut);
    const double phi_plain = conductance(plain.graph, cut);
    if (std::isfinite(phi_plain)) {
      EXPECT_LE(phi_loops, phi_plain + 1e-12);
    }
  }
}

TEST_P(GraphInvariants, RemoveEdgesLeavesDegreesFixed) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 200);
  const Graph g = make_family(family, n, rng);
  std::vector<char> removed(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.is_loop(e)) removed[e] = rng.next_bool(0.3);
  }
  const VertexSet all = VertexSet::all(g.num_vertices());
  const Graph h = live_subgraph(g, removed, all).graph;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(h.degree(v), g.degree(v));
  }
  EXPECT_EQ(h.volume(), g.volume());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GraphInvariants,
    ::testing::Combine(::testing::Values("gnp_sparse", "gnp_dense", "regular",
                                         "cycle", "grid", "pref"),
                       ::testing::Values(36u, 100u),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class DecompositionSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(DecompositionSweep, AlwaysValidPartitionWithinBudget) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 300);
  const Graph g = make_family(family, n, rng);
  if (g.num_vertices() < 2) return;

  expander::DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  prm.phi0_override = 0.05;
  congest::RoundLedger ledger;
  const auto res = expander::expander_decomposition(g, prm, rng, ledger);
  const auto report =
      expander::verify_decomposition(g, res, prm.epsilon,
                                     res.schedule.phi_final());
  EXPECT_TRUE(report.is_partition) << family;
  EXPECT_TRUE(report.cut_within_epsilon)
      << family << " cut " << report.cut_fraction;
  EXPECT_EQ(report.internal_removed_edges, 0u) << family;

  // Degrees preserved under the removal overlay.
  const LiveSubgraph live =
      live_subgraph(g, res.removed_edge, VertexSet::all(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(live.graph.degree(v), g.degree(v));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DecompositionSweep,
    ::testing::Combine(::testing::Values("gnp_sparse", "regular", "cycle",
                                         "pref"),
                       ::testing::Values(64u), ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class TriangleSweep : public ::testing::TestWithParam<GridParam> {};

TEST_P(TriangleSweep, AllThreeAlgorithmsExact) {
  const auto& [family, n, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) + 400);
  const Graph g = make_family(family, n, rng);

  auto expect = triangles_exact(g);
  std::sort(expect.begin(), expect.end());

  congest::RoundLedger l1, l2, l3;
  triangle::EnumParams prm;
  Rng r1(seed + 7);
  const auto thm2 = triangle::enumerate_congest(g, prm, r1, l1);
  const auto dlp = triangle::enumerate_clique_dlp(g, l2);
  const auto local = triangle::enumerate_local_baseline(g, l3);
  EXPECT_EQ(thm2.triangles, expect) << family;
  EXPECT_EQ(dlp.triangles, expect) << family;
  EXPECT_EQ(local.triangles, expect) << family;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TriangleSweep,
    ::testing::Combine(::testing::Values("gnp_sparse", "gnp_dense", "regular",
                                         "grid", "pref"),
                       ::testing::Values(40u), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class LddSweep : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(LddSweep, Theorem4HoldsOnCycles) {
  const auto& [beta, seed] = GetParam();
  const Graph g = gen::cycle(8000);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, static_cast<std::uint64_t>(seed));
  ldd::LddParams prm;
  prm.beta = beta;
  prm.K = 1.0;
  const auto res = ldd::low_diameter_decomposition(net, prm);
  const double logn = std::log(8000.0);
  EXPECT_LE(ldd::max_component_diameter(g, res),
            150.0 * logn * logn / (beta * beta));
  EXPECT_LE(res.num_cut_edges,
            static_cast<std::uint64_t>(beta * g.num_edges()));
  // Partition validity of component labels.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LT(res.component[v], res.num_components);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, LddSweep,
                         ::testing::Combine(::testing::Values(0.5, 0.7, 0.9),
                                            ::testing::Values(1, 2)));

TEST(Reproducibility, SameSeedSameRun) {
  // The whole stack is deterministic in (graph, seed): rounds, components,
  // and triangle lists must replay exactly.
  Rng g1(42), g2(42);
  const Graph a = gen::gnp(80, 0.2, g1);
  const Graph b = gen::gnp(80, 0.2, g2);
  ASSERT_EQ(a.num_edges(), b.num_edges());

  expander::DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  prm.phi0_override = 0.05;
  Rng r1(7), r2(7);
  congest::RoundLedger l1, l2;
  const auto d1 = expander::expander_decomposition(a, prm, r1, l1);
  const auto d2 = expander::expander_decomposition(b, prm, r2, l2);
  EXPECT_EQ(d1.component, d2.component);
  EXPECT_EQ(l1.rounds(), l2.rounds());
  EXPECT_EQ(l1.messages(), l2.messages());

  Rng t1(11), t2(11);
  congest::RoundLedger tl1, tl2;
  triangle::EnumParams tprm;
  const auto e1 = triangle::enumerate_congest(a, tprm, t1, tl1);
  const auto e2 = triangle::enumerate_congest(b, tprm, t2, tl2);
  EXPECT_EQ(e1.triangles, e2.triangles);
  EXPECT_EQ(e1.rounds, e2.rounds);
}

}  // namespace
}  // namespace xd
