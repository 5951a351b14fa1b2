#include "triangle/enumerate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "congest/scheduler.hpp"
#include "expander/decomposition.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "triangle/baseline_local.hpp"
#include "triangle/clique_dlp.hpp"
#include "triangle/cluster_enum.hpp"
#include "triangle/intersect.hpp"
#include "triangle/triple_rank.hpp"
#include "util/check.hpp"

namespace xd::triangle {
namespace {

std::vector<Triangle> ground_truth(const Graph& g) {
  auto tris = triangles_exact(g);
  std::sort(tris.begin(), tris.end());
  return tris;
}

/// Test double that records the exact demand stream instead of routing --
/// the flat plane must hand the router exactly the spec's batch sequence.
class RecordingRouter : public routing::Router {
 public:
  std::uint64_t preprocess() override { return 0; }
  std::uint64_t route(const std::vector<routing::Demand>& demands) override {
    for (const auto& d : demands) log.push_back({d.src, d.dst, d.count});
    ++queries_;
    return 0;
  }
  [[nodiscard]] std::uint64_t queries() const override { return queries_; }

  std::vector<std::tuple<VertexId, VertexId, std::uint32_t>> log;

 private:
  std::uint64_t queries_ = 0;
};

TEST(LocalBaseline, ExactOnGnp) {
  Rng rng(1);
  const Graph g = gen::gnp(60, 0.2, rng);
  congest::RoundLedger ledger;
  const auto res = enumerate_local_baseline(g, ledger);
  EXPECT_EQ(res.triangles, ground_truth(g));
  EXPECT_GE(res.rounds, g.max_degree());
}

TEST(LocalBaseline, RoundsScaleWithMaxDegree) {
  const Graph star = gen::star(100);
  congest::RoundLedger ledger;
  const auto res = enumerate_local_baseline(star, ledger);
  EXPECT_TRUE(res.triangles.empty());
  EXPECT_GE(res.rounds, 99u);
}

class DlpExactness : public ::testing::TestWithParam<int> {};

TEST_P(DlpExactness, MatchesGroundTruth) {
  Rng rng(GetParam());
  const Graph g = gen::gnp(70, 0.25, rng);
  congest::RoundLedger ledger;
  const auto res = enumerate_clique_dlp(g, ledger);
  EXPECT_EQ(res.triangles, ground_truth(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DlpExactness, ::testing::Values(1, 2, 3));

TEST(Dlp, DenseRoundsScaleLikeCubeRoot) {
  // On G(n, 1/2) the DLP bound is Θ(n^{1/3}); doubling n should grow
  // rounds by ~2^{1/3} = 1.26, certainly below 2x.
  Rng rng(7);
  const Graph g1 = gen::gnp(64, 0.5, rng);
  const Graph g2 = gen::gnp(128, 0.5, rng);
  congest::RoundLedger l1, l2;
  const auto r1 = enumerate_clique_dlp(g1, l1);
  const auto r2 = enumerate_clique_dlp(g2, l2);
  EXPECT_LT(r2.rounds, r1.rounds * 2);
  EXPECT_GT(r2.rounds, r1.rounds / 2);
}

TEST(Dlp, EmptyAndTinyGraphs) {
  congest::RoundLedger ledger;
  EXPECT_TRUE(enumerate_clique_dlp(gen::path(2), ledger).triangles.empty());
  EXPECT_EQ(enumerate_clique_dlp(gen::complete(3), ledger).triangles.size(), 1u);
}

class CongestEnumExactness : public ::testing::TestWithParam<int> {};

TEST_P(CongestEnumExactness, MatchesGroundTruthOnGnp) {
  Rng rng(GetParam() * 13);
  const Graph g = gen::gnp(60, 0.3, rng);
  congest::RoundLedger ledger;
  EnumParams prm;
  const auto res = enumerate_congest(g, prm, rng, ledger);
  EXPECT_EQ(res.triangles, ground_truth(g));
  EXPECT_GT(res.rounds, 0u);
}

TEST_P(CongestEnumExactness, MatchesGroundTruthOnClusteredGraph) {
  // Clustered graphs force a non-trivial decomposition and a real E*
  // recursion: triangles can straddle clusters.
  Rng rng(GetParam() * 29);
  const Graph g = gen::planted_partition(80, 4, 0.5, 0.05, rng);
  congest::RoundLedger ledger;
  EnumParams prm;
  const auto res = enumerate_congest(g, prm, rng, ledger);
  EXPECT_EQ(res.triangles, ground_truth(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CongestEnumExactness, ::testing::Values(1, 2, 3));

TEST(CongestEnum, DumbbellWithBridgeTriangles) {
  // Bridge edges between the communities form cross-cluster triangles --
  // the E* path must catch them.
  Rng rng(31);
  GraphBuilder b(20);
  // Two K_8s.
  for (VertexId i = 0; i < 8; ++i) {
    for (VertexId j = i + 1; j < 8; ++j) {
      b.add_edge(i, j);
      b.add_edge(10 + i, 10 + j);
    }
  }
  // A cross triangle: 0-10, 0-11, 10-11 already in K8; plus spares 8, 9.
  b.add_edge(0, 10).add_edge(0, 11);
  b.add_edge(8, 9).add_edge(7, 8).add_edge(7, 9);
  const Graph g = b.build();
  congest::RoundLedger ledger;
  EnumParams prm;
  prm.phi0_override = 0.1;
  const auto res = enumerate_congest(g, prm, rng, ledger);
  EXPECT_EQ(res.triangles, ground_truth(g));
  // The cross triangle {0, 10, 11} must be present.
  EXPECT_TRUE(std::binary_search(res.triangles.begin(), res.triangles.end(),
                                 Triangle{0, 10, 11}));
}

TEST(CongestEnum, TreeRouterBackendAgrees) {
  Rng rng(37);
  const Graph g = gen::gnp(50, 0.3, rng);
  congest::RoundLedger ledger;
  EnumParams prm;
  prm.backend = RouterBackend::kTree;
  const auto res = enumerate_congest(g, prm, rng, ledger);
  EXPECT_EQ(res.triangles, ground_truth(g));
}

TEST(CongestEnum, TriangleFreeGraphs) {
  Rng rng(41);
  congest::RoundLedger ledger;
  EnumParams prm;
  for (const Graph& g : {gen::cycle(40), gen::grid(6, 6), gen::hypercube(5)}) {
    Rng r(41);
    congest::RoundLedger l;
    EXPECT_TRUE(enumerate_congest(g, prm, r, l).triangles.empty());
  }
}

TEST(CongestEnum, RejectsOversizedEpsilon) {
  Rng rng(43);
  const Graph g = gen::complete(10);
  congest::RoundLedger ledger;
  EnumParams prm;
  prm.epsilon = 0.5;  // CPZ needs <= 1/6
  EXPECT_THROW((void)enumerate_congest(g, prm, rng, ledger), CheckError);
}

/// The demand stream enumerate_cluster must hand its router, written out
/// from the proxy-join spec: for every non-loop cluster edge {u, v} and
/// every c < p, the knower (the in-cluster endpoint, min id if both) ships
/// one copy to the host members[rank(g(u), g(v), c) % |members|] unless it
/// hosts that proxy itself.  Endpoints are cluster-local ids.
std::vector<std::tuple<VertexId, VertexId, std::uint32_t>> expected_demands(
    const Graph& g, const std::vector<EdgeId>& edge_ids,
    const std::vector<char>& in_cluster, const std::vector<VertexId>& to_local,
    const std::vector<std::uint32_t>& groups, std::uint32_t p,
    const std::vector<VertexId>& members) {
  const TripleRanker ranker(p);
  std::vector<std::tuple<VertexId, VertexId, std::uint32_t>> out;
  for (const EdgeId e : edge_ids) {
    const auto [u, v] = g.edge(e);
    if (u == v) continue;
    VertexId knower = in_cluster[u] ? u : v;
    if (in_cluster[u] && in_cluster[v]) knower = std::min(u, v);
    for (std::uint32_t c = 0; c < p; ++c) {
      const VertexId host =
          members[ranker.rank(groups[u], groups[v], c) % members.size()];
      if (host != knower) out.emplace_back(to_local[knower], to_local[host], 1);
    }
  }
  return out;
}

// Property grid for the flat data plane: random graphs x group counts x
// cluster splits.  Each cluster must report exactly the triangles of its
// own edge set E_i (triangles_exact on the graph of those edges) and hand
// the router exactly the spec's demand stream.
TEST(ClusterEnum, FlatMatchesOracleAcrossGrid) {
  for (const int seed : {1, 2, 3}) {
    Rng grng(seed * 101);
    const Graph g = gen::gnp(48, 0.25, grng);
    const std::size_t n = g.num_vertices();
    for (const std::uint32_t p : {1u, 2u, 3u, 5u}) {
      std::vector<std::uint32_t> groups(n);
      Rng prng(seed * 7 + p);
      for (VertexId v = 0; v < n; ++v) {
        groups[v] = static_cast<std::uint32_t>(prng.next_below(p));
      }
      for (const std::uint32_t k : {1u, 2u, 3u}) {  // cluster splits
        for (std::uint32_t c = 0; c < k; ++c) {
          std::vector<VertexId> members;
          std::vector<char> in_cluster(n, 0);
          std::vector<VertexId> to_local_vec(n, 0);
          for (VertexId v = 0; v < n; ++v) {
            if (v % k != c) continue;
            in_cluster[v] = 1;
            to_local_vec[v] = static_cast<VertexId>(members.size());
            members.push_back(v);
          }
          std::vector<EdgeId> edge_ids;  // the cluster's E_i
          GraphBuilder cluster_graph(n);
          for (EdgeId e = 0; e < g.num_edges(); ++e) {
            const auto [u, v] = g.edge(e);
            if (u == v) continue;
            if (in_cluster[u] || in_cluster[v]) {
              edge_ids.push_back(e);
              cluster_graph.add_edge(u, v);
            }
          }

          auto& scratch = TriangleScratch::for_thread();
          scratch.to_local.begin_epoch(n);
          for (std::size_t i = 0; i < members.size(); ++i) {
            scratch.to_local.put(members[i], static_cast<VertexId>(i));
          }
          RecordingRouter router;
          const auto flat = enumerate_cluster(g, edge_ids, groups, p, router,
                                              members, scratch);

          ASSERT_EQ(flat, ground_truth(cluster_graph.build()))
              << "seed=" << seed << " p=" << p << " k=" << k << " c=" << c;
          ASSERT_EQ(router.log,
                    expected_demands(g, edge_ids, in_cluster, to_local_vec,
                                     groups, p, members))
              << "seed=" << seed << " p=" << p << " k=" << k << " c=" << c;
          if (k == 1) {
            // One cluster covering everything must enumerate exactly.
            ASSERT_EQ(flat, ground_truth(g)) << "seed=" << seed << " p=" << p;
          }
        }
      }
    }
  }
}

// The demand stream and the plane are built in nested edge-range chunks
// (a counting pass, then an in-place fill): inside a wide epoch the
// router must still see exactly the spec's stream, and the cluster its
// exact triangles.
TEST(ClusterEnum, ChunkedDemandStreamMatchesSpecAtAnyWidth) {
  Rng grng(5);
  const Graph g = gen::gnp(600, 0.05, grng);
  const std::size_t n = g.num_vertices();
  constexpr std::uint32_t p = 6;
  std::vector<std::uint32_t> groups(n);
  for (auto& gr : groups) gr = static_cast<std::uint32_t>(grng.next_below(p));
  std::vector<VertexId> members;
  std::vector<char> in_cluster(n, 0);
  std::vector<VertexId> to_local_vec(n, 0);
  for (VertexId v = 0; v < n; v += 2) {
    in_cluster[v] = 1;
    to_local_vec[v] = static_cast<VertexId>(members.size());
    members.push_back(v);
  }
  std::vector<EdgeId> edge_ids;
  GraphBuilder cluster_graph(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    if (in_cluster[u] || in_cluster[v]) {
      edge_ids.push_back(e);
      cluster_graph.add_edge(u, v);
    }
  }
  ASSERT_GT(edge_ids.size(), 2 * 2048u);  // several edge chunks
  const auto want = expected_demands(g, edge_ids, in_cluster, to_local_vec,
                                     groups, p, members);
  const auto want_tris = ground_truth(cluster_graph.build());
  ASSERT_FALSE(want_tris.empty());
  for (const int threads : {1, 2, 8}) {
    congest::EpochScheduler(threads).run(1, [&](std::size_t) {
      auto& scratch = TriangleScratch::for_thread();
      scratch.to_local.begin_epoch(n);
      for (std::size_t i = 0; i < members.size(); ++i) {
        scratch.to_local.put(members[i], static_cast<VertexId>(i));
      }
      RecordingRouter router;
      const auto tris = enumerate_cluster(g, edge_ids, groups, p, router,
                                          members, scratch);
      EXPECT_EQ(router.log, want) << "threads=" << threads;
      EXPECT_EQ(tris, want_tris) << "threads=" << threads;
    });
  }
}

// The arena must serve every cluster from retained storage: after a warmup
// run at this ambient size, a full enumeration performs zero O(n)
// allocations -- every stamped epoch is a reuse hit.
TEST(ClusterEnum, ScratchArenaReusedAcrossClustersAndLevels) {
  // 79 clusters across 2 recursion levels at these seeds -- a real
  // multi-cluster, multi-level workload for the arena.
  const Graph g = gen::clique_chain(40, 7);
  const auto run = [&g] {
    Rng rng(19);
    congest::RoundLedger ledger;
    EnumParams prm;
    return enumerate_congest(g, prm, rng, ledger);
  };

  // The plane's flat buffers, by name: each must keep its storage.
  const auto plane_buffers = [] {
    const auto& s = TriangleScratch::for_thread();
    const auto& js = s.join;
    const auto& bs = BucketScratch::for_thread();
    const auto buf = [](const auto& vec) {
      return std::pair{static_cast<const void*>(vec.data()), vec.capacity()};
    };
    return std::vector<std::pair<std::string,
                                 std::pair<const void*, std::size_t>>>{
        {"edges", buf(s.edges)},
        {"pair_ends", buf(js.pair_ends)},
        {"pair_edges", buf(js.pair_edges)},
        {"u", buf(bs.u)},
        {"v", buf(bs.v)},
        {"run_u", buf(bs.run_u)},
        {"matches", buf(bs.matches)}};
  };

  (void)run();  // warm the calling thread's arena at ambient size n
  const auto warm = TriangleScratch::for_thread().to_local.stats();
  const auto warm_buffers = plane_buffers();

  const auto res = run();
  const auto after = TriangleScratch::for_thread().to_local.stats();
  EXPECT_EQ(res.clusters_processed, 79u);
  EXPECT_EQ(res.levels, 2);
  EXPECT_EQ(after.grown - warm.grown, 0u);  // zero per-cluster O(n) allocs
  // The layout and join buffers grow nothing either: same storage, same
  // capacity, across every cluster and level of the second run.
  EXPECT_EQ(plane_buffers(), warm_buffers);
  // The bucket buffers hold one bucket, never a cluster's p copies per
  // edge: the edge list's capacity is under twice the largest cluster's
  // edge count m, so the bound below is under that cluster's p·m copies.
  const auto& s = TriangleScratch::for_thread();
  const auto& bs = BucketScratch::for_thread();
  const auto p = static_cast<std::size_t>(
      std::ceil(std::cbrt(static_cast<double>(g.num_vertices()))));
  EXPECT_GT(bs.u.capacity(), 0u);
  EXPECT_LT(bs.u.capacity(), p * s.edges.capacity() / 2);
  // Exactly one stamped epoch per enumerated cluster, every one a reuse
  // hit served from the retained slab.
  EXPECT_EQ(after.reused - warm.reused, res.clusters_processed);
  EXPECT_EQ(ground_truth(g).size(), res.triangles.size());
}

// Forced-scalar and dispatched (SIMD) enumeration must be bit-identical --
// same triangles, same order, same round count -- at every scheduler
// thread count (per-thread kernel arenas are thread-disjoint).
TEST(CongestEnum, ForcedScalarBitIdenticalAcrossThreads) {
  const bool saved = intersect::force_scalar();
  Rng grng(51);
  const Graph g = gen::planted_partition(90, 3, 0.6, 0.05, grng);
  for (const int threads : {0, 1, 2, 8}) {
    EnumParams prm;
    prm.scheduler_threads = threads;
    const auto run = [&] {
      Rng rng(23);
      congest::RoundLedger ledger;
      return enumerate_congest(g, prm, rng, ledger);
    };
    intersect::set_force_scalar(false);
    const auto dispatched = run();
    intersect::set_force_scalar(true);
    const auto forced = run();
    EXPECT_EQ(dispatched.triangles, forced.triangles) << "threads=" << threads;
    EXPECT_EQ(dispatched.rounds, forced.rounds) << "threads=" << threads;
    EXPECT_EQ(dispatched.triangles, ground_truth(g)) << "threads=" << threads;
  }
  intersect::set_force_scalar(saved);
}

TEST(CongestEnum, ReportsDiagnostics) {
  Rng rng(47);
  const Graph g = gen::planted_partition(60, 3, 0.5, 0.05, rng);
  congest::RoundLedger ledger;
  EnumParams prm;
  const auto res = enumerate_congest(g, prm, rng, ledger);
  EXPECT_GE(res.levels, 1);
  EXPECT_GE(res.clusters_processed, 1u);
  EXPECT_EQ(res.rounds, ledger.rounds());
}

/// Two K_5s sharing vertex 4, then triangle 8-9-10 and 4-cycle 10..13;
/// self-loops on a clique, a triangle and a cycle vertex, loop-only vertex
/// 14 and isolated vertices 15, 16.  Level 0 decomposes this g as is.
Graph loopy_graph() {
  GraphBuilder b(17);
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) {
      b.add_edge(i, j);
      b.add_edge(4 + i, 4 + j);
    }
  }
  b.add_edge(8, 9).add_edge(8, 10).add_edge(9, 10);
  b.add_edge(10, 11).add_edge(11, 12).add_edge(12, 13).add_edge(13, 10);
  b.add_loops(0, 2).add_loops(9, 1).add_loops(12, 1).add_loops(14, 3);
  return b.build();
}

TEST(CongestEnum, LoopsAndIsolatedVerticesAtEveryBackend) {
  const Graph g = loopy_graph();
  for (const RouterBackend backend :
       {RouterBackend::kCharged, RouterBackend::kTree,
        RouterBackend::kHierarchicalSim}) {
    EnumParams prm;
    prm.backend = backend;
    prm.phi0_override = 0.1;
    Rng rng(3);
    congest::RoundLedger ledger;
    const auto direct = enumerate_congest(g, prm, rng, ledger);
    EXPECT_EQ(direct.triangles, ground_truth(g))
        << "backend=" << static_cast<int>(backend);

    // The same run with the level-0 decomposition supplied by the caller.
    Rng rng2(3);
    Rng drng = rng2.fork(kLevel0Stream);
    congest::RoundLedger ledger2;
    const auto level0 = expander::expander_decomposition(
        g, decomposition_params(prm), drng, ledger2);
    const auto supplied = enumerate_congest(g, prm, rng2, ledger2, &level0);
    EXPECT_EQ(supplied.triangles, direct.triangles)
        << "backend=" << static_cast<int>(backend);
    EXPECT_EQ(supplied.rounds, direct.rounds)
        << "backend=" << static_cast<int>(backend);
    EXPECT_EQ(ledger2.rounds(), direct.rounds)
        << "backend=" << static_cast<int>(backend);
  }
}

TEST(CongestEnum, SimpleParallelLevel0StaysExactThroughTheRecursion) {
  // A supplied simple-parallel level 0 switches levels >= 1 to the same
  // backend; the triangle set stays exact through the E* recursion.
  const Graph g = gen::ring_of_cliques(6, 6);
  EnumParams prm;
  prm.phi0_override = 0.1;
  prm.scheduler_threads = 2;
  Rng rng(5);
  Rng drng = rng.fork(kLevel0Stream);
  congest::RoundLedger ledger;
  const auto level0 = expander::expander_decomposition(
      g,
      decomposition_params(prm,
                           expander::DecompositionBackend::kSimpleParallel),
      drng, ledger);
  const auto res = enumerate_congest(g, prm, rng, ledger, &level0);
  EXPECT_EQ(res.triangles, ground_truth(g));
  EXPECT_GE(res.levels, 2);
  EXPECT_EQ(res.rounds, ledger.rounds());
}

TEST(CongestEnum, RejectsLevel0OfAnotherGraph) {
  const Graph g = loopy_graph();
  EnumParams prm;
  Rng drng(9);
  congest::RoundLedger ledger;
  const auto level0 = expander::expander_decomposition(
      g, decomposition_params(prm), drng, ledger);

  auto short_component = level0;
  short_component.component.pop_back();
  auto long_removed = level0;
  long_removed.removed_edge.push_back(0);
  for (const auto* bad : {&short_component, &long_removed}) {
    Rng rng(9);
    EXPECT_THROW((void)enumerate_congest(g, prm, rng, ledger, bad),
                 CheckError);
  }
}

}  // namespace
}  // namespace xd::triangle
