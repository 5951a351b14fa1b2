#include "sparsecut/nibble.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <unordered_map>
#include <unordered_set>

#include "graph/generators.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "sparsecut/distributed_nibble.hpp"
#include "sparsecut/nibble_params.hpp"
#include "sparsecut/parallel_nibble.hpp"
#include "sparsecut/random_nibble.hpp"
#include "spectral/lazy_walk.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {
namespace {

TEST(NibbleParams, PaperFormulasLiteral) {
  const std::size_t m = 1000;
  const double phi = 0.05;
  const auto prm = NibbleParams::paper(phi, m, 2 * m);
  const double lnm2 = std::log(1000.0) + 2.0;
  const double lnm4 = std::log(1000.0) + 4.0;
  EXPECT_EQ(prm.ell, 10);  // ceil(log2 1000)
  EXPECT_EQ(prm.t0, static_cast<int>(std::ceil(49.0 * lnm2 / (phi * phi))));
  EXPECT_NEAR(prm.f_phi, phi * phi * phi / (144.0 * lnm4 * lnm4), 1e-15);
  EXPECT_NEAR(prm.gamma, 5.0 * phi / (392.0 * lnm4), 1e-15);
  EXPECT_NEAR(prm.eps_base, phi / (56.0 * lnm4 * prm.t0), 1e-18);
  EXPECT_EQ(prm.preset, Preset::kPaper);
}

TEST(NibbleParams, EpsBHalvesPerScale) {
  const auto prm = NibbleParams::practical(0.1, 500, 1000);
  for (int b = 2; b <= prm.ell; ++b) {
    EXPECT_NEAR(prm.eps_b(b), prm.eps_b(b - 1) / 2.0, 1e-18);
  }
  EXPECT_THROW((void)prm.eps_b(0), CheckError);
  EXPECT_THROW((void)prm.eps_b(prm.ell + 1), CheckError);
}

TEST(NibbleParams, RescaledKeepsPresetAndPhi) {
  const auto prm = NibbleParams::paper(0.02, 100, 200);
  const auto re = prm.rescaled(5000, 10000);
  EXPECT_EQ(re.preset, Preset::kPaper);
  EXPECT_DOUBLE_EQ(re.phi, 0.02);
  EXPECT_EQ(re.num_edges, 5000u);
  const auto re2 = prm.with_phi(0.3);
  EXPECT_DOUBLE_EQ(re2.phi, 0.3);
  EXPECT_EQ(re2.num_edges, 100u);
}

TEST(NibbleParams, PracticalWithinCaps) {
  const auto prm = NibbleParams::practical(0.01, 1 << 20, 1 << 21);
  EXPECT_LE(prm.t0, 600);
  EXPECT_GE(prm.t0, 8);
  EXPECT_LE(prm.k_instances, 64u);
  EXPECT_LE(prm.max_iterations, 96u);
}

class NibbleOnDumbbell : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(11);
    g_ = gen::dumbbell_expanders(40, 40, 4, 2, rng);
    prm_ = NibbleParams::practical(0.05, g_.num_edges(), g_.volume());
  }
  Graph g_;
  NibbleParams prm_;
};

TEST_F(NibbleOnDumbbell, FindsTrappedCut) {
  // Start deep inside community 0 at a scale matching the community volume
  // (~160): b with 2^{b-1} <= 160*7/5.
  const auto res = nibble(g_, 0, prm_, 6);
  ASSERT_TRUE(res.found());
  // Exact Nibble honors (C.1): conductance <= phi.
  EXPECT_LE(res.cut_conductance, prm_.phi + 1e-12);
  // (C.3) volume window.
  EXPECT_GE(static_cast<double>(res.cut_volume), (5.0 / 7.0) * 32.0);
  EXPECT_LE(static_cast<double>(res.cut_volume),
            (5.0 / 6.0) * static_cast<double>(g_.volume()));
  // The cut stays inside the started community (it is the trapped set).
  std::size_t inside = 0;
  for (VertexId v : res.cut) inside += (v < 40);
  EXPECT_GE(static_cast<double>(inside) / static_cast<double>(res.cut.size()),
            0.9);
}

TEST_F(NibbleOnDumbbell, ApproximateCutRespectsStarredConditions) {
  const auto res = approximate_nibble(g_, 3, prm_, 6);
  ASSERT_TRUE(res.found());
  // (C.1*) allows up to 12 phi.
  EXPECT_LE(res.cut_conductance, 12.0 * prm_.phi + 1e-12);
  // (C.3*) volume window.
  EXPECT_GE(static_cast<double>(res.cut_volume), (5.0 / 7.0) * 32.0);
  EXPECT_LE(static_cast<double>(res.cut_volume),
            (11.0 / 12.0) * static_cast<double>(g_.volume()));
  // Consistency of the reported stats with the cut itself.
  EXPECT_EQ(res.cut_volume, volume(g_, res.cut));
  EXPECT_NEAR(res.cut_conductance, conductance(g_, res.cut), 1e-12);
  EXPECT_EQ(res.cut.size(), res.j_used);
}

TEST_F(NibbleOnDumbbell, TouchedCoversCut) {
  const auto res = approximate_nibble(g_, 0, prm_, 6);
  ASSERT_TRUE(res.found());
  const VertexSet touched(std::vector<VertexId>(res.touched.begin(),
                                                res.touched.end()));
  EXPECT_EQ(res.cut.set_intersection(touched), res.cut);
  EXPECT_GT(res.work_volume, 0u);
  EXPECT_GT(res.sweep_candidates, 0u);
}

// Lemma 3: each step of the ε_b-truncated walk keeps only vertices with
// ρ(v) >= 2ε_b, a set of volume <= 1/(2ε_b), so the t₀+1 steps of
// ApproximateNibble at scale b touch volume <= (t₀+1)/(2ε_b).  Checks the
// bound over scales 1..max_b and five degree-sampled starts each, and
// returns the tightness, the largest measured / bound.
double lemma3_tightness(const Graph& g, const NibbleParams& prm, int max_b,
                        const Rng& master) {
  double tightness = 0;
  for (int b = 1; b <= max_b; ++b) {
    const double bound = (prm.t0 + 1.0) / (2.0 * prm.eps_b(b));
    for (int trial = 0; trial < 5; ++trial) {
      Rng rt = master.fork(100 + b * 10 + trial);
      const VertexId start = sample_by_degree(g, rt);
      const auto res = approximate_nibble(g, start, prm, b);
      std::uint64_t vol = 0;
      for (VertexId v : res.touched) vol += g.degree(v);
      EXPECT_LE(static_cast<double>(vol), bound)
          << "b=" << b << " start=" << start;
      tightness = std::max(tightness, static_cast<double>(vol) / bound);
    }
  }
  return tightness;
}

TEST(Nibble, Lemma3TouchedVolumeBound) {
  const Rng master(808);
  {
    // The practical preset: its ε_b puts the bound above 3×10⁸ against
    // Vol(V) = 1,204, so this input only checks that the preset runs.
    Rng r = master.fork(1);
    const Graph g = gen::dumbbell_expanders(150, 150, 4, 2, r);
    const auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
    const double tight =
        lemma3_tightness(g, prm, std::min(prm.ell, 8), master);
    std::cout << "Lemma 3 tightness, practical preset: " << tight << "\n";
  }
  {
    // Lemma 3 holds for any ε_b, so a hand-set one can make it bite: at
    // scale 1, 1/(2ε_b) = 2 Vol(V) with t₀ = 1 bounds the touched volume
    // by 4 Vol(V).  On G(60, 1/2), one lazy step from v puts
    // 1/(2 deg v) on each neighbor u, and ρ(u) = 1/(2 deg v deg u) stays
    // above 2ε_b = 1/(2 Vol(V)), so the walk keeps v's whole neighborhood.
    Rng r = master.fork(2);
    const Graph g = gen::gnp(60, 0.5, r);
    auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
    prm.t0 = 1;
    prm.eps_base = 1.0 / (2.0 * static_cast<double>(g.volume()));
    const double tight = lemma3_tightness(g, prm, 1, master);
    std::cout << "Lemma 3 tightness, hand-set eps_b: " << tight << "\n";
    EXPECT_GE(tight, 0.1) << "the biting input went vacuous";
  }
}

TEST(Nibble, RejectsBadInputs) {
  Rng rng(1);
  const Graph g = gen::cycle(10);
  const auto prm = NibbleParams::practical(0.1, 10, 20);
  EXPECT_THROW((void)nibble(g, 0, prm, 0), CheckError);
  EXPECT_THROW((void)nibble(g, 0, prm, prm.ell + 1), CheckError);
  GraphBuilder b(2);
  b.add_edge(0, 1);
  GraphBuilder b2(3);
  b2.add_edge(0, 1);
  const Graph with_isolated = b2.build();
  const auto prm2 = NibbleParams::practical(0.1, 1, 2);
  EXPECT_THROW((void)nibble(with_isolated, 2, prm2, 1), CheckError);
}

TEST(Nibble, ExpanderYieldsNoLowScaleCut) {
  // A 6-regular random graph has conductance ~0.3; with target phi = 0.02
  // no sweep prefix passes (C.1), so Nibble returns empty.
  Rng rng(5);
  const Graph g = gen::random_regular(80, 6, rng);
  auto prm = NibbleParams::practical(0.02, g.num_edges(), g.volume());
  const auto res = nibble(g, 0, prm, 4);
  EXPECT_FALSE(res.found());
}

// With no cut to stop it early, ApproximateNibble's touched set is exactly
// the union of the truncated walk's supports over the steps it ran -- on
// the plain graph and on a view with removed edges and dropped vertices.
TEST(Nibble, NoCutTouchedIsUnionOfWalkSupports) {
  Rng rng(5);
  const Graph g = gen::random_regular(80, 6, rng);
  std::vector<char> removed(g.num_edges(), 0);
  for (EdgeId e = 0; e < g.num_edges(); e += 7) removed[e] = 1;
  std::vector<VertexId> active;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v % 5 != 4) active.push_back(v);
  }
  const GraphView view(g, &removed, VertexSet(std::move(active)));
  const auto check = [](const auto& graph) {
    auto prm =
        NibbleParams::practical(0.02, graph.num_edges(), graph.volume());
    const int b = 4;
    // Short walks stop while the support still grows, so the last step's
    // support adds vertices no earlier one had.
    for (const int t0 : {1, 2, 3, prm.t0}) {
      prm.t0 = t0;
      const NibbleResult res = approximate_nibble(graph, 0, prm, b);
      ASSERT_FALSE(res.found());
      std::vector<VertexId> want;
      for (const auto& dist : spectral::truncated_walk(
               graph, 0, res.steps_run, prm.eps_b(b))) {
        want.insert(want.end(), dist.support.begin(), dist.support.end());
      }
      std::sort(want.begin(), want.end());
      want.erase(std::unique(want.begin(), want.end()), want.end());
      EXPECT_EQ(res.touched, want) << "t0=" << t0;
      EXPECT_GT(want.size(), 1u);
    }
  };
  check(g);
  check(view);
}

TEST(RandomNibble, DegreeSampling) {
  Rng rng(7);
  const Graph g = gen::star(9);  // hub degree 8 of volume 16
  std::size_t hub = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) hub += (sample_by_degree(g, rng) == 0);
  EXPECT_NEAR(static_cast<double>(hub), trials / 2.0, 100.0);
}

TEST(RandomNibble, RunsAndReportsSampledInputs) {
  Rng rng(13);
  const Graph g = gen::dumbbell_expanders(30, 30, 4, 2, rng);
  const auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
  const auto res = random_nibble(g, prm, rng);
  EXPECT_LT(res.start, g.num_vertices());
  EXPECT_GE(res.scale, 1);
  EXPECT_LE(res.scale, prm.ell);
  if (res.inner.found()) {
    EXPECT_LE(res.inner.cut_conductance, 12.0 * prm.phi + 1e-12);
  }
}

TEST(RandomNibble, Lemma6ExpectedOverlap) {
  // Lemma 6: for a set S with a sparse boundary, RandomNibble's cut C has
  // E[Vol(C ∩ S)] >= Vol(S) / (8 Vol(V)); S is one side of a dumbbell and
  // the mean runs over 60 seeded trials (a trial without a cut adds 0).
  const Rng master(808);
  Rng r = master.fork(2);
  const Graph g = gen::dumbbell_expanders(100, 100, 4, 2, r);
  std::vector<VertexId> left(100);
  for (VertexId v = 0; v < 100; ++v) left[v] = v;
  const VertexSet s(std::move(left));
  const auto mask = s.bitmap(g.num_vertices());
  const auto prm = NibbleParams::practical(0.03, g.num_edges(), g.volume());

  const int trials = 60;
  std::uint64_t overlap = 0;
  for (int t = 0; t < trials; ++t) {
    Rng rt = master.fork(500 + t);
    const auto res = random_nibble(g, prm, rt);
    for (VertexId v : res.inner.cut) {
      if (mask[v]) overlap += g.degree(v);
    }
  }
  EXPECT_GE(static_cast<double>(overlap) / trials,
            static_cast<double>(volume(g, s)) /
                (8.0 * static_cast<double>(g.volume())));
}

// ParallelNibble at k = 12 must match 12 sequential random_nibble calls on
// the same stream: the selected prefix union, the per-edge overlap (counted
// here with hash sets, edge by edge, against its sorted merge), and the
// generator state it leaves behind.
TEST(ParallelNibble, MatchesSequentialRandomNibble) {
  Rng grng(21);
  const std::vector<Graph> graphs = {
      gen::ring_of_cliques(30, 12),
      gen::dumbbell_expanders(300, 300, 6, 2, grng)};
  std::size_t cuts = 0;
  for (const Graph& g : graphs) {
    auto prm = NibbleParams::practical(0.08, g.num_edges(), g.volume());
    prm.k_instances = 12;
    prm.overlap_cap = 1000;

    Rng want_rng(5);
    std::vector<RandomNibbleResult> runs;
    for (std::uint64_t i = 0; i < prm.k_instances; ++i) {
      runs.push_back(random_nibble(g, prm, want_rng));
    }
    std::unordered_map<EdgeId, int> participation;
    int want_overlap = 0;
    for (const auto& run : runs) {
      std::unordered_set<EdgeId> mine;
      for (const VertexId v : run.inner.touched) {
        g.for_each_live_incident(v,
                                 [&](EdgeId e, VertexId) { mine.insert(e); });
      }
      for (const EdgeId e : mine) {
        want_overlap = std::max(want_overlap, ++participation[e]);
      }
    }
    const double z = (23.0 / 24.0) * static_cast<double>(g.volume());
    std::vector<char> member(g.num_vertices(), 0);
    std::vector<VertexId> union_ids;
    std::uint64_t union_volume = 0;
    std::uint64_t want_used = 0;
    for (const auto& run : runs) {
      std::uint64_t added = 0;
      for (const VertexId v : run.inner.cut) {
        added += member[v] ? 0 : g.degree(v);
      }
      if (run.inner.found() &&
          static_cast<double>(union_volume + added) > z) {
        break;
      }
      for (const VertexId v : run.inner.cut) {
        member[v] = 1;
        union_ids.push_back(v);
      }
      union_volume += added;
      ++want_used;
    }
    const VertexSet want_cut(std::move(union_ids));
    cuts += want_cut.empty() ? 0 : 1;
    ASSERT_GT(want_overlap, 1) << "instances should overlap";

    Rng rng(5);
    congest::RoundLedger ledger;
    const auto got = parallel_nibble(g, prm, rng, ledger);
    EXPECT_EQ(got.max_overlap, want_overlap);
    EXPECT_EQ(got.instances, prm.k_instances);
    EXPECT_EQ(got.instances_used, want_used);
    EXPECT_EQ(got.cut, want_cut);
    EXPECT_EQ(rng(), want_rng());
  }
  EXPECT_GT(cuts, 0u) << "the graphs should yield a selected cut";
}

TEST(DistributedWalk, MatchesCentralizedExactly) {
  // The kernel-executed diffusion must reproduce the orchestrated one
  // bit-for-bit: same support and same mass at every step.
  struct Case {
    Graph g;
    VertexId start;
    int steps;
    double eps;
  };
  Rng r17(17);
  const Rng master(808);
  Rng r3 = master.fork(3), r4 = master.fork(4);
  const std::vector<Case> cases = {
      {gen::dumbbell_expanders(25, 25, 4, 2, r17), 3, 40, 1e-5},
      {gen::gnp(150, 0.05, r3), 0, 60, 1e-6},
      {gen::dumbbell_expanders(60, 60, 4, 2, r4), 0, 60, 1e-6}};
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.g.num_vertices());
    congest::RoundLedger ledger;
    congest::Network net(c.g, ledger);
    const auto dist_walk =
        distributed_truncated_walk(net, c.start, c.steps, c.eps, "diffuse");
    const auto cent_walk = spectral::truncated_walk(c.g, c.start, c.steps, c.eps);

    ASSERT_EQ(dist_walk.size(), cent_walk.size());
    for (std::size_t t = 0; t < dist_walk.size(); ++t) {
      ASSERT_EQ(dist_walk[t].support, cent_walk[t].support) << "step " << t;
      for (std::size_t i = 0; i < dist_walk[t].size(); ++i) {
        EXPECT_EQ(dist_walk[t].mass[i], cent_walk[t].mass[i])
            << "step " << t << " vertex " << dist_walk[t].support[i];
      }
    }
    // The diffusion really used the kernel: one round per step (no edge
    // multiplexing for a single instance).
    EXPECT_GE(ledger.rounds(), dist_walk.size() - 1);
  }
}

TEST(DistributedWalk, ChargesOneRoundPerStep) {
  const Graph g = gen::cycle(12);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger);
  (void)distributed_truncated_walk(net, 0, 10, 1e-6, "diffuse");
  EXPECT_EQ(ledger.rounds(), 10u);
}

TEST(DistributedNibble, EndToEndMatchesOrchestrated) {
  // The full distributed ApproximateNibble -- kernel diffusion + Lemma 9
  // rank-select sweeps + prefix-cut convergecasts -- must return exactly
  // the cut the orchestrated implementation computes (same walk, same
  // candidate sequence, same conditions).
  Rng rng(23);
  const Graph g = gen::dumbbell_expanders(25, 25, 4, 2, rng);
  auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
  prm.stall_tolerance = 0.0;  // the distributed path has no stall cutoff
  prm.t0 = 80;                // keep the kernel run affordable

  const auto central = approximate_nibble(g, 2, prm, 6);

  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 23);
  const auto dist = distributed_approximate_nibble(net, 2, prm, 6, "e2e");

  ASSERT_EQ(dist.found(), central.found());
  if (central.found()) {
    EXPECT_EQ(dist.cut, central.cut);
    EXPECT_EQ(dist.t_used, central.t_used);
    EXPECT_EQ(dist.j_used, central.j_used);
  }
  EXPECT_GT(dist.rank_selects, 0u);
  EXPECT_GT(dist.rounds, 0u);
  EXPECT_EQ(dist.rounds, ledger.rounds());
}

TEST(DistributedNibble, NoCutCaseAgreesToo) {
  // On an expander neither path finds a low-conductance prefix.
  Rng rng(29);
  const Graph g = gen::random_regular(30, 4, rng);
  auto prm = NibbleParams::practical(0.02, g.num_edges(), g.volume());
  prm.stall_tolerance = 0.0;
  prm.t0 = 40;

  const auto central = approximate_nibble(g, 0, prm, 3);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 29);
  const auto dist = distributed_approximate_nibble(net, 0, prm, 3, "e2e");
  EXPECT_EQ(dist.found(), central.found());
  EXPECT_FALSE(dist.found());
}

}  // namespace
}  // namespace xd::sparsecut
