#include "sparsecut/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sparsecut/parallel_nibble.hpp"

namespace xd::sparsecut {
namespace {

TEST(ParallelNibble, FindsCutOnDumbbell) {
  Rng rng(3);
  const Graph g = gen::dumbbell_expanders(40, 40, 4, 2, rng);
  const auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
  congest::RoundLedger ledger;
  const auto res = parallel_nibble(g, prm, rng, ledger);
  EXPECT_FALSE(res.overlap_aborted);
  ASSERT_FALSE(res.cut.empty());
  // Volume stays under the z = (23/24) Vol threshold.
  EXPECT_LE(static_cast<double>(volume(g, res.cut)),
            (23.0 / 24.0) * static_cast<double>(g.volume()));
  EXPECT_GT(res.rounds, 0u);
  EXPECT_EQ(res.rounds, ledger.rounds());
  EXPECT_GE(res.max_overlap, 1);
}

TEST(ParallelNibble, LedgerBreakdownHasAllPhases) {
  Rng rng(4);
  const Graph g = gen::dumbbell_expanders(30, 30, 4, 2, rng);
  const auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
  congest::RoundLedger ledger;
  (void)parallel_nibble(g, prm, rng, ledger);
  EXPECT_GT(ledger.rounds_for("ParallelNibble/generate"), 0u);
  EXPECT_GT(ledger.rounds_for("ParallelNibble/nibbles"), 0u);
  EXPECT_GT(ledger.rounds_for("ParallelNibble/select"), 0u);
}

TEST(ParallelNibble, DiameterHintLowersGenerateCharge) {
  Rng rng(5);
  const Graph g = gen::cycle(200);  // large diameter
  const auto prm = NibbleParams::practical(0.1, g.num_edges(), g.volume());
  congest::RoundLedger with_hint, without_hint;
  Rng r1(5), r2(5);
  (void)parallel_nibble(g, prm, r1, without_hint);
  (void)parallel_nibble(g, prm, r2, with_hint, 10);
  EXPECT_LT(with_hint.rounds_for("ParallelNibble/generate"),
            without_hint.rounds_for("ParallelNibble/generate"));
}

TEST(Partition, RecoversBalancedDumbbellCut) {
  Rng rng(6);
  const Graph g = gen::dumbbell_expanders(50, 50, 4, 2, rng);
  const auto prm = NibbleParams::practical(0.05, g.num_edges(), g.volume());
  congest::RoundLedger ledger;
  const auto res = partition(g, prm, rng, ledger);
  ASSERT_TRUE(res.found());
  // Lemma 8 condition 1: Vol(C) <= (47/48) Vol(V).
  EXPECT_LE(static_cast<double>(volume(g, res.cut)),
            (47.0 / 48.0) * static_cast<double>(g.volume()) + 1e-9);
  // The planted cut has conductance ~0.01; Partition should find something
  // in the O(phi log n) band.
  EXPECT_LT(res.conductance, 12.0 * prm.phi * std::log(100.0));
  EXPECT_GT(res.balance, 0.0);
  EXPECT_EQ(res.rounds, ledger.rounds());
}

TEST(Partition, StatsAreConsistent) {
  Rng rng(7);
  const Graph g = gen::dumbbell_expanders(30, 30, 4, 3, rng);
  const auto prm = NibbleParams::practical(0.08, g.num_edges(), g.volume());
  congest::RoundLedger ledger;
  const auto res = partition(g, prm, rng, ledger);
  EXPECT_GE(res.iterations, 1u);
  EXPECT_LE(res.iterations, prm.max_iterations);
  if (res.found()) {
    EXPECT_NEAR(res.conductance, conductance(g, res.cut), 1e-12);
    EXPECT_NEAR(res.balance, balance(g, res.cut), 1e-12);
  }
}

TEST(Partition, ExpanderProducesEmptyOrSparseCutOnly) {
  // Theorem 3 case 2: if Φ(G) > φ the algorithm may return ∅ or a cut, but
  // never a *bad* cut (conductance must stay in the O(φ^{1/3}...) band,
  // checked loosely here).
  Rng rng(8);
  const Graph g = gen::random_regular(100, 6, rng);
  congest::RoundLedger ledger;
  const auto res = nearly_most_balanced_sparse_cut(g, 0.01, Preset::kPractical,
                                                   rng, ledger);
  if (res.found()) {
    EXPECT_LT(res.conductance, 0.5);
  }
}

TEST(Theorem3, BalanceGuaranteeOnPlantedCut) {
  // Dumbbells whose first n1 vertices form a planted cut S of conductance
  // Φ(S) and balance b.  Theorem 3: a returned cut has conductance at most
  // h(φ) (the practical preset's `theorem3_conductance_bound`), and when
  // Φ(S) <= φ its balance is at least min{b/2, 1/48} -- S witnesses that
  // the most balanced φ-sparse cut is at least b-balanced, so returning no
  // cut (balance 0) fails too.
  struct Case {
    VertexId n1, n2;
    double phi;
  };
  const std::vector<Case> cases = {
      // Balanced to lopsided at φ = 0.02; 180:20 and 190:10 plant
      // Φ(S) ≈ 0.024 and 0.048 > φ, so a returned cut need only meet the
      // conductance clause.
      {50, 50, 0.02}, {100, 100, 0.02}, {120, 80, 0.02}, {150, 50, 0.02},
      {180, 20, 0.02}, {190, 10, 0.02},
      // One split swept across φ around its Φ(S) ≈ 0.004: at φ = 0.002
      // "no cut" is a legal answer, from 0.005 up a cut must come back.
      {120, 120, 0.002}, {120, 120, 0.005}, {120, 120, 0.012},
      {120, 120, 0.03}, {120, 120, 0.08}, {120, 120, 0.2}};
  std::uint64_t seed = 9;
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message()
                 << c.n1 << ":" << c.n2 << " phi=" << c.phi);
    Rng rng(seed++);
    const Graph g = gen::dumbbell_expanders(c.n1, c.n2, 4, 2, rng);
    std::vector<VertexId> left(c.n1);
    for (VertexId v = 0; v < c.n1; ++v) left[v] = v;
    const VertexSet planted(std::move(left));
    congest::RoundLedger ledger;
    const auto res = nearly_most_balanced_sparse_cut(
        g, c.phi, Preset::kPractical, rng, ledger);
    if (res.found()) {
      EXPECT_LE(res.conductance,
                theorem3_conductance_bound(c.phi, g.num_edges(), g.volume(),
                                           Preset::kPractical));
    }
    if (conductance(g, planted) <= c.phi) {
      EXPECT_GE(res.balance,
                std::min(balance(g, planted) / 2.0, 1.0 / 48.0));
    }
  }
}

TEST(Theorem3, PhiRunParameterization) {
  // Paper mode: phi_run = cbrt(144 phi ln^2(m e^4)) clamped at 1/12.
  const double phi = 1e-8;
  const std::size_t m = 1000;
  const double ln4 = std::log(1000.0) + 4.0;
  EXPECT_NEAR(theorem3_phi_run(phi, m, Preset::kPaper),
              std::cbrt(144.0 * phi * ln4 * ln4), 1e-12);
  // Large phi clamps.
  EXPECT_DOUBLE_EQ(theorem3_phi_run(0.5, m, Preset::kPaper), 1.0 / 12.0);
  // Practical: phi_run = phi (star_relax = 1 makes C.1* exact).
  EXPECT_DOUBLE_EQ(theorem3_phi_run(0.06, m, Preset::kPractical), 0.06);
  // Contract bounds: paper = 276 w phi_run; practical = 6 phi.
  EXPECT_DOUBLE_EQ(theorem3_conductance_bound(0.06, m, 2000, Preset::kPractical),
                   0.36);
  EXPECT_GT(theorem3_conductance_bound(1e-8, m, 2000, Preset::kPaper),
            theorem3_phi_run(1e-8, m, Preset::kPaper));
}

TEST(Theorem3, ConductanceWithinReparameterizedBand) {
  // h(phi) = O(phi^{1/3} log^{5/3} n): check the measured conductance of the
  // returned cut against the practical-mode band 12 * phi_run * ln(vol).
  Rng rng(10);
  const Graph g = gen::dumbbell_expanders(40, 60, 4, 2, rng);
  congest::RoundLedger ledger;
  const double phi = 0.02;
  const auto res = nearly_most_balanced_sparse_cut(g, phi, Preset::kPractical,
                                                   rng, ledger);
  ASSERT_TRUE(res.found());
  const double phi_run = theorem3_phi_run(phi, g.num_edges(), Preset::kPractical);
  EXPECT_LE(res.conductance,
            12.0 * phi_run * std::log(static_cast<double>(g.volume())));
}

}  // namespace
}  // namespace xd::sparsecut
