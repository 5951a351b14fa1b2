// Paper-constant smoke tests: the literal formulas of Appendix A are
// runnable on small graphs for the pieces whose paper-scale costs stay
// finite (a single Nibble; the parameter schedules).  Partition with paper
// constants is *intentionally* not run end to end -- its iteration count
// s = 4·g(φ,Vol)·⌈log(1/p)⌉ is astronomically large by design (that is the
// paper's own round bound) -- but every formula feeding it is checked.

#include <gtest/gtest.h>

#include <cmath>

#include "core/xd.hpp"
#include "util/check.hpp"

namespace xd::sparsecut {
namespace {

TEST(PaperMode, SingleNibbleRunsWithLiteralConstants) {
  // Tiny dumbbell: m = 85, phi = 0.3 -> t0 = 49·ln(85 e²)/0.09 ≈ 3500
  // steps; sparse supports keep this affordable.
  Rng rng(1);
  const Graph g = gen::dumbbell_expanders(20, 20, 4, 2, rng);
  const auto prm = NibbleParams::paper(0.3, g.num_edges(), g.volume());
  EXPECT_EQ(prm.preset, Preset::kPaper);
  EXPECT_EQ(prm.star_relax, 12.0);
  EXPECT_EQ(prm.stall_tolerance, 0.0);  // no practical shortcuts

  const auto res = approximate_nibble(g, 0, prm, 5);
  // With the huge paper thresholds the outcome (cut or no cut) depends on
  // the constants; what must hold is the contract on whatever came back.
  if (res.found()) {
    EXPECT_LE(res.cut_conductance, 12.0 * prm.phi + 1e-12);
    EXPECT_LE(static_cast<double>(res.cut_volume),
              (11.0 / 12.0) * static_cast<double>(g.volume()));
  }
  // The paper walk has no stall cutoff: it runs to t0 or dies by
  // truncation or succeeds.
  EXPECT_TRUE(res.found() || res.steps_run == prm.t0 ||
              res.steps_run < prm.t0);
  EXPECT_GT(res.steps_run, 0);
}

TEST(PaperMode, T0DominatesPracticalT0) {
  const auto paper = NibbleParams::paper(0.1, 1000, 2000);
  const auto practical = NibbleParams::practical(0.1, 1000, 2000);
  EXPECT_GT(paper.t0, practical.t0);
  EXPECT_GT(paper.max_iterations, practical.max_iterations * 100);
  EXPECT_LT(paper.eps_base, practical.eps_base);
}

TEST(PaperMode, ScheduleIsTheoremShaped) {
  // φ_k = (ε/log n)^{2^{O(k)}}: log φ_k should fall ~3x per level (the
  // cube in h⁻¹).
  expander::DecompositionParams prm;
  prm.preset = Preset::kPaper;
  prm.epsilon = 0.1;
  prm.phi_floor = 0.0;
  prm.k = 2;
  const auto s = expander::derive_schedule(prm, 1 << 12, 1 << 14, 1 << 15);
  ASSERT_EQ(s.phi.size(), 3u);
  for (int i = 1; i <= 2; ++i) {
    const double ratio = std::log(s.phi[i]) / std::log(s.phi[i - 1]);
    EXPECT_GT(ratio, 2.0) << "level " << i;  // roughly cubing
    EXPECT_LT(ratio, 4.0) << "level " << i;
  }
}

TEST(PaperMode, ScheduleUnderflowsDoublesAtKThree) {
  // The literal schedule at n = 4096 is below IEEE-double range by level 3
  // (φ₂ ~ 1e-298, cubed again underflows to 0): the paper's "enormous"
  // polylog trade-off, reproduced as an arithmetic fact.  The schedule
  // derivation refuses to emit a zero φ rather than silently flooring it.
  expander::DecompositionParams prm;
  prm.preset = Preset::kPaper;
  prm.epsilon = 0.1;
  prm.phi_floor = 0.0;
  prm.k = 3;
  EXPECT_THROW(
      (void)expander::derive_schedule(prm, 1 << 12, 1 << 14, 1 << 15),
      CheckError);
}

TEST(PaperMode, OverlapCapAndKMatchFormulas) {
  const std::size_t m = 1 << 16;
  const std::uint64_t vol = 1 << 17;
  const auto prm = NibbleParams::paper(0.05, m, vol);
  EXPECT_EQ(prm.overlap_cap,
            10 * static_cast<int>(std::ceil(std::log(static_cast<double>(vol)))));
  const double lnm4 = std::log(static_cast<double>(m)) + 4.0;
  const double denom = 56.0 * prm.ell * (prm.t0 + 1.0) * prm.t0 * lnm4 / 0.05;
  EXPECT_EQ(prm.k_instances,
            static_cast<std::uint64_t>(std::max(
                1.0, std::ceil(static_cast<double>(vol) / denom))));
}

TEST(PaperMode, LddChargesDwarfPractical) {
  // The same LDD run charges the paper's O(ab log²n) classify cost; with
  // β = O(ε²/log n) this dwarfs anything practical -- the "enormous
  // polylog" reproduced as a number.
  Rng rng(2);
  const Graph g = gen::random_regular(200, 4, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 1);
  ldd::LddParams prm;
  prm.beta = 0.01;  // the scale Theorem 1 feeds in
  const auto res = ldd::low_diameter_decomposition(net, prm);
  (void)res;
  EXPECT_GT(ledger.rounds_for("LDD/classify"), 1000000u);
}

}  // namespace
}  // namespace xd::sparsecut
