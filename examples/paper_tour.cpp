// A guided tour of the paper, theorem by theorem, on one small graph --
// run this to see every major component fire in order.
//
//   $ ./paper_tour [seed]

#include <cmath>
#include <cstdlib>
#include <iostream>

#include "core/xd.hpp"

int main(int argc, char** argv) {
  using namespace xd;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2;

  Rng rng(seed);
  const Graph g = gen::dumbbell_expanders(60, 60, 4, 2, rng);
  std::cout << "graph: two 4-regular expanders (60+60) bridged by 2 edges; "
            << "m=" << g.num_edges() << "\n\n";

  // --- §1: the Jerrum–Sinclair relation everything rests on. ---
  const auto cut = spectral::fiedler_sweep(g);
  const auto tau = spectral::mixing_time_simulated(g);
  std::cout << "[JS]     conductance ~ " << cut->conductance
            << ", mixing time " << tau << " (1/(4phi)=" << 0.25 / cut->conductance
            << " <= tau <= 16 ln(vol)/phi^2="
            << 16.0 * std::log(static_cast<double>(g.volume())) /
                   (cut->conductance * cut->conductance)
            << ")\n";

  // --- Theorem 4: low-diameter decomposition. ---
  {
    congest::RoundLedger ledger;
    congest::Network net(g, ledger, seed);
    ldd::LddParams prm;
    prm.beta = 0.4;
    const auto res = ldd::low_diameter_decomposition(net, prm);
    std::cout << "[Thm 4]  LDD(beta=0.4): " << res.num_components
              << " component(s), " << res.num_cut_edges << " cut edges "
              << "(budget " << static_cast<std::uint64_t>(0.4 * g.num_edges())
              << "), " << res.rounds << " rounds\n";
  }

  // --- Appendix A: one kernel-executed ApproximateNibble. ---
  {
    congest::RoundLedger ledger;
    congest::Network net(g, ledger, seed);
    auto prm =
        sparsecut::NibbleParams::practical(0.05, g.num_edges(), g.volume());
    prm.stall_tolerance = 0.0;
    prm.t0 = 60;
    const auto res =
        sparsecut::distributed_approximate_nibble(net, 0, prm, 6, "tour");
    std::cout << "[Nibble] distributed ApproximateNibble: "
              << (res.found()
                      ? "cut of " + std::to_string(res.cut.size()) +
                            " vertices at walk step " + std::to_string(res.t_used)
                      : std::string("no cut"))
              << ", " << res.rank_selects << " Lemma-9 rank selects, "
              << res.rounds << " rounds\n";
  }

  // --- Theorem 3: the nearly most balanced sparse cut. ---
  {
    congest::RoundLedger ledger;
    Rng r(seed + 2);
    const auto res = sparsecut::nearly_most_balanced_sparse_cut(
        g, 0.02, sparsecut::Preset::kPractical, r, ledger);
    std::cout << "[Thm 3]  sparse cut: phi=" << res.conductance
              << " bal=" << res.balance << " (target bal >= min{b/2,1/48}="
              << 1.0 / 48 << "), " << res.rounds << " rounds\n";
  }

  // --- Theorem 1: the full expander decomposition. ---
  expander::DecompositionResult decomp;
  {
    congest::RoundLedger ledger;
    Rng r(seed + 3);
    expander::DecompositionParams prm;
    prm.epsilon = 0.25;
    prm.k = 2;
    prm.phi0_override = 0.02;
    decomp = expander::expander_decomposition(g, prm, r, ledger);
    const auto report = expander::verify_decomposition(
        g, decomp, prm.epsilon, decomp.schedule.phi_final());
    std::cout << "[Thm 1]  decomposition: " << decomp.num_components
              << " components, cut fraction " << report.cut_fraction
              << ", min certified conductance " << report.min_conductance_lower
              << (report.ok() ? " [verified]" : " [FAILED]") << "\n";
  }

  // --- §3 / Theorem 2: routing + triangle enumeration. ---
  {
    congest::RoundLedger ledger;
    routing::HierarchicalParams hp;
    hp.depth = 2;
    routing::HierarchicalRouter router(g, ledger, hp);
    router.preprocess();
    std::cout << "[GKS]    router(k=2): preprocess "
              << router.preprocessing_cost() << " rounds, query "
              << router.query_cost() << " rounds (tau_mix "
              << router.tau_mix() << ")\n";
  }
  {
    congest::RoundLedger ledger;
    Rng r(seed + 4);
    triangle::EnumParams prm;
    const auto res = triangle::enumerate_congest(g, prm, r, ledger);
    std::cout << "[Thm 2]  triangles: " << res.triangles.size() << " of "
              << triangle_count_exact(g) << " found, " << res.rounds
              << " rounds over " << res.levels << " recursion level(s)\n";
  }
  return 0;
}
