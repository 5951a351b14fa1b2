// Experiment E4 -- Theorem 2 (triangle enumeration in Õ(n^{1/3}) rounds).
//
// Tables:
//   E4a  G(n, 1/2) -- the lower-bound family -- across n: rounds for the
//        CPZ+routing CONGEST algorithm (total and enumeration-only), the
//        DLP CONGESTED-CLIQUE baseline, and the neighborhood-exchange
//        baseline; log-log slopes quantify the shapes (theory: enumeration
//        and DLP ~ n^{1/3}; neighborhood exchange ~ n).
//   E4b  sparse graphs: the decomposition splits and the E* recursion
//        engages; exactness against ground truth everywhere.
//   E4c  router ablation: GKS cost model vs fully simulated TreeRouter.
//   E4d  proxy-join data plane: wall clock of the flat-arena
//        enumerate_cluster (triple ranking + counting-placed buckets +
//        in-place kernelized join + stamped scratch) over a 100-cluster
//        workload at --scale ambient vertices, checked exact against the
//        local baseline's triangle count.  --json PATH emits the E4d summary
//        (the BENCH_triangle.json trajectory point) with the run's
//        environment block; --git-rev REV names the measured revision.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/xd.hpp"
#include "util/check.hpp"

namespace {

/// Counts demands without routing: isolates the data plane's wall clock
/// from router simulation in E4d.
class NullRouter : public xd::routing::Router {
 public:
  std::uint64_t preprocess() override { return 0; }
  std::uint64_t route(const std::vector<xd::routing::Demand>& demands) override {
    demands_ += demands.size();
    ++queries_;
    return 0;
  }
  [[nodiscard]] std::uint64_t queries() const override { return queries_; }
  [[nodiscard]] std::uint64_t demands() const { return demands_; }

 private:
  std::uint64_t queries_ = 0;
  std::uint64_t demands_ = 0;
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The calling thread's per-kernel-class counters as a JSON fragment (the
/// E4d attribution block: which kernel did the work, on how many elements,
/// for how long).  Callers reset stats + enable timing around the measured
/// region first.
std::string kernels_json(const std::string& indent) {
  using namespace xd::triangle::intersect;
  const KernelStats& s = stats_for_thread();
  std::ostringstream os;
  os << indent << "\"isa\": \"" << isa_name(active_isa()) << "\",\n"
     << indent << "\"kernels\": {\n";
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    const KernelCounters& c = s.k[k];
    os << indent << "  \"" << kernel_name(static_cast<Kernel>(k)) << "\": {"
       << "\"calls\": " << c.calls << ", \"elements\": " << c.elements
       << ", \"matches\": " << c.matches
       << ", \"ms\": " << static_cast<double>(c.ns) / 1e6 << "}"
       << (k + 1 < kKernelCount ? ",\n" : "\n");
  }
  os << indent << "}";
  return os.str();
}

void print_kernel_table(const char* title) {
  using namespace xd::triangle::intersect;
  const KernelStats& s = stats_for_thread();
  xd::Table t(title, {"kernel", "calls", "elements", "matches", "ms"});
  for (std::size_t k = 0; k < kKernelCount; ++k) {
    const KernelCounters& c = s.k[k];
    t.add_row({kernel_name(static_cast<Kernel>(k)), xd::Table::cell(c.calls),
               xd::Table::cell(c.elements), xd::Table::cell(c.matches),
               xd::Table::cell(static_cast<double>(c.ns) / 1e6)});
  }
  t.print();
  std::cout << "merge-kernel ISA: " << isa_name(active_isa()) << "\n\n";
}

/// E4d: the flat proxy data plane over a synthetic multi-cluster level
/// (disjoint G(cn, 8/cn) blocks, one cluster each -- the per-cluster shape
/// the decomposition hands the enumerator, without decomposition cost).
/// The blocks are disjoint clusters, so their triangles together are all
/// of g's: the flat total must equal enumerate_local_baseline's count.
std::string run_e4d(std::size_t scale) {
  using namespace xd;
  const std::size_t cn = 1000;  // vertices per cluster
  const std::size_t clusters = std::max<std::size_t>(1, scale / cn);
  const std::size_t n = clusters * cn;
  const auto p = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::cbrt(static_cast<double>(n)))));

  Rng rng(271828);
  GraphBuilder b(n);
  std::vector<std::pair<EdgeId, EdgeId>> cluster_edge_range(clusters);
  const double p_edge = 8.0 / static_cast<double>(cn);
  for (std::size_t c = 0; c < clusters; ++c) {
    const auto base = static_cast<VertexId>(c * cn);
    const auto begin = static_cast<EdgeId>(b.num_edges());
    for (VertexId i = 0; i < cn; ++i) {
      for (VertexId j = i + 1; j < cn; ++j) {
        if (rng.next_bool(p_edge)) b.add_edge(base + i, base + j);
      }
    }
    cluster_edge_range[c] = {begin, static_cast<EdgeId>(b.num_edges())};
  }
  const Graph g = b.build();

  std::vector<std::uint32_t> groups(n);
  for (VertexId v = 0; v < n; ++v) {
    groups[v] = static_cast<std::uint32_t>(rng.next_below(p));
  }
  std::vector<std::vector<EdgeId>> cluster_edges(clusters);
  std::vector<std::vector<VertexId>> members(clusters);
  for (std::size_t c = 0; c < clusters; ++c) {
    for (EdgeId e = cluster_edge_range[c].first;
         e < cluster_edge_range[c].second; ++e) {
      cluster_edges[c].push_back(e);
    }
    for (VertexId i = 0; i < cn; ++i) {
      members[c].push_back(static_cast<VertexId>(c * cn + i));
    }
  }

  // One pass over every cluster: stamped arena membership + the flat
  // proxy plane.
  const auto run_flat = [&] {
    std::uint64_t tris = 0, demands = 0;
    auto& scratch = triangle::TriangleScratch::for_thread();
    for (std::size_t c = 0; c < clusters; ++c) {
      scratch.to_local.begin_epoch(n);
      for (std::size_t i = 0; i < members[c].size(); ++i) {
        scratch.to_local.put(members[c][i], static_cast<VertexId>(i));
      }
      NullRouter router;
      tris += triangle::enumerate_cluster(g, cluster_edges[c], groups, p,
                                          router, members[c], scratch)
                  .size();
      demands += router.demands();
    }
    return std::pair{tris, demands};
  };

  const auto [flat_tris, flat_demands] = run_flat();  // also warms the arena
  congest::RoundLedger baseline_ledger;
  const std::uint64_t baseline_tris =
      triangle::enumerate_local_baseline(g, baseline_ledger).triangles.size();
  const bool exact = flat_tris == baseline_tris;

  constexpr int kReps = 3;
  double flat_ms = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)run_flat();
    const double f = ms_since(t0);
    flat_ms = r == 0 ? f : std::min(flat_ms, f);
  }
  // Steady-state arena accounting + per-kernel attribution over one more
  // full pass (timing enabled only here, so the timed reps above stay
  // clean of clock reads).
  const auto warm = triangle::TriangleScratch::for_thread().to_local.stats();
  triangle::intersect::reset_thread_stats();
  triangle::intersect::set_timing_enabled(true);
  (void)run_flat();
  triangle::intersect::set_timing_enabled(false);
  const auto after = triangle::TriangleScratch::for_thread().to_local.stats();

  Table e4d("E4d: proxy-join data plane (wall clock)",
            {"n", "clusters", "p", "edges", "triangles", "flat ms",
             "exact?"});
  e4d.add_row({Table::cell(static_cast<std::uint64_t>(n)),
               Table::cell(static_cast<std::uint64_t>(clusters)),
               Table::cell(static_cast<std::uint64_t>(p)),
               Table::cell(static_cast<std::uint64_t>(g.num_edges())),
               Table::cell(flat_tris), Table::cell(flat_ms),
               exact ? "yes" : "NO"});
  e4d.print();
  std::cout << "scratch arena steady state: grown "
            << after.grown - warm.grown << ", reused "
            << after.reused - warm.reused << " (one epoch per cluster)\n";
  print_kernel_table("E4d kernel attribution (one flat pass)");

  std::ostringstream out;
  out << "  \"e4d\": {\n"
      << "    \"scale\": " << n << ",\n"
      << "    \"clusters\": " << clusters << ",\n"
      << "    \"p\": " << p << ",\n"
      << "    \"edges\": " << g.num_edges() << ",\n"
      << "    \"triangles\": " << flat_tris << ",\n"
      << "    \"baseline_triangles\": " << baseline_tris << ",\n"
      << "    \"demands\": " << flat_demands << ",\n"
      << "    \"flat_ms\": " << flat_ms << ",\n"
      << "    \"scratch_grown_steady\": " << after.grown - warm.grown << ",\n"
      << "    \"scratch_reused_steady\": " << after.reused - warm.reused
      << ",\n"
      << kernels_json("    ") << ",\n"
      << "    \"exact\": " << (exact ? "true" : "false") << "\n"
      << "  }";
  return out.str();
}

/// E4d-large: the join phase alone, at million-edge scale.  Two
/// components, matching the two consumers:
///
///  * **bucket**: one dense cluster's proxy plane (every edge shipped to
///    its p proxy triples, exactly the data-plane expansion), each bucket
///    merged from its group-pair lists and joined by join_proxy_plane --
///    the timed pass covers grouping, merges and joins;
///  * **csr**: the local baseline's CSR merge join csr_triangle_join on a
///    skewed graph (loaded from --input, else preferential attachment --
///    hubs cross the bitmap threshold).
///
/// Each join is checked against triangles_exact on its graph before it is
/// timed.
std::string run_e4d_large(std::size_t scale, const std::string& input,
                          bool reorder) {
  using namespace xd;
  Rng rng(161803);

  // ---- bucket-join component -------------------------------------------
  // One decomposition-shaped cluster: dense (the DLP lower-bound family is
  // G(n, 1/2); expander clusters the driver hands over are near-dense), so
  // bucket runs are long enough that the closing-edge search is the cost.
  const std::size_t cn = std::max<std::size_t>(1200, scale / 800);
  const double avg_deg = std::min<double>(400.0, static_cast<double>(cn) / 2);
  const Graph cg = gen::gnp(cn, avg_deg / static_cast<double>(cn), rng);
  const auto p = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(std::cbrt(static_cast<double>(cn)))));
  const triangle::TripleRanker ranker(p);
  std::vector<std::uint32_t> groups(cn);
  for (auto& gr : groups) gr = static_cast<std::uint32_t>(rng.next_below(p));
  std::vector<std::uint64_t> edges;
  edges.reserve(cg.num_edges());
  cg.for_each_live_edge([&](EdgeId, VertexId u, VertexId v) {
    edges.push_back(triangle::pack_edge(u, v));
  });

  triangle::JoinScratch js;
  std::vector<triangle::Triangle> tris;
  const auto bucket_join = [&] {
    // The plane sorts `edges` in place; later passes find it sorted.
    tris.clear();
    triangle::join_proxy_plane(edges, ranker, groups.data(), js, tris);
  };
  bucket_join();
  std::sort(tris.begin(), tris.end());  // walk order -> (x, y, z) order
  const bool bucket_exact = tris == triangles_exact(cg);
  const std::uint64_t bucket_tris = tris.size();

  constexpr int kReps = 3;
  double bucket_ms = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    bucket_join();
    const double ms = ms_since(t0);
    bucket_ms = r == 0 ? ms : std::min(bucket_ms, ms);
  }

  // ---- CSR-join component ----------------------------------------------
  std::string source = "preferential_attachment";
  Graph big;
  if (!input.empty()) {
    BinaryLoadOptions opt;
    opt.reorder_by_degree = reorder;
    big = read_binary_edge_list_file(input, opt).graph;
    source = input;
  } else {
    // Hub-skewed multi-million-edge graph: mid-degree vertices exercise the
    // merge kernel, the attachment hubs cross the bitmap threshold.
    big = gen::preferential_attachment(std::max<std::size_t>(50000, scale / 4),
                                       32, rng);
    if (reorder) big = xd::reorder_by_degree(big).graph;
  }
  const std::size_t bn = big.num_vertices();
  std::vector<std::uint32_t> offsets(bn + 1, 0);
  std::vector<VertexId> adj;
  adj.reserve(big.volume());
  std::vector<VertexId> tmp;
  for (VertexId v = 0; v < bn; ++v) {
    tmp.clear();
    for (const VertexId u : big.neighbors(v)) {
      if (u != v) tmp.push_back(u);
    }
    std::sort(tmp.begin(), tmp.end());
    tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
    adj.insert(adj.end(), tmp.begin(), tmp.end());
    offsets[v + 1] = static_cast<std::uint32_t>(adj.size());
  }

  const auto csr_join = [&] {
    tris.clear();
    triangle::csr_triangle_join(offsets.data(), adj.data(), bn, tris);
  };
  csr_join();
  const bool csr_exact = tris == triangles_exact(big);
  const std::uint64_t csr_tris = tris.size();

  double csr_ms = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    csr_join();
    const double ms = ms_since(t0);
    csr_ms = r == 0 ? ms : std::min(csr_ms, ms);
  }

  // Attribution pass: both joins once, with timing on.  The thread's bucket
  // buffers start empty, so afterwards they hold this join's largest bucket
  // (the "work" cell): outside any epoch every chunk runs on this thread.
  triangle::BucketScratch::for_thread() = {};
  triangle::intersect::reset_thread_stats();
  triangle::intersect::set_timing_enabled(true);
  bucket_join();
  csr_join();
  triangle::intersect::set_timing_enabled(false);

  const bool exact = bucket_exact && csr_exact;
  Table t("E4d-large: join phase on the hybrid kernels",
          {"component", "work", "triangles", "kernel ms", "exact?"});
  t.add_row({"bucket join",
             Table::cell(static_cast<std::uint64_t>(
                 triangle::BucketScratch::for_thread().u.size())),
             Table::cell(bucket_tris), Table::cell(bucket_ms),
             bucket_exact ? "yes" : "NO"});
  t.add_row({"csr join",
             Table::cell(static_cast<std::uint64_t>(big.num_edges())),
             Table::cell(csr_tris), Table::cell(csr_ms),
             csr_exact ? "yes" : "NO"});
  t.print();
  print_kernel_table("E4d-large kernel attribution (one pass of each join)");

  std::ostringstream out;
  out << "  \"e4d_large\": {\n"
      << "    \"scale\": " << scale << ",\n"
      << "    \"bucket\": {\"tuples\": "
      << std::uint64_t{p} * edges.size()  // the plane's copies, p·m
      << ", \"p\": " << p << ", \"triangles\": " << bucket_tris
      << ", \"kernel_ms\": " << bucket_ms << ", \"exact\": "
      << (bucket_exact ? "true" : "false") << "},\n"
      << "    \"csr\": {\"source\": \"" << source << "\", \"n\": " << bn
      << ", \"edges\": " << big.num_edges()
      << ", \"reordered\": " << (reorder ? "true" : "false")
      << ", \"triangles\": " << csr_tris << ", \"kernel_ms\": " << csr_ms
      << ", \"exact\": " << (csr_exact ? "true" : "false") << "},\n"
      << kernels_json("    ") << ",\n"
      << "    \"exact\": " << (exact ? "true" : "false") << "\n"
      << "  }";
  return out.str();
}

/// The CPU brand string, or "unknown" off x86 or when cpuid lacks it.
std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s.erase(std::find(s.begin(), s.end(), '\0'), s.end());
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

/// The run's environment block, in the fields xdbench records: cores,
/// CPU, kernel ISA, build type, compiler, measured revision and the scale
/// of each E4d series in the file.
std::string env_json(const std::string& git_rev, std::size_t e4d_scale,
                     std::size_t large_scale) {
  std::ostringstream out;
  out << "  \"env\": {\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": \"" << cpu_model() << "\", \"isa\": \""
      << xd::triangle::intersect::isa_name(
             xd::triangle::intersect::active_isa())
      << "\", \"build_type\": \"" << XD_BENCH_BUILD_TYPE
      << "\", \"compiler\": \"" << XD_BENCH_COMPILER << "\", \"git_rev\": \""
      << git_rev << "\", \"scale\": {\"e4d\": " << e4d_scale;
  if (large_scale > 0) out << ", \"e4d_large\": " << large_scale;
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xd;
  std::string json_path;
  std::string input;
  std::string git_rev = "unknown";
  std::size_t scale = 100000;
  bool scale_given = false;
  bool large = false;
  bool reorder = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--input") == 0 && i + 1 < argc) {
      input = argv[++i];
    } else if (std::strcmp(argv[i], "--git-rev") == 0 && i + 1 < argc) {
      git_rev = argv[++i];
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    } else if (std::strcmp(argv[i], "--reorder") == 0) {
      reorder = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      const std::string arg = argv[++i];
      try {
        std::size_t pos = 0;
        // stoull would wrap a leading '-'; reject it explicitly.
        if (arg.empty() || arg[0] == '-') throw std::invalid_argument(arg);
        scale = static_cast<std::size_t>(std::stoull(arg, &pos));
        if (pos != arg.size() || scale == 0) throw std::invalid_argument(arg);
      } catch (const std::exception&) {
        std::cerr << "bench_triangle: --scale wants a positive integer, got '"
                  << arg << "'\n";
        return 2;
      }
      scale_given = true;
    } else {
      std::cerr << "usage: bench_triangle [--json PATH] [--scale N] "
                   "[--large] [--input FILE.xdg] [--reorder] "
                   "[--git-rev REV]\n";
      return 2;
    }
  }
  if (!input.empty() && !large) {
    std::cerr << "bench_triangle: --input only applies to the --large join "
                 "phase; pass --large\n";
    return 2;
  }
  if (large && !scale_given) scale = 1000000;
  Rng master(31337);

  Table e4a("E4a: G(n, 1/2) rounds by phase (CONGEST Thm2 vs DLP vs local)",
            {"n", "m", "triangles", "decomp", "router pre", "enum (query)",
             "thm2 total", "#queries", "dlp", "local", "exact?"});
  LogLogFit fit_queries, fit_enum, fit_dlp, fit_local;
  for (const std::size_t n : {48u, 72u, 108u, 160u, 240u}) {
    Rng rg = master.fork(n);
    const Graph g = gen::gnp(n, 0.5, rg);
    const auto expect = triangle_count_exact(g);

    Rng rng = master.fork(n + 1);
    congest::RoundLedger ledger;
    triangle::EnumParams prm;
    const auto thm2 = triangle::enumerate_congest(g, prm, rng, ledger);
    const std::uint64_t enum_only =
        ledger.rounds_for("HierarchicalRouter/query") +
        ledger.rounds_for("Triangle/tiny-cluster");
    const std::uint64_t router_pre =
        ledger.rounds_for("HierarchicalRouter/preprocess");
    const std::uint64_t decomp = thm2.rounds - enum_only - router_pre;

    congest::RoundLedger dlp_ledger;
    const auto dlp = triangle::enumerate_clique_dlp(g, dlp_ledger);
    congest::RoundLedger local_ledger;
    const auto local = triangle::enumerate_local_baseline(g, local_ledger);

    const bool ok = thm2.triangles.size() == expect &&
                    dlp.triangles.size() == expect &&
                    local.triangles.size() == expect;
    e4a.add_row({Table::cell(static_cast<std::uint64_t>(n)),
                 Table::cell(static_cast<std::uint64_t>(g.num_edges())),
                 Table::cell(expect), Table::cell(decomp),
                 Table::cell(router_pre), Table::cell(enum_only),
                 Table::cell(thm2.rounds), Table::cell(thm2.router_queries),
                 Table::cell(dlp.rounds), Table::cell(local.rounds),
                 ok ? "yes" : "NO"});
    fit_queries.add(static_cast<double>(n),
                    static_cast<double>(thm2.router_queries) + 1);
    fit_enum.add(static_cast<double>(n), static_cast<double>(enum_only) + 1);
    fit_dlp.add(static_cast<double>(n), static_cast<double>(dlp.rounds) + 1);
    fit_local.add(static_cast<double>(n), static_cast<double>(local.rounds) + 1);
  }
  e4a.print();
  std::cout << "log-log slopes vs n:  #queries: " << fit_queries.slope()
            << " (theory 1/3)   enum rounds: " << fit_enum.slope()
            << " (1/3 + polylog)   dlp: " << fit_dlp.slope()
            << " (1/3)   local: " << fit_local.slope() << " (1)\n\n";

  Table e4b("E4b: sparse / clustered graphs (exactness + recursion depth)",
            {"graph", "triangles", "thm2 rounds", "levels", "clusters",
             "exact?"});
  {
    struct Case {
      const char* name;
      Graph g;
    };
    std::vector<Case> cases;
    {
      Rng r = master.fork(900);
      cases.push_back({"gnp(400, 12/n)", gen::gnp(400, 12.0 / 400, r)});
    }
    {
      Rng r = master.fork(901);
      cases.push_back(
          {"SBM(200,4,.4,.05)", gen::planted_partition(200, 4, 0.4, 0.05, r)});
    }
    cases.push_back({"clique_chain(40,7)", gen::clique_chain(40, 7)});
    {
      Rng r = master.fork(902);
      cases.push_back({"pref_attach(300,4)",
                       gen::preferential_attachment(300, 4, r)});
    }
    for (auto& c : cases) {
      Rng rng = master.fork(950 + (&c - cases.data()));
      congest::RoundLedger ledger;
      triangle::EnumParams prm;
      const auto res = triangle::enumerate_congest(c.g, prm, rng, ledger);
      const auto expect = triangle_count_exact(c.g);
      e4b.add_row({c.name,
                   Table::cell(static_cast<std::uint64_t>(expect)),
                   Table::cell(res.rounds), Table::cell(res.levels),
                   Table::cell(res.clusters_processed),
                   res.triangles.size() == expect ? "yes" : "NO"});
    }
  }
  e4b.print();

  Table e4c("E4c: router ablation on G(100, 0.5)",
            {"router", "rounds", "queries", "exact?"});
  {
    Rng rg = master.fork(999);
    const Graph g = gen::gnp(100, 0.5, rg);
    const auto expect = triangle_count_exact(g);
    // Seeds preserve the pre-selector streams: the bool backend flag
    // forked 960 + hierarchical (tree = 960, charged = 961); the new
    // simulated backend takes the next stream.
    const std::tuple<triangle::RouterBackend, const char*, int> backends[] = {
        {triangle::RouterBackend::kCharged, "GKS hierarchical (model)", 961},
        {triangle::RouterBackend::kTree, "TreeRouter (simulated)", 960},
        {triangle::RouterBackend::kHierarchicalSim,
         "GKS hierarchical (simulated)", 962}};
    for (const auto& [backend, label, seed] : backends) {
      Rng rng = master.fork(seed);
      congest::RoundLedger ledger;
      triangle::EnumParams prm;
      prm.backend = backend;
      const auto res = triangle::enumerate_congest(g, prm, rng, ledger);
      e4c.add_row({label, Table::cell(res.rounds),
                   Table::cell(res.router_queries),
                   res.triangles.size() == expect ? "yes" : "NO"});
    }
  }
  e4c.print();

  // The small E4d always runs -- it is the standing trajectory point -- at
  // its 100k scale in large mode, so large runs extend the same series.
  const std::size_t e4d_scale =
      large ? std::min<std::size_t>(scale, 100000) : scale;
  std::vector<std::string> fragments = {
      env_json(git_rev, e4d_scale, large ? scale : 0)};
  try {
    fragments.push_back(run_e4d(e4d_scale));
    if (large) fragments.push_back(run_e4d_large(scale, input, reorder));
  } catch (const CheckError& e) {
    // Bad --input files (missing, wrong magic, truncated) land here; a
    // clear message + nonzero exit lets run_all.sh fail loudly.
    std::cerr << "bench_triangle: " << e.what() << "\n";
    return 1;
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out.good()) {
      std::cerr << "bench_triangle: cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\n  \"name\": \"bench_triangle\",\n";
    for (std::size_t i = 0; i < fragments.size(); ++i) {
      out << fragments[i] << (i + 1 < fragments.size() ? ",\n" : "\n");
    }
    out << "}\n";
  }
  return 0;
}
