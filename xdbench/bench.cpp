// xdbench -- the repository benchmark: four workloads over the public
// library surface, timed from outside, with oracle-checked outputs.
//
//   xdbench --workload NAME --seed N --seconds T --trace 0|1
//           [--out-dir DIR] [--git-rev REV]
//   xdbench --list-metrics
//
// --trace 0 prints the end-to-end metrics; --trace 1 reruns the same passes
// untraced, then one traced pass plus the layer probes, writes the spans to
// DIR/trace-NAME-N.json (Chrome trace-event JSON) and prints the per-layer
// metrics.  The last stdout line is always
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// and the exit code is non-zero when any oracle failed.  README.md lists
// the workloads, the metrics and the layer -> end-to-end map.

#include <sys/resource.h>

#include <cpuid.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/xd.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace {

using namespace xd;
using xdbench::Clock;
using xdbench::Scope;
using xdbench::Tracer;
using xdbench::seconds_between;

/// Host threads every workload hands the library (scheduler, service pool,
/// ingest): the four cores the workloads were sized for.
constexpr int kThreads = 4;
/// The library's own random seed, fixed for every workload: --seed only
/// generates the inputs.  17 is PrepareParams' default build seed.
constexpr std::uint64_t kLibrarySeed = 17;
/// Set-up repeats at least kSetupReps times and for at least kSetupSeconds;
/// setup_s is the median repetition.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_rev = "unknown";
};

/// Everything one run reports: metrics by name, oracle tallies, and the
/// sample counts behind every percentile.
struct Report {
  std::map<std::string, double> metrics;
  std::map<std::string, std::size_t> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, std::string> scale;
  std::vector<double> pass_s;  ///< every measured pass, in run order

  void set(const std::string& name, double v) { metrics[name] = v; }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 20) failures.push_back(what);
    }
  }
  /// Records a percentile metric, or 0 with the refusal noted.
  void set_pick(const std::string& name, const std::vector<double>& sorted,
                double p, double scale_by = 1.0) {
    const auto pick = xdbench::percentile(sorted, p);
    samples[name] = pick.samples;
    set(name, pick.ok ? pick.value * scale_by : 0.0);
  }
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string cpu_model() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
  s.erase(std::find(s.begin(), s.end(), '\0'), s.end());
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

/// Runs `setup` repeatedly (see kSetupReps) and returns the median time.
double time_setup(const std::function<void()>& setup) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < kSetupReps ||
         seconds_between(start, Clock::now()) < kSetupSeconds) {
    const auto t0 = Clock::now();
    setup();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return xdbench::median(t);
}

/// Runs one warm-up pass (first-touch page faults, thread-pool start;
/// reported as warmup_s, not measured), then repeats `pass` (which returns
/// its own measured seconds) until `seconds` of wall time have gone by;
/// at least one measured pass.
std::vector<double> run_passes(double seconds,
                               const std::function<double()>& pass,
                               Report& rep) {
  rep.set("warmup_s", pass());
  std::vector<double> out;
  const auto t0 = Clock::now();
  do {
    out.push_back(pass());
  } while (seconds_between(t0, Clock::now()) < seconds);
  rep.samples["run_s"] = out.size();
  rep.pass_s = out;
  return out;
}

// ------------------------------------------------------------- inputs --

// Every graph is one fixed instance per workload, drawn from kLibrarySeed;
// --seed draws a relabeling of its vertices.  Round counts of the block
// graphs are maxima over hundreds of clusters and swing by a quarter
// between random instances, which would drown any change in the spread;
// a relabeled instance still hands the library different ids, edge
// endpoints and file bytes per seed, so its random choices differ.

/// g with vertex v renamed to p[v], edges kept in EdgeId order.
Graph relabel(const Graph& g, const std::vector<std::uint32_t>& p) {
  GraphBuilder b(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    b.add_edge(p[u], p[v]);
  }
  return b.build();
}

/// Disjoint G(block, 8/block) blocks covering `n` vertices, relabeled by
/// `seed` with every block kept contiguous: the blocks are shuffled, and
/// so are the ids inside each block.
Graph blocks_graph(std::size_t n, std::size_t block, std::uint64_t seed) {
  Rng rng(kLibrarySeed);
  const std::size_t blocks = std::max<std::size_t>(1, n / block);
  GraphBuilder b(blocks * block);
  const double p = 8.0 / static_cast<double>(block);
  for (std::size_t c = 0; c < blocks; ++c) {
    const auto base = static_cast<VertexId>(c * block);
    for (std::size_t i = 0; i < block; ++i) {
      for (std::size_t j = i + 1; j < block; ++j) {
        if (rng.next_bool(p)) {
          b.add_edge(base + static_cast<VertexId>(i),
                     base + static_cast<VertexId>(j));
        }
      }
    }
  }
  Rng lr(seed);
  const std::vector<std::uint32_t> order = lr.permutation(blocks);
  std::vector<std::uint32_t> label(blocks * block);
  for (std::size_t c = 0; c < blocks; ++c) {
    const std::vector<std::uint32_t> inner = lr.permutation(block);
    for (std::size_t i = 0; i < block; ++i) {
      label[c * block + i] =
          static_cast<std::uint32_t>(order[c] * block + inner[i]);
    }
  }
  return relabel(b.build(), label);
}

/// Sorted, deduplicated, loop-free CSR of g: the input the local join
/// (csr_triangle_join) expects.
struct Csr {
  std::vector<std::uint32_t> offsets;
  std::vector<VertexId> adj;
};

Csr sorted_csr(const Graph& g) {
  Csr c;
  const std::size_t n = g.num_vertices();
  c.offsets.assign(n + 1, 0);
  c.adj.reserve(g.volume());
  std::vector<VertexId> tmp;
  for (VertexId v = 0; v < n; ++v) {
    tmp.clear();
    for (const VertexId u : g.neighbors(v)) {
      if (u != v) tmp.push_back(u);
    }
    std::sort(tmp.begin(), tmp.end());
    tmp.erase(std::unique(tmp.begin(), tmp.end()), tmp.end());
    c.adj.insert(c.adj.end(), tmp.begin(), tmp.end());
    c.offsets[v + 1] = static_cast<std::uint32_t>(c.adj.size());
  }
  return c;
}

/// The graph enumerate_congest decomposes at level 0: its non-loop edges,
/// vertices renumbered in first-sight order along EdgeId order.
Graph level0_graph(const Graph& g) {
  std::vector<VertexId> local(g.num_vertices(), static_cast<VertexId>(-1));
  VertexId next = 0;
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (g.is_loop(e)) continue;
    const auto [u, v] = g.edge(e);
    for (const VertexId x : {u, v}) {
      if (local[x] == static_cast<VertexId>(-1)) local[x] = next++;
    }
    edges.emplace_back(local[u], local[v]);
  }
  GraphBuilder b(next, /*allow_parallel=*/true);
  for (const auto& [a, c] : edges) b.add_edge(a, c);
  return b.build();
}

// ------------------------------------------------------------ oracles --

std::vector<triangle::Triangle> baseline_triangles(const Graph& g) {
  congest::RoundLedger scratch;
  return triangle::enumerate_local_baseline(g, scratch).triangles;
}

bool same_components(const std::vector<serve::ComponentInfo>& a,
                     const std::vector<serve::ComponentInfo>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i];
    if (x.root != y.root || x.size != y.size || x.volume != y.volume ||
        x.cut != y.cut || x.internal_edges != y.internal_edges ||
        x.conductance != y.conductance || x.balance != y.balance ||
        x.height != y.height || x.beta != y.beta) {
      return false;
    }
  }
  return true;
}

/// Field-by-field equality of two artifacts (graph edges in EdgeId order,
/// every section, and the derived index).
bool same_artifact(const serve::PreparedArtifact& a,
                   const serve::PreparedArtifact& b) {
  if (a.graph.num_vertices() != b.graph.num_vertices() ||
      a.graph.num_edges() != b.graph.num_edges()) {
    return false;
  }
  for (EdgeId e = 0; e < a.graph.num_edges(); ++e) {
    if (a.graph.edge(e) != b.graph.edge(e)) return false;
  }
  return a.component == b.component && a.num_components == b.num_components &&
         a.removed_edge == b.removed_edge &&
         std::equal(std::begin(a.removed_by), std::end(a.removed_by),
                    std::begin(b.removed_by)) &&
         same_components(a.components, b.components) &&
         a.router_depth == b.router_depth && a.relay_parent == b.relay_parent &&
         a.relay_depth == b.relay_depth && a.portals == b.portals &&
         a.triangles == b.triangles && a.epsilon == b.epsilon && a.k == b.k &&
         a.phi0 == b.phi0 && a.backend == b.backend &&
         a.decomp_backend == b.decomp_backend && a.seed == b.seed &&
         a.build_rounds == b.build_rounds &&
         a.build_messages == b.build_messages &&
         a.enum_rounds == b.enum_rounds &&
         a.router_queries == b.router_queries &&
         a.enum_levels == b.enum_levels &&
         a.clusters_processed == b.clusters_processed &&
         a.tri_offsets == b.tri_offsets && a.tri_ids == b.tri_ids &&
         a.comp_triangles == b.comp_triangles;
}

// ----------------------------------------------------- layer probes --

/// Copies a ledger's per-label charges into layer metrics.
void ledger_metrics(const congest::RoundLedger& lg, Report& rep) {
  rep.set("routing.preprocess_rounds",
          static_cast<double>(lg.rounds_for("HierarchicalRouter/preprocess")));
  rep.set("routing.query_rounds",
          static_cast<double>(lg.rounds_for("HierarchicalRouter/query")));
  rep.set("routing.sim_hierarchy_rounds",
          static_cast<double>(lg.rounds_for("SimHierRouter/hierarchy")));
  rep.set("routing.sim_portals_rounds",
          static_cast<double>(lg.rounds_for("SimHierRouter/portals")));
  rep.set("routing.sim_forest_rounds",
          static_cast<double>(lg.rounds_for("SimHierRouter/forest")));
  rep.set("routing.sim_route_rounds",
          static_cast<double>(lg.rounds_for("SimHierRouter/route")));
}

/// The Theorem 1 probe: one expander_decomposition with fresh accounting,
/// checked by verify_decomposition.  Fills the expander.* and sparsecut.*
/// layer metrics and returns the result.
expander::DecompositionResult decompose_probe(
    const Graph& g, const expander::DecompositionParams& dprm, Rng rng,
    Tracer& tr, Report& rep, const std::string& what) {
  congest::RoundLedger lg;
  expander::DecompositionResult res;
  {
    Scope s(tr, "expander.decompose");
    res = expander::expander_decomposition(g, dprm, rng, lg);
  }
  rep.set("expander.decompose_s", tr.durations_s("expander.decompose").back());
  const auto report =
      expander::verify_decomposition(g, res, dprm.epsilon, res.phi_guarantee);
  rep.check(report.ok(), what + ": verify_decomposition failed");
  rep.set("expander.components", static_cast<double>(res.num_components));
  rep.set("expander.epochs", static_cast<double>(res.epochs));
  rep.set("expander.sparse_cut_calls",
          static_cast<double>(res.sparse_cut_calls));
  rep.set("expander.removed_edges", static_cast<double>(res.total_removed()));
  rep.set("sparsecut.nibble_rounds",
          static_cast<double>(lg.rounds_for("ParallelNibble/nibbles")));
  rep.set("sparsecut.select_rounds",
          static_cast<double>(lg.rounds_for("ParallelNibble/select")));
  rep.set("sparsecut.generate_rounds",
          static_cast<double>(lg.rounds_for("ParallelNibble/generate")));
  return res;
}

expander::DecompositionParams enum_decomposition_params(
    const triangle::EnumParams& prm) {
  expander::DecompositionParams d;
  d.epsilon = prm.epsilon;
  d.k = prm.k;
  d.phi0_override = prm.phi0_override;
  d.scheduler_threads = prm.scheduler_threads;
  return d;
}

/// Splits one enumerate_congest call (span `enum_s` seconds, drawn from
/// `rng_at_call`) into layers: the level-0 decomposition (replayed with the
/// identical Rng state), the mixing estimate on the largest level-0
/// cluster, and a local CSR join over g with per-kernel counters.  The
/// triangle plane's self time is what the probes do not explain.
void triangle_breakdown(const Graph& g, const triangle::EnumParams& prm,
                          const Rng& rng_at_call, double enum_s,
                          bool record_expander, Tracer& tr, Report& rep) {
  const Graph sub = level0_graph(g);
  Report scratch;
  Report& into = record_expander ? rep : scratch;
  const auto decomp =
      decompose_probe(sub, enum_decomposition_params(prm), rng_at_call, tr,
                      into, "level-0 decomposition");
  if (!record_expander) {
    rep.attempted += scratch.attempted;
    rep.failed += scratch.failed;
    rep.failures.insert(rep.failures.end(), scratch.failures.begin(),
                        scratch.failures.end());
  }
  const double decompose_s = tr.durations_s("expander.decompose").back();

  std::vector<std::vector<VertexId>> members(decomp.num_components);
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    members[decomp.component[v]].push_back(v);
  }
  std::size_t largest = 0;
  for (std::size_t c = 1; c < members.size(); ++c) {
    if (members[c].size() > members[largest].size()) largest = c;
  }
  const GraphView view(sub, nullptr, VertexSet(members[largest]));
  const LiveSubgraph cluster = view.materialize_induced();
  {
    Scope s(tr, "spectral.mixing_estimate");
    (void)spectral::mixing_time_estimate(cluster.graph);
  }
  const double mixing_s = tr.durations_s("spectral.mixing_estimate").back();
  rep.set("spectral.mixing_estimate_s", mixing_s);
  rep.set("triangle.plane_self_s", enum_s - decompose_s - mixing_s);

  namespace is = triangle::intersect;
  const Csr csr = sorted_csr(g);
  std::vector<triangle::Triangle> joined;
  is::set_timing_enabled(true);
  is::reset_thread_stats();
  {
    Scope s(tr, "triangle.join_probe");
    triangle::csr_triangle_join(csr.offsets.data(), csr.adj.data(),
                                g.num_vertices(), joined);
  }
  is::set_timing_enabled(false);
  const is::KernelStats stats = is::stats_for_thread();
  rep.set("triangle.join_probe_s", tr.durations_s("triangle.join_probe").back());
  for (const is::Kernel k :
       {is::Kernel::kScalar, is::Kernel::kMerge, is::Kernel::kBitmap}) {
    const std::string name = is::kernel_name(k);
    rep.set("triangle.kernel_calls." + name,
            static_cast<double>(stats.of(k).calls));
    rep.set("triangle.kernel_elements." + name,
            static_cast<double>(stats.of(k).elements));
    rep.set("triangle.kernel_ms." + name,
            static_cast<double>(stats.of(k).ns) * 1e-6);
  }
}

constexpr std::uint64_t kProbeRounds = 200;

/// Sums the sharded plane's buffer/scatter timings over every delivery of
/// a flood on g: each vertex sends on every slot each round.  (The plane
/// keeps only the last delivery's stats, so the probe drives the rounds
/// itself rather than reading them after a router run.)
void delivery_probe(const Graph& g, std::uint64_t seed, Tracer& tr,
                    Report& rep) {
  congest::RoundLedger lg;
  congest::Network net(g, lg, seed);
  net.set_shards(kThreads);
  net.set_threads(kThreads);
  auto prog = congest::make_program(
      [&](VertexId v, congest::Outbox& out) {
        for (std::uint32_t s = 0; s < g.degree(v); ++s) {
          out.send(s, congest::Message(1, v, s));
        }
      },
      [](VertexId, std::span<const congest::Envelope>) {});
  double buffer_ms = 0.0;
  double scatter_ms = 0.0;
  Scope s(tr, "congest.delivery_probe");
  for (std::uint64_t r = 0; r < kProbeRounds; ++r) {
    net.run_round(prog, "Probe/flood");
    for (const auto& sh : net.shard_delivery_stats().shard) {
      buffer_ms += sh.buffer_ms;
      scatter_ms += sh.scatter_ms;
    }
  }
  rep.check(lg.messages() == kProbeRounds * g.volume(),
            "delivery probe lost messages");
  rep.set("congest.deliver_buffer_ms", buffer_ms);
  rep.set("congest.deliver_scatter_ms", scatter_ms);
}

// ---------------------------------------------------------- workloads --

std::string fixture(const Options& o, const std::string& ext) {
  return (std::filesystem::path(o.out_dir) /
          (o.workload + "-" + std::to_string(o.seed) + ext))
      .string();
}

/// The serving cold start's parameters (shared by serve-mixed's set-up).
serve::PrepareParams prepare_params() {
  serve::PrepareParams pp;
  pp.seed = kLibrarySeed;
  pp.enumerate.scheduler_threads = kThreads;
  return pp;
}

constexpr std::size_t kBlocksN = 100000;
constexpr std::size_t kBlockSize = 250;
/// The simulated router keeps every cluster's hierarchy and relay trees in
/// memory, so its workload stays at twenty blocks.
constexpr std::size_t kSimN = 5000;

/// XDG1 -> prepare -> XDA1 save -> load, each call wrapped in a span.
struct ColdStart {
  serve::PreparedArtifact prepared;
  serve::PreparedArtifact loaded;
};

ColdStart cold_start(const std::string& xdg, const std::string& xda,
                     const serve::PrepareParams& pp, Tracer& tr) {
  ColdStart cs;
  LoadedGraph lg;
  {
    Scope s(tr, "graph.ingest");
    lg = read_binary_edge_list_file(xdg);
  }
  {
    Scope s(tr, "serve.prepare");
    cs.prepared = serve::prepare_artifact(lg.graph, pp);
  }
  {
    Scope s(tr, "serve.save");
    serve::save_artifact(cs.prepared, xda);
  }
  {
    Scope s(tr, "serve.load");
    cs.loaded = serve::load_artifact(xda);
  }
  return cs;
}

void run_prepare_blocks(const Options& o, Report& rep) {
  const std::string xdg = fixture(o, ".xdg");
  const std::string xda = fixture(o, ".xda");
  Graph g;
  const double setup_s = time_setup([&] {
    g = blocks_graph(kBlocksN, kBlockSize, o.seed);
    write_binary_edge_list_file(g, xdg);
  });
  rep.scale["n"] = std::to_string(g.num_vertices());
  rep.scale["m"] = std::to_string(g.num_edges());
  rep.scale["block"] = std::to_string(kBlockSize);
  const serve::PrepareParams pp = prepare_params();

  Tracer off(false);
  ColdStart first;
  std::uint64_t rounds = 0;
  std::size_t pass_no = 0;
  const auto passes = run_passes(o.seconds, [&] {
    const auto t0 = Clock::now();
    ColdStart cs = cold_start(xdg, xda, pp, off);
    const double s = seconds_between(t0, Clock::now());
    rep.check(same_artifact(cs.prepared, cs.loaded),
              "reloaded artifact differs from the prepared one");
    if (pass_no++ == 0) {
      rounds = cs.prepared.build_rounds;
      first = std::move(cs);
    } else {
      rep.check(same_artifact(first.prepared, cs.prepared),
                "prepare is not deterministic across passes");
    }
    return s;
  }, rep);
  rep.check(first.prepared.triangles == baseline_triangles(first.prepared.graph),
            "artifact triangles differ from enumerate_local_baseline");

  const double run_s = xdbench::median(passes);
  double total = 0.0;
  for (const double p : passes) total += p;
  rep.set("setup_s", setup_s);
  rep.set("run_s", run_s);
  rep.set("ops_per_s", static_cast<double>(g.num_edges()) *
                           static_cast<double>(passes.size()) / total);
  rep.set("congest_rounds", static_cast<double>(rounds));

  if (o.trace) {
    Tracer tr(true);
    ColdStart cs;
    {
      Scope s(tr, "workload");
      cs = cold_start(xdg, xda, pp, tr);
    }
    rep.check(same_artifact(first.prepared, cs.prepared),
              "traced prepare differs from the untraced one");
    const double traced = tr.total_s("workload");
    rep.set("trace_overhead_frac", traced / run_s - 1.0);
    rep.set("bench.harness_self_s", tr.total_self_s("workload"));
    rep.set("graph.ingest_s", tr.total_s("graph.ingest"));
    rep.set("serve.prepare_s", tr.total_s("serve.prepare"));
    rep.set("serve.save_s", tr.total_s("serve.save"));
    rep.set("serve.load_s", tr.total_s("serve.load"));
    rep.set("serve.artifact_bytes",
            static_cast<double>(std::filesystem::file_size(xda)));

    // Probes of the two composites inside prepare_artifact, on its exact
    // inputs: the serving decomposition and the Theorem 2 plane.
    expander::DecompositionParams dprm =
        enum_decomposition_params(pp.enumerate);
    dprm.backend = pp.decomp_backend;
    const auto decomp =
        decompose_probe(cs.prepared.graph, dprm, Rng(pp.seed).fork(0xD5C0), tr,
                        rep, "serving decomposition");
    rep.check(decomp.component == cs.prepared.component,
              "decompose probe differs from the artifact's partition");
    congest::RoundLedger lg;
    triangle::CongestEnumResult res;
    {
      Scope s(tr, "triangle.enumerate");
      Rng erng(pp.seed);
      res = triangle::enumerate_congest(cs.prepared.graph, pp.enumerate, erng,
                                        lg);
    }
    rep.check(res.triangles == cs.prepared.triangles &&
                  res.rounds == cs.prepared.enum_rounds,
              "enumerate probe differs from the artifact's triangle plane");
    const double enum_s = tr.total_s("triangle.enumerate");
    rep.set("triangle.enumerate_s", enum_s);
    rep.set("serve.prepare_self_s", tr.total_s("serve.prepare") -
                                        tr.durations_s("expander.decompose")
                                            .front() -
                                        enum_s);
    ledger_metrics(lg, rep);
    rep.set("routing.router_queries", static_cast<double>(res.router_queries));
    rep.set("triangle.levels", res.levels);
    rep.set("triangle.clusters", static_cast<double>(res.clusters_processed));
    rep.set("triangle.triangles", static_cast<double>(res.triangles.size()));
    rep.set("congest.messages", static_cast<double>(lg.messages()));
    rep.set("congest.messages_per_s",
            static_cast<double>(lg.messages()) / enum_s);
    triangle_breakdown(cs.prepared.graph, pp.enumerate, Rng(pp.seed), enum_s,
                       /*record_expander=*/false, tr, rep);
    rep.check(tr.write_chrome_json(fixture(o, ".trace.json")),
              "trace file not written");
  }
  std::filesystem::remove(xdg);
  std::filesystem::remove(xda);
}

void run_enumerate(const Options& o, bool simulated, Report& rep) {
  Graph g;
  const double setup_s = time_setup([&] {
    if (simulated) {
      g = blocks_graph(kSimN, kBlockSize, o.seed);
    } else {
      Rng rng(kLibrarySeed);
      const Graph pa = gen::preferential_attachment(50000, 8, rng);
      g = relabel(pa, Rng(o.seed).permutation(pa.num_vertices()));
    }
  });
  rep.scale["n"] = std::to_string(g.num_vertices());
  rep.scale["m"] = std::to_string(g.num_edges());
  if (simulated) rep.scale["block"] = std::to_string(kBlockSize);

  triangle::EnumParams prm;
  prm.backend = simulated ? triangle::RouterBackend::kHierarchicalSim
                          : triangle::RouterBackend::kCharged;
  prm.scheduler_threads = kThreads;

  const auto enumerate = [&](Tracer& tr, congest::RoundLedger& lg) {
    Scope s(tr, "triangle.enumerate");
    Rng rng(kLibrarySeed);
    return triangle::enumerate_congest(g, prm, rng, lg);
  };

  Tracer off(false);
  triangle::CongestEnumResult first;
  std::size_t pass_no = 0;
  const auto passes = run_passes(o.seconds, [&] {
    congest::RoundLedger lg;
    const auto t0 = Clock::now();
    auto res = enumerate(off, lg);
    const double s = seconds_between(t0, Clock::now());
    if (pass_no++ == 0) {
      first = std::move(res);
    } else {
      rep.check(res.triangles == first.triangles && res.rounds == first.rounds,
                "enumerate_congest is not deterministic across passes");
    }
    return s;
  }, rep);
  rep.check(first.triangles == baseline_triangles(g),
            "enumerate_congest differs from enumerate_local_baseline");

  const double run_s = xdbench::median(passes);
  double total = 0.0;
  for (const double p : passes) total += p;
  rep.set("setup_s", setup_s);
  rep.set("run_s", run_s);
  rep.set("ops_per_s", static_cast<double>(g.num_edges()) *
                           static_cast<double>(passes.size()) / total);
  rep.set("congest_rounds", static_cast<double>(first.rounds));

  if (o.trace) {
    Tracer tr(true);
    congest::RoundLedger lg;
    triangle::CongestEnumResult res;
    {
      Scope s(tr, "workload");
      res = enumerate(tr, lg);
    }
    rep.check(res.triangles == first.triangles && res.rounds == first.rounds,
              "traced enumerate differs from the untraced one");
    const double enum_s = tr.total_s("triangle.enumerate");
    rep.set("trace_overhead_frac", tr.total_s("workload") / run_s - 1.0);
    rep.set("bench.harness_self_s", tr.total_self_s("workload"));
    rep.set("triangle.enumerate_s", enum_s);
    ledger_metrics(lg, rep);
    rep.set("routing.router_queries", static_cast<double>(res.router_queries));
    rep.set("triangle.levels", res.levels);
    rep.set("triangle.clusters", static_cast<double>(res.clusters_processed));
    rep.set("triangle.triangles", static_cast<double>(res.triangles.size()));
    rep.set("congest.messages", static_cast<double>(lg.messages()));
    rep.set("congest.messages_per_s",
            static_cast<double>(lg.messages()) / enum_s);
    triangle_breakdown(g, prm, Rng(kLibrarySeed), enum_s, /*record_expander=*/true,
                       tr, rep);
    if (simulated) delivery_probe(g, kLibrarySeed, tr, rep);
    rep.check(tr.write_chrome_json(fixture(o, ".trace.json")),
              "trace file not written");
  }
}

// ------------------------------------------------------------ serving --

constexpr std::size_t kClients = 64;
constexpr std::size_t kQueriesPerPass = 1000000;
/// Admission bound below the client count, so every flush leaves clients
/// waiting under backpressure.
constexpr std::size_t kMaxPending = 48;

/// A client's next query: 30% route (both ends in one block), 30%
/// triangles_of, 10% each membership (half of them a listed triangle),
/// count, conductance and component_of.
serve::Query next_query(Rng& rng, const serve::PreparedArtifact& art) {
  using serve::QueryKind;
  const std::size_t n = art.graph.num_vertices();
  const auto vertex = [&] { return static_cast<VertexId>(rng.next_below(n)); };
  serve::Query q;
  const std::uint64_t pick = rng.next_below(10);
  if (pick < 3) {
    q.kind = QueryKind::kRoute;
    const std::size_t base = rng.next_below(n / kBlockSize) * kBlockSize;
    q.a = static_cast<VertexId>(base + rng.next_below(kBlockSize));
    q.b = static_cast<VertexId>(base + rng.next_below(kBlockSize));
  } else if (pick < 6) {
    q.kind = QueryKind::kTrianglesOf;
    q.a = vertex();
  } else if (pick < 7) {
    q.kind = QueryKind::kTriangleMembership;
    if (!art.triangles.empty() && rng.next_bool(0.5)) {
      const auto& t = art.triangles[rng.next_below(art.triangles.size())];
      q.a = t[0];
      q.b = t[1];
      q.c = t[2];
    } else {
      q.a = vertex();
      q.b = vertex();
      q.c = vertex();
    }
  } else if (pick < 8) {
    q.kind = QueryKind::kTriangleCount;
  } else if (pick < 9) {
    q.kind = QueryKind::kConductance;
    q.a = static_cast<VertexId>(rng.next_below(art.num_components));
  } else {
    q.kind = QueryKind::kComponentOf;
    q.a = vertex();
  }
  return q;
}

/// Is `r` what a direct PreparedArtifact read answers for `q`?
bool answer_matches(const serve::PreparedArtifact& art, const serve::Query& q,
                    const serve::QueryResult& r, std::vector<VertexId>& path) {
  using serve::QueryKind;
  if (r.kind != q.kind || !r.exact) return false;
  switch (q.kind) {
    case QueryKind::kTriangleCount:
      return r.ok && r.value == art.triangle_count();
    case QueryKind::kTrianglesOf: {
      const auto ids = art.triangles_of(q.a);
      return r.ok && std::equal(r.ids.begin(), r.ids.end(), ids.begin(),
                                ids.end());
    }
    case QueryKind::kTriangleMembership:
      return r.ok && r.value == (art.has_triangle(q.a, q.b, q.c) ? 1u : 0u);
    case QueryKind::kRoute:
      path.clear();
      if (!art.relay_path(q.a, q.b, path)) return !r.ok;
      return r.ok && std::equal(r.ids.begin(), r.ids.end(), path.begin(),
                                path.end());
    case QueryKind::kConductance:
      return r.ok && r.scalar == art.components[q.a].conductance &&
             r.value == art.components[q.a].size;
    case QueryKind::kComponentOf:
      return r.ok && r.value == art.component_of(q.a);
  }
  return false;
}

/// One closed-loop pass's outcome.
struct ServePass {
  double seconds = 0.0;  ///< wall time minus the oracle checks
  std::uint64_t rounds = 0;
  std::uint64_t flushes = 0;
  std::uint64_t submits = 0;
  std::uint64_t rejected = 0;
  serve::ServiceHealth health;
  std::uint64_t drain_rounds = 0;
  std::uint64_t query_rounds = 0;
};

/// Per-query latencies of one pass, by kind.  The buffers are reused
/// across passes, so memory does not grow with the pass count.
struct Latencies {
  std::vector<double> all_us;
  std::vector<double> route_us;   ///< Phase B (drained) queries
  std::vector<double> lookup_us;  ///< Phase A only
};

/// Reads one pass's latency percentiles into `picks` (one value per pass;
/// a refused pick is left out) and counts the samples behind them.
void add_picks(Latencies& lat, std::map<std::string, std::vector<double>>& picks,
               Report& rep) {
  const auto add = [&](const std::string& name, std::vector<double>& v,
                       double p) {
    std::sort(v.begin(), v.end());
    const auto pick = xdbench::percentile(v, p);
    rep.samples[name] += pick.samples;
    if (pick.ok) picks[name].push_back(pick.value);
  };
  add("serve.query_p50_us", lat.all_us, 50);
  add("serve.query_p99_us", lat.all_us, 99);
  add("serve.route_p99_us", lat.route_us, 99);
  add("serve.lookup_p99_us", lat.lookup_us, 99);
}

/// kClients closed-loop clients, one outstanding query each, against a
/// fresh QueryService until kQueriesPerPass answers came back.  A client
/// bounced by backpressure keeps its query and its first-attempt time and
/// retries (FIFO) after the next flush.  Latency runs from the first submit
/// attempt to the end of the flush that answered it.
ServePass serve_pass(const serve::PreparedArtifact& art, std::uint64_t seed,
                     Tracer& tr, Report& rep, Latencies& lat) {
  serve::ServiceParams prm;
  prm.threads = kThreads;
  prm.max_batch = 256;
  prm.max_pending = kMaxPending;
  serve::QueryService svc(art, prm);

  std::vector<Rng> rngs;
  for (std::size_t c = 0; c < kClients; ++c) rngs.push_back(Rng(seed).fork(c));
  std::vector<serve::Query> current(kClients);
  std::vector<Clock::time_point> first_try(kClients);
  std::vector<char> has_query(kClients, 0);
  std::deque<std::uint32_t> ready;
  for (std::uint32_t c = 0; c < kClients; ++c) ready.push_back(c);

  ServePass out;
  std::vector<VertexId> path;
  lat.all_us.clear();
  lat.route_us.clear();
  lat.lookup_us.clear();
  std::uint64_t issued = 0;
  std::uint64_t served = 0;
  double check_s = 0.0;
  const auto t0 = Clock::now();
  while (served < kQueriesPerPass) {
    {
      Scope s(tr, "serve.submit_burst");
      while (!ready.empty() && issued < kQueriesPerPass) {
        const std::uint32_t c = ready.front();
        if (!has_query[c]) {
          current[c] = next_query(rngs[c], art);
          first_try[c] = Clock::now();
          has_query[c] = 1;
        }
        ++out.submits;
        if (!svc.submit(c, current[c])) {
          ++out.rejected;
          break;
        }
        ready.pop_front();
        ++issued;
      }
    }
    std::vector<serve::QueryResult> batch;
    {
      Scope s(tr, "serve.flush");
      batch = svc.flush();
    }
    const auto done = Clock::now();
    ++out.flushes;
    if (batch.empty()) {
      rep.check(false, "flush returned nothing with queries outstanding");
      break;
    }
    for (const auto& r : batch) {
      const double us =
          std::chrono::duration<double, std::micro>(done - first_try[r.client])
              .count();
      lat.all_us.push_back(us);
      (r.kind == serve::QueryKind::kRoute ? lat.route_us : lat.lookup_us)
          .push_back(us);
    }
    for (const auto& r : batch) {
      rep.check(answer_matches(art, current[r.client], r, path),
                "served answer differs from a direct artifact read");
      has_query[r.client] = 0;
      ready.push_back(r.client);
    }
    check_s += seconds_between(done, Clock::now());
    served += batch.size();
  }
  out.seconds = seconds_between(t0, Clock::now()) - check_s;
  out.rounds = svc.ledger().rounds();
  out.drain_rounds = svc.ledger().rounds_for("Serve/drain");
  out.query_rounds = svc.ledger().rounds_for("Serve/query");
  out.health = svc.health();
  return out;
}

void run_serve(const Options& o, Report& rep) {
  const std::string xdg = fixture(o, ".xdg");
  const std::string xda = fixture(o, ".xda");
  const serve::PrepareParams pp = prepare_params();
  Tracer off(false);
  ColdStart cs;
  const double setup_s = time_setup([&] {
    const Graph g = blocks_graph(kBlocksN, kBlockSize, o.seed);
    write_binary_edge_list_file(g, xdg);
    cs = cold_start(xdg, xda, pp, off);
  });
  rep.check(same_artifact(cs.prepared, cs.loaded),
            "reloaded artifact differs from the prepared one");
  std::filesystem::remove(xdg);
  std::filesystem::remove(xda);
  cs.prepared = serve::PreparedArtifact{};  // serve from the loaded copy only
  const serve::PreparedArtifact& art = cs.loaded;
  rep.scale["n"] = std::to_string(art.graph.num_vertices());
  rep.scale["m"] = std::to_string(art.graph.num_edges());
  rep.scale["clients"] = std::to_string(kClients);
  rep.scale["queries_per_pass"] = std::to_string(kQueriesPerPass);

  Latencies lat;
  std::map<std::string, std::vector<double>> picks;
  ServePass first;
  std::size_t pass_no = 0;
  const auto passes = run_passes(o.seconds, [&] {
    const ServePass p = serve_pass(art, o.seed, off, rep, lat);
    if (pass_no++ == 0) {
      first = p;  // the warm-up: its latencies are not part of the sample
    } else {
      rep.check(p.rounds == first.rounds,
                "service round charges differ across passes");
      add_picks(lat, picks, rep);
    }
    return p.seconds;
  }, rep);
  double total = 0.0;
  for (const double p : passes) total += p;
  rep.set("setup_s", setup_s);
  rep.set("run_s", xdbench::median(passes));
  rep.set("ops_per_s", static_cast<double>(passes.size() * kQueriesPerPass) /
                           total);
  rep.set("congest_rounds", static_cast<double>(first.rounds));
  for (const auto& [name, values] : picks) {
    rep.set(name, xdbench::median(values));
  }

  if (o.trace) {
    Tracer tr(true);
    ServePass p;
    {
      Scope s(tr, "workload");
      p = serve_pass(art, o.seed, tr, rep, lat);
    }
    rep.check(p.rounds == first.rounds,
              "traced service round charges differ from the untraced ones");
    // p.seconds leaves out the oracle checks, like the untraced passes.
    rep.set("trace_overhead_frac", p.seconds / xdbench::median(passes) - 1.0);
    rep.set("bench.harness_self_s", tr.total_self_s("workload"));
    auto flush_s = tr.durations_s("serve.flush");
    std::sort(flush_s.begin(), flush_s.end());
    rep.set("serve.flush_busy_frac", tr.total_s("serve.flush") / p.seconds);
    rep.set_pick("serve.flush_p50_ms", flush_s, 50, 1e3);
    rep.set_pick("serve.flush_p99_ms", flush_s, 99, 1e3);
    rep.set("serve.batch_mean", static_cast<double>(kQueriesPerPass) /
                                    static_cast<double>(p.flushes));
    rep.set("serve.submit_rejected_frac", static_cast<double>(p.rejected) /
                                              static_cast<double>(p.submits));
    rep.set("serve.drain_rounds", static_cast<double>(p.drain_rounds));
    rep.set("serve.query_rounds", static_cast<double>(p.query_rounds));
    rep.set("serve.flush_retries", static_cast<double>(p.health.flush_retries));
    rep.set("serve.degraded_answers",
            static_cast<double>(p.health.degraded_answers));
    rep.check(tr.write_chrome_json(fixture(o, ".trace.json")),
              "trace file not written");
  }
}

// ------------------------------------------------------------- output --

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

template <std::size_t N>
std::string metrics_json(const xdbench::MetricDef (&defs)[N],
                         const Report& rep) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = rep.metrics.find(defs[i].name);
    const double v = it == rep.metrics.end() ? 0.0 : it->second;
    out += (i ? ", " : "") + json_string(defs[i].name) + ": {\"value\": " +
           json_number(v) + ", \"unit\": " + json_string(defs[i].unit) + "}";
  }
  return out + "}";
}

template <std::size_t N>
void list_metrics(const char* kind, const xdbench::MetricDef (&defs)[N]) {
  for (const auto& d : defs) {
    std::cout << kind << ' ' << d.name << ' ' << d.unit << ' ' << d.better
              << '\n';
  }
}

int usage() {
  std::cerr << "usage: xdbench --workload prepare-blocks|enumerate-powerlaw|"
               "enumerate-simrouter|serve-mixed --seed N --seconds T "
               "--trace 0|1 [--out-dir DIR] [--git-rev REV]\n"
               "       xdbench --list-metrics\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--list-metrics") {
        list_metrics("end_to_end", xdbench::kEndToEnd);
        list_metrics("per_layer", xdbench::kPerLayer);
        return 0;
      }
      if (i + 1 >= argc) return usage();
      const std::string val = argv[++i];
      std::size_t pos = 0;
      if (flag == "--workload") {
        o.workload = val;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(val, &pos);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(val, &pos);
      } else if (flag == "--trace") {
        o.trace = std::stoi(val, &pos) != 0;
      } else if (flag == "--out-dir") {
        o.out_dir = val;
      } else if (flag == "--git-rev") {
        o.git_rev = val;
      } else {
        return usage();
      }
      if (pos != 0 && pos != val.size()) return usage();
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || !(o.seconds > 0)) return usage();

  // Each of these silently swaps the code path under measurement.
  for (const char* var : {"XD_SHARDS", "XD_FORCE_SCALAR", "XD_FAULTS"}) {
    if (std::getenv(var) != nullptr) {
      std::cerr << "xdbench: refusing to run with " << var
                << " set (it changes the measured code path)\n";
      return 2;
    }
  }

  std::filesystem::create_directories(o.out_dir);
  Report rep;
  try {
    if (o.workload == "prepare-blocks") {
      run_prepare_blocks(o, rep);
    } else if (o.workload == "enumerate-powerlaw") {
      run_enumerate(o, /*simulated=*/false, rep);
    } else if (o.workload == "enumerate-simrouter") {
      run_enumerate(o, /*simulated=*/true, rep);
    } else if (o.workload == "serve-mixed") {
      run_serve(o, rep);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    rep.check(false, std::string("exception: ") + e.what());
  }

  if (rep.attempted == 0) rep.check(false, "no operation was checked");
  const double failed_frac =
      static_cast<double>(rep.failed) / static_cast<double>(rep.attempted);
  rep.set("ok_frac", 1.0 - failed_frac);
  rep.set("failed_frac", failed_frac);
  rep.set("peak_rss_mb", peak_rss_mb());

  // Detail line: the environment, scale, sample counts and failures.
  std::ostringstream env;
  env << "{\"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu\": " << json_string(cpu_model()) << ", \"isa\": "
      << json_string(triangle::intersect::isa_name(
             triangle::intersect::active_isa()))
      << ", \"build_type\": " << json_string(XDBENCH_BUILD_TYPE)
      << ", \"compiler\": " << json_string(XDBENCH_COMPILER)
      << ", \"git_rev\": " << json_string(o.git_rev)
      << ", \"workload\": " << json_string(o.workload)
      << ", \"seed\": " << o.seed << ", \"seconds\": " << json_number(o.seconds)
      << ", \"threads\": " << kThreads << ", \"scale\": {";
  bool first = true;
  for (const auto& [k, v] : rep.scale) {
    env << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  env << "}}";
  std::ostringstream detail;
  detail << "{\"env\": " << env.str() << ", \"samples\": {";
  first = true;
  for (const auto& [k, v] : rep.samples) {
    detail << (first ? "" : ", ") << json_string(k) << ": " << v;
    first = false;
  }
  detail << "}, \"pass_s\": [";
  for (std::size_t i = 0; i < rep.pass_s.size(); ++i) {
    detail << (i ? ", " : "") << json_number(rep.pass_s[i]);
  }
  detail << "], \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i) {
    detail << (i ? ", " : "") << json_string(rep.failures[i]);
  }
  detail << "], \"all_metrics\": {";
  first = true;
  for (const auto& [k, v] : rep.metrics) {
    detail << (first ? "" : ", ") << json_string(k) << ": " << json_number(v);
    first = false;
  }
  detail << "}}";
  std::cout << detail.str() << "\n";

  std::cout << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << rep.attempted
            << ", \"failed\": " << rep.failed << ", \"metrics\": "
            << (o.trace ? metrics_json(xdbench::kPerLayer, rep)
                        : metrics_json(xdbench::kEndToEnd, rep))
            << "}" << std::endl;
  return rep.failed == 0 ? 0 : 1;
}
