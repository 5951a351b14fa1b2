// Experiment E8 -- simulator micro-benchmarks (google-benchmark): how fast
// the kernel executes exchanges, diffusion steps, BFS waves, and the MPX
// clustering.  These bound the experiment scales everything else can reach.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "core/xd.hpp"

namespace {

using namespace xd;

/// Flood graphs, cached across benchmark-framework invocations: the large
/// (8M-edge) tier would otherwise regenerate a 2M-vertex random-regular
/// graph for every warmup estimation call and repetition.  Degree 6 keeps
/// the historical 100k-vertex A/B unchanged; the >= 1M tier uses degree 8
/// (8M undirected edges at n = 2M).
const Graph& flood_graph(std::size_t n) {
  static auto* cache = new std::map<std::size_t, Graph>;
  auto it = cache->find(n);
  if (it == cache->end()) {
    Rng rng(1);
    const int degree = n >= 1000000 ? 8 : 6;
    it = cache->emplace(n, gen::random_regular(n, degree, rng)).first;
  }
  return it->second;
}

/// Stage one full flood: every vertex sends on every non-loop slot.
void stage_flood(const Graph& g, congest::Network& net) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    for (std::uint32_t s = 0; s < nbrs.size(); ++s) {
      if (nbrs[s] == v) continue;
      net.send(v, s, congest::Message{1, v});
    }
  }
}

/// Delivery only: staging happens outside the timed region, so the
/// items/sec counter is pure message-delivery throughput of the one-shard
/// plane (Network's default), the baseline BM_DeliverSharded is compared
/// against.
void BM_DeliverFlat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Graph& g = flood_graph(n);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 3);
  net.set_shards(1);  // one-shard plane even if XD_SHARDS leaks into the env
  for (auto _ : state) {
    state.PauseTiming();
    stage_flood(g, net);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.exchange("bench"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.volume()));
}
BENCHMARK(BM_DeliverFlat)->Arg(10000)->Arg(100000)->UseRealTime();

/// The S-shard vs one-shard delivery A/B (args: vertices, shards).  Staging
/// happens outside the timed region like BM_DeliverFlat (the aggregation
/// buffers fill at send time, which is the point of the plane); the timed
/// exchange is the S x S buffer exchange plus canonicalize/count/scatter --
/// the whole sharded delivery.  Acceptance: >= 2x BM_DeliverFlat at 100k
/// vertices with 8 shards (BENCH_kernel_summary.json), on wall-clock
/// (UseRealTime -- phase work runs on scheduler workers, so CPU time of the
/// bench thread is meaningless).  Worker threads are capped at the host's
/// hardware concurrency: shards are a data layout, not a thread count, and
/// oversubscribing cores would only add scheduling noise.  Counters expose
/// the last delivery's per-shard buffer/scatter phase timings (a
/// representative snapshot, not an iteration average).
void BM_DeliverSharded(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const Graph& g = flood_graph(n);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 3);
  net.set_shards(shards);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  net.set_threads(static_cast<int>(
      std::min<unsigned>(static_cast<unsigned>(shards), hw)));
  for (auto _ : state) {
    state.PauseTiming();
    stage_flood(g, net);
    state.ResumeTiming();
    benchmark::DoNotOptimize(net.exchange("bench"));
  }
  const congest::ShardDeliveryStats& st = net.shard_delivery_stats();
  double buffer_total = 0;
  double scatter_total = 0;
  for (std::size_t s = 0; s < st.shard.size(); ++s) {
    buffer_total += st.shard[s].buffer_ms;
    scatter_total += st.shard[s].scatter_ms;
    state.counters["shard" + std::to_string(s) + "_buffer_ms"] =
        benchmark::Counter(st.shard[s].buffer_ms);
    state.counters["shard" + std::to_string(s) + "_scatter_ms"] =
        benchmark::Counter(st.shard[s].scatter_ms);
  }
  state.counters["buffer_ms"] = benchmark::Counter(buffer_total);
  state.counters["scatter_ms"] = benchmark::Counter(scatter_total);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.volume()));
}
BENCHMARK(BM_DeliverSharded)
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->UseRealTime();

// The --large 8M-edge A/B (n = 2M, degree 8) registers only when
// XD_KERNEL_LARGE is set -- bench/run_all.sh --large exports it so the
// default and --quick tiers stay fast.
[[maybe_unused]] const int kLargeRegistered = [] {
  if (std::getenv("XD_KERNEL_LARGE") == nullptr) return 0;
  benchmark::RegisterBenchmark("BM_DeliverFlat", BM_DeliverFlat)
      ->Arg(2000000)->UseRealTime();
  benchmark::RegisterBenchmark("BM_DeliverSharded", BM_DeliverSharded)
      ->Args({2000000, 8})->UseRealTime();
  return 1;
}();

/// Whole staged round (staging + delivery) through the engine.
void BM_RoundFlat(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Graph g = gen::random_regular(n, 6, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 3);
  for (auto _ : state) {
    stage_flood(g, net);
    benchmark::DoNotOptimize(net.exchange("bench"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.volume()));
}
BENCHMARK(BM_RoundFlat)->Arg(10000)->Arg(100000);

void BM_ExchangeFlood(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Graph g = gen::random_regular(n, 6, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 3);
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      auto nbrs = g.neighbors(v);
      for (std::uint32_t s = 0; s < nbrs.size(); ++s) {
        net.send(v, s, congest::Message{1, v});
      }
    }
    benchmark::DoNotOptimize(net.exchange("bench"));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.volume()));
}
BENCHMARK(BM_ExchangeFlood)->Arg(1000)->Arg(4000);

void BM_TruncatedStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Graph g = gen::random_regular(n, 6, rng);
  auto dist = spectral::SparseDist::point(0);
  // Pre-spread so the step works on a realistic support.
  for (int t = 0; t < 8; ++t) dist = spectral::truncated_step(g, dist, 1e-7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::truncated_step(g, dist, 1e-7));
  }
}
BENCHMARK(BM_TruncatedStep)->Arg(1000)->Arg(4000);

void BM_BfsForest(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const Graph g = gen::random_regular(n, 6, rng);
  const std::vector<char> active(n, 1);
  for (auto _ : state) {
    congest::RoundLedger ledger;
    congest::Network net(g, ledger, 5);
    benchmark::DoNotOptimize(prim::build_forest(net, active, "bench"));
  }
}
BENCHMARK(BM_BfsForest)->Arg(1000)->Arg(4000);

void BM_MpxClustering(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const Graph g = gen::random_regular(n, 6, rng);
  for (auto _ : state) {
    congest::RoundLedger ledger;
    congest::Network net(g, ledger, 7);
    benchmark::DoNotOptimize(ldd::mpx_clustering(net, 0.3, "bench"));
  }
}
BENCHMARK(BM_MpxClustering)->Arg(1000)->Arg(4000);

void BM_SweepCut(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Graph g = gen::random_regular(n, 6, rng);
  std::vector<double> rho(n);
  for (auto& x : rho) x = rng.next_double();
  for (auto _ : state) {
    benchmark::DoNotOptimize(spectral::sweep_cut(g, rho));
  }
}
BENCHMARK(BM_SweepCut)->Arg(1000)->Arg(4000);

void BM_TriangleGroundTruth(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const Graph g = gen::gnp(n, 0.3, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(triangle_count_exact(g));
  }
}
BENCHMARK(BM_TriangleGroundTruth)->Arg(200)->Arg(400);

}  // namespace

BENCHMARK_MAIN();
