#pragma once

/// \file metrics.hpp
/// Every metric the benchmark can print, with its unit and direction.  The
/// runner prints exactly these names (end-to-end with --trace 0, per-layer
/// with --trace 1); `xdbench --list-metrics` dumps the tables so the
/// self-test can hold BENCHMARK.json to them.  README.md says what each
/// one measures on each workload.

namespace xdbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" | "higher"
};

inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"run_s", "s", "lower"},
    {"ops_per_s", "1/s", "higher"},
    {"congest_rounds", "count", "lower"},
    {"ok_frac", "fraction", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

inline constexpr MetricDef kPerLayer[] = {
    {"failed_frac", "fraction", "lower"},
    {"trace_overhead_frac", "fraction", "lower"},
    {"bench.harness_self_s", "s", "lower"},
    // graph/ + serve/ artifact lifecycle
    {"graph.ingest_s", "s", "lower"},
    {"serve.prepare_s", "s", "lower"},
    {"serve.prepare_self_s", "s", "lower"},
    {"serve.save_s", "s", "lower"},
    {"serve.load_s", "s", "lower"},
    {"serve.artifact_bytes", "bytes", "lower"},
    // expander/ + sparsecut/
    {"expander.decompose_s", "s", "lower"},
    {"expander.components", "count", "higher"},
    {"expander.epochs", "count", "lower"},
    {"expander.sparse_cut_calls", "count", "lower"},
    {"expander.removed_edges", "count", "lower"},
    {"sparsecut.nibble_rounds", "count", "lower"},
    {"sparsecut.select_rounds", "count", "lower"},
    {"sparsecut.generate_rounds", "count", "lower"},
    // spectral/ + routing/ (charged)
    {"spectral.mixing_estimate_s", "s", "lower"},
    {"routing.preprocess_rounds", "count", "lower"},
    {"routing.query_rounds", "count", "lower"},
    {"routing.router_queries", "count", "lower"},
    // triangle/
    {"triangle.enumerate_s", "s", "lower"},
    {"triangle.plane_self_s", "s", "lower"},
    {"triangle.join_probe_s", "s", "lower"},
    {"triangle.levels", "count", "lower"},
    {"triangle.clusters", "count", "lower"},
    {"triangle.triangles", "count", "higher"},
    {"triangle.kernel_calls.scalar", "count", "lower"},
    {"triangle.kernel_calls.merge", "count", "lower"},
    {"triangle.kernel_calls.bitmap", "count", "lower"},
    {"triangle.kernel_elements.scalar", "count", "lower"},
    {"triangle.kernel_elements.merge", "count", "lower"},
    {"triangle.kernel_elements.bitmap", "count", "lower"},
    {"triangle.kernel_ms.scalar", "ms", "lower"},
    {"triangle.kernel_ms.merge", "ms", "lower"},
    {"triangle.kernel_ms.bitmap", "ms", "lower"},
    // routing/ (simulated) + congest/
    {"routing.sim_hierarchy_rounds", "count", "lower"},
    {"routing.sim_portals_rounds", "count", "lower"},
    {"routing.sim_forest_rounds", "count", "lower"},
    {"routing.sim_route_rounds", "count", "lower"},
    {"congest.messages", "count", "lower"},
    {"congest.messages_per_s", "1/s", "higher"},
    {"congest.deliver_buffer_ms", "ms", "lower"},
    {"congest.deliver_scatter_ms", "ms", "lower"},
    // serve/ query service
    {"serve.query_p50_us", "us", "lower"},
    {"serve.query_p99_us", "us", "lower"},
    {"serve.route_p99_us", "us", "lower"},
    {"serve.lookup_p99_us", "us", "lower"},
    {"serve.flush_busy_frac", "fraction", "lower"},
    {"serve.flush_p50_ms", "ms", "lower"},
    {"serve.flush_p99_ms", "ms", "lower"},
    {"serve.batch_mean", "count", "higher"},
    {"serve.submit_rejected_frac", "fraction", "lower"},
    {"serve.drain_rounds", "count", "lower"},
    {"serve.query_rounds", "count", "lower"},
    {"serve.flush_retries", "count", "lower"},
    {"serve.degraded_answers", "count", "lower"},
};

}  // namespace xdbench
