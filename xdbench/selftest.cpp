// Self-test of the benchmark's own logic (trace.hpp, metrics.hpp): the
// percentile pick, self time on nested spans, the trace file, and the
// metric-name rule.  Prints one line per failed check; exit 0 iff all pass.
//   cmake --build .bench_build/xdbench --target xdbench_selftest
//   .bench_build/xdbench/xdbench_selftest

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cout << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void percentile_pick() {
  using xdbench::percentile;
  // p99 of 1000 samples: rank 990, ten samples beyond it -- reportable.
  const auto p = percentile(iota(1000), 99);
  expect(p.ok && p.value == 990.0 && p.beyond == 10 && p.samples == 1000,
         "p99 of 1000 samples is the 990th with 10 beyond");
  // 999 samples leave only 9 beyond the p99 rank: refused.
  const auto q = percentile(iota(999), 99);
  expect(!q.ok && q.samples == 999 && q.beyond < xdbench::kMinBeyond,
         "p99 of 999 samples is refused");
  // The median needs 20 samples before ten lie beyond it.
  expect(!percentile(iota(19), 50).ok, "median of 19 samples is refused");
  const auto m = percentile(iota(20), 50);
  expect(m.ok && m.value == 10.0 && m.beyond == 10, "median of 20 samples");
  // Never report a pick with fewer than ten beyond, for any size and p.
  for (std::size_t n = 0; n < 300; ++n) {
    const auto v = iota(n);
    for (const double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
      const auto r = percentile(v, pct);
      expect(r.samples == n, "pick states its sample count");
      if (r.ok) {
        const auto idx = static_cast<std::size_t>(r.value) - 1;
        expect(n - 1 - idx >= xdbench::kMinBeyond,
               "reported pick has ten samples beyond it");
      }
    }
  }
  expect(!percentile({}, 50).ok, "empty sample is refused");
  expect(xdbench::median({3.0, 1.0, 2.0}) == 2.0 &&
             xdbench::median({4.0, 1.0, 2.0, 3.0}) == 2.5,
         "median of odd and even samples");
}

void self_time() {
  xdbench::Tracer t;
  // root [0, 100): a [10, 40) with child a1 [15, 25); b [50, 70);
  // c [60, 90) overlaps b.  Root self = 100 - |[10,40) u [50,90)| = 30.
  const int root = t.add("root", 0, 100, -1);
  const int a = t.add("a", 10, 40, root);
  t.add("a1", 15, 25, a);
  t.add("b", 50, 70, root);
  t.add("c", 60, 90, root);
  expect(near(t.self_s(root), 30e-6), "root self time excludes children once");
  expect(near(t.self_s(a), 20e-6), "child self time excludes grandchild");
  expect(near(t.self_s(3), 20e-6), "leaf self time is its duration");
  // A child sticking out of its parent only covers the overlap.
  const int p = t.add("p", 200, 210, -1);
  t.add("late", 205, 230, p);
  expect(near(t.self_s(p), 5e-6), "child clipped to parent interval");
  expect(near(t.total_s("a1"), 10e-6), "total duration by name");
  expect(near(t.total_self_s("root"), 30e-6), "total self time by name");

  // Live spans nest by call order.
  xdbench::Tracer live(true);
  {
    xdbench::Scope outer(live, "outer");
    xdbench::Scope inner(live, "inner");
  }
  expect(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
             live.spans()[0].parent == -1,
         "scoped spans record their parent");
  expect(live.spans()[0].end_us >= live.spans()[1].end_us,
         "outer span ends after inner");
  xdbench::Tracer off(false);
  { xdbench::Scope s(off, "x"); }
  expect(off.spans().empty(), "disabled tracer records nothing");
}

void trace_file() {
  xdbench::Tracer t;
  const int r = t.add("workload", 0, 10, -1);
  t.add("serve.flush", 2, 3, r);
  const std::string path = "xdbench_selftest_trace.json";
  expect(t.write_chrome_json(path), "trace file written");
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  const std::string s = ss.str();
  std::remove(path.c_str());
  expect(s.find("\"traceEvents\"") != std::string::npos, "traceEvents array");
  expect(s.find("\"name\":\"serve.flush\"") != std::string::npos &&
             s.find("\"parent\":0") != std::string::npos &&
             s.find("\"start_us\":2.000") != std::string::npos &&
             s.find("\"end_us\":3.000") != std::string::npos,
         "event carries name, start, end and parent");
}

void metric_names() {
  std::set<std::string> seen;
  for (const auto& d : xdbench::kEndToEnd) {
    expect(xdbench::valid_metric_name(d.name), std::string("name ") + d.name);
    expect(seen.insert(d.name).second, std::string("unique ") + d.name);
  }
  for (const auto& d : xdbench::kPerLayer) {
    expect(xdbench::valid_metric_name(d.name), std::string("name ") + d.name);
    expect(seen.insert(d.name).second, std::string("unique ") + d.name);
  }
  expect(seen.count("setup_s") == 1, "setup_s is an end-to-end metric");
  for (const char* bad : {"", "has space", "_lead", "a/b", "x\"y"}) {
    expect(!xdbench::valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  expect(xdbench::valid_metric_name("triangle.kernel_ms.bitmap") &&
             xdbench::valid_metric_name("a-b_c.9"),
         "accepts dotted names");
}

}  // namespace

int main() {
  percentile_pick();
  self_time();
  trace_file();
  metric_names();
  std::cout << (failures ? "xdbench self-test FAILED\n"
                         : "xdbench self-test passed\n");
  return failures ? 1 : 0;
}
