#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::serve {
namespace {

PreparedArtifact golden_artifact() {
  Rng rng(31);
  const Graph g = gen::gnp(60, 0.2, rng);
  PrepareParams prm;
  prm.enumerate.backend = triangle::RouterBackend::kTree;
  return prepare_artifact(g, prm);
}

/// Deterministic mixed stream: every kind appears, operands in and out of
/// range, several clients.
std::vector<std::pair<std::uint32_t, Query>> mixed_stream(
    const PreparedArtifact& art, std::size_t count, std::uint64_t seed) {
  const auto n = static_cast<std::uint32_t>(art.graph.num_vertices());
  Rng rng(seed);
  std::vector<std::pair<std::uint32_t, Query>> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto client = static_cast<std::uint32_t>(rng.next_below(5));
    Query q;
    q.kind = static_cast<QueryKind>(rng.next_below(6));
    q.a = static_cast<VertexId>(rng.next_below(n + 2));  // sometimes invalid
    q.b = static_cast<VertexId>(rng.next_below(n));
    q.c = static_cast<VertexId>(rng.next_below(n));
    stream.emplace_back(client, q);
  }
  return stream;
}

void expect_same(const QueryResult& a, const QueryResult& b,
                 std::size_t index) {
  EXPECT_EQ(a.kind, b.kind) << index;
  EXPECT_EQ(a.client, b.client) << index;
  EXPECT_EQ(a.ticket, b.ticket) << index;
  EXPECT_EQ(a.ok, b.ok) << index;
  EXPECT_EQ(a.value, b.value) << index;
  EXPECT_EQ(a.scalar, b.scalar) << index;
  EXPECT_EQ(a.rounds_charged, b.rounds_charged) << index;
  EXPECT_EQ(a.messages, b.messages) << index;
  EXPECT_EQ(a.ids, b.ids) << index;
}

/// Runs the whole stream through a service at the given thread count:
/// submit until backpressure, flush, repeat.
std::vector<QueryResult> run_stream(
    QueryService& svc,
    const std::vector<std::pair<std::uint32_t, Query>>& stream) {
  std::vector<QueryResult> all;
  std::size_t next = 0;
  while (next < stream.size() || svc.pending() > 0) {
    while (next < stream.size() &&
           svc.submit(stream[next].first, stream[next].second)) {
      ++next;
    }
    for (auto& r : svc.flush()) all.push_back(std::move(r));
  }
  return all;
}

// --------------------------------------------------- concurrent identity

TEST(Serve, ConcurrentExecutionIsBitIdenticalToSequential) {
  const auto art = golden_artifact();
  const auto stream = mixed_stream(art, 300, 99);
  ServiceParams base;
  base.max_pending = 64;
  base.max_batch = 32;

  ServiceParams p1 = base;
  p1.threads = 1;
  QueryService seq(art, p1);
  const auto seq_results = run_stream(seq, stream);

  for (const int threads : {2, 8}) {
    ServiceParams pt = base;
    pt.threads = threads;
    QueryService conc(art, pt);
    const auto conc_results = run_stream(conc, stream);
    ASSERT_EQ(conc_results.size(), seq_results.size()) << threads;
    for (std::size_t i = 0; i < seq_results.size(); ++i) {
      expect_same(conc_results[i], seq_results[i], i);
    }
    // The shared clock and the per-client forks agree too: Phase A always
    // forks, so charged totals never depend on the host thread count.
    EXPECT_EQ(conc.ledger().rounds(), seq.ledger().rounds()) << threads;
    EXPECT_EQ(conc.ledger().messages(), seq.ledger().messages()) << threads;
    ASSERT_EQ(conc.clients().size(), seq.clients().size());
    for (const auto& [client, stats] : seq.clients()) {
      const auto& other = conc.clients().at(client);
      EXPECT_EQ(other.served, stats.served) << "client " << client;
      EXPECT_EQ(other.rounds, stats.rounds) << "client " << client;
      EXPECT_EQ(other.messages, stats.messages) << "client " << client;
    }
  }
}

// ---------------------------------------------------------- backpressure

TEST(Serve, BackpressureBoundsThePendingQueue) {
  const auto art = golden_artifact();
  ServiceParams prm;
  prm.max_pending = 16;
  prm.max_batch = 8;
  QueryService svc(art, prm);

  Query q;
  q.kind = QueryKind::kTriangleCount;
  std::size_t accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (svc.submit(0, q)) ++accepted;
    EXPECT_LE(svc.pending(), prm.max_pending);
  }
  EXPECT_EQ(accepted, prm.max_pending);
  EXPECT_EQ(svc.total_rejected(), 100 - prm.max_pending);
  EXPECT_EQ(svc.clients().at(0).rejected, 100 - prm.max_pending);
  EXPECT_EQ(svc.clients().at(0).submitted, 100u);

  // Each flush serves at most max_batch, FIFO.
  const auto first = svc.flush();
  EXPECT_EQ(first.size(), prm.max_batch);
  EXPECT_EQ(first.front().ticket, 0u);
  EXPECT_EQ(svc.pending(), prm.max_pending - prm.max_batch);
  const auto second = svc.flush();
  EXPECT_EQ(second.size(), prm.max_batch);
  EXPECT_EQ(second.front().ticket, prm.max_batch);
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_TRUE(svc.flush().empty());
  EXPECT_EQ(svc.total_served(), prm.max_pending);
}

TEST(Serve, SubmitAtExactlyMaxPendingBoundary) {
  const auto art = golden_artifact();
  ServiceParams prm;
  prm.max_pending = 4;
  QueryService svc(art, prm);
  Query q{QueryKind::kTriangleCount, 0, 0, 0};

  // Fill to the boundary: the max_pending-th submit is still accepted...
  for (std::size_t i = 0; i < prm.max_pending; ++i) {
    EXPECT_TRUE(svc.submit(0, q)) << i;
  }
  EXPECT_EQ(svc.pending(), prm.max_pending);
  EXPECT_EQ(svc.total_rejected(), 0u);
  // ...and the very next one bounces without growing the queue.
  EXPECT_FALSE(svc.submit(0, q));
  EXPECT_EQ(svc.pending(), prm.max_pending);
  EXPECT_EQ(svc.total_rejected(), 1u);
  // Draining one slot reopens admission exactly at the boundary.
  (void)svc.flush();
  EXPECT_TRUE(svc.submit(0, q));
}

TEST(Serve, FlushWithZeroPendingIsFree) {
  const auto art = golden_artifact();
  QueryService svc(art, ServiceParams{});
  const auto rep = svc.flush_report();
  EXPECT_TRUE(rep.results.empty());
  EXPECT_EQ(rep.failure, FlushFailure::kNone);
  EXPECT_FALSE(rep.degraded);
  // An empty flush charges nothing and serves nobody.
  EXPECT_EQ(svc.ledger().rounds(), 0u);
  EXPECT_EQ(svc.ledger().messages(), 0u);
  EXPECT_EQ(svc.total_served(), 0u);
  EXPECT_TRUE(svc.clients().empty());
  EXPECT_TRUE(svc.flush().empty());  // idempotent
}

TEST(Serve, ClientStatsAfterARejectedSubmit) {
  const auto art = golden_artifact();
  ServiceParams prm;
  prm.max_pending = 1;
  QueryService svc(art, prm);
  Query q{QueryKind::kComponentOf, 2, 0, 0};

  ASSERT_TRUE(svc.submit(9, q));
  ASSERT_FALSE(svc.submit(9, q));  // bounced: queue full
  // A rejection counts as submitted (the client did ask) but never as
  // served, and charges nothing.
  const auto& before = svc.clients().at(9);
  EXPECT_EQ(before.submitted, 2u);
  EXPECT_EQ(before.rejected, 1u);
  EXPECT_EQ(before.served, 0u);
  EXPECT_EQ(before.rounds, 0u);

  const auto rs = svc.flush();
  ASSERT_EQ(rs.size(), 1u);  // only the accepted query was answered
  const auto& after = svc.clients().at(9);
  EXPECT_EQ(after.submitted, 2u);
  EXPECT_EQ(after.rejected, 1u);
  EXPECT_EQ(after.served, 1u);
  EXPECT_EQ(after.submitted, after.served + after.rejected + svc.pending());
}

// ------------------------------------------------------- client ledgers

TEST(Serve, PerClientStatsSumTheirAnswers) {
  const auto art = golden_artifact();
  const auto stream = mixed_stream(art, 200, 7);
  ServiceParams prm;
  prm.threads = 2;
  prm.max_pending = 32;
  prm.max_batch = 16;
  QueryService svc(art, prm);
  const auto results = run_stream(svc, stream);
  EXPECT_EQ(results.size(), stream.size());
  EXPECT_EQ(svc.total_served(), stream.size());

  std::map<std::uint32_t, ClientStats> expect;
  for (const auto& r : results) {
    auto& s = expect[r.client];
    ++s.served;
    s.rounds += r.rounds_charged;
    s.messages += r.messages;
  }
  ASSERT_EQ(svc.clients().size(), expect.size());
  std::uint64_t total_rounds = 0;
  for (const auto& [client, want] : expect) {
    const auto& got = svc.clients().at(client);
    EXPECT_EQ(got.served, want.served) << "client " << client;
    EXPECT_EQ(got.rounds, want.rounds) << "client " << client;
    EXPECT_EQ(got.messages, want.messages) << "client " << client;
    EXPECT_EQ(got.submitted, got.served + got.rejected) << client;
    total_rounds += got.rounds;
  }
  // Per-client sums run sequential (each client waits for its answers);
  // the service clock joins concurrent queries by max, so it reads faster.
  EXPECT_LE(svc.ledger().rounds(), total_rounds);
  EXPECT_GT(svc.ledger().rounds(), 0u);
}

// ------------------------------------------------------------- semantics

TEST(Serve, AnswersMatchTheArtifact) {
  const auto art = golden_artifact();
  ServiceParams prm;
  QueryService svc(art, prm);

  ASSERT_TRUE(svc.submit(1, {QueryKind::kTriangleCount, 0, 0, 0}));
  ASSERT_TRUE(svc.submit(1, {QueryKind::kTrianglesOf, 3, 0, 0}));
  const auto& t0 = art.triangles[0];
  ASSERT_TRUE(svc.submit(2, {QueryKind::kTriangleMembership, t0[0], t0[1],
                             t0[2]}));
  ASSERT_TRUE(svc.submit(2, {QueryKind::kComponentOf, 7, 0, 0}));
  ASSERT_TRUE(svc.submit(3, {QueryKind::kConductance, 0, 0, 0}));
  ASSERT_TRUE(svc.submit(3, {QueryKind::kRoute, 0, 59, 0}));
  ASSERT_TRUE(
      svc.submit(3, {QueryKind::kRoute, 0, static_cast<VertexId>(1000), 0}));

  const auto rs = svc.flush();
  ASSERT_EQ(rs.size(), 7u);
  EXPECT_TRUE(rs[0].ok);
  EXPECT_EQ(rs[0].value, art.triangle_count());
  EXPECT_TRUE(rs[1].ok);
  EXPECT_EQ(rs[1].value, art.triangles_of(3).size());
  EXPECT_TRUE(rs[2].ok);
  EXPECT_EQ(rs[2].value, 1u);
  EXPECT_TRUE(rs[3].ok);
  EXPECT_EQ(rs[3].value, art.component_of(7));
  EXPECT_TRUE(rs[4].ok);
  EXPECT_EQ(rs[4].scalar, art.components[0].conductance);
  if (art.component_of(0) == art.component_of(59)) {
    EXPECT_TRUE(rs[5].ok);
    ASSERT_FALSE(rs[5].ids.empty());
    EXPECT_EQ(rs[5].ids.front(), 0u);
    EXPECT_EQ(rs[5].ids.back(), 59u);
    // Delivery really happened: the drain's arrival round is charged on
    // top of the GKS query-model cost.
    EXPECT_GT(rs[5].rounds_charged, 1u);
  }
  EXPECT_FALSE(rs[6].ok);  // out-of-range destination
  EXPECT_EQ(rs[6].rounds_charged, 1u);
}

// --------------------------------------------------------- single driver

TEST(Serve, ConcurrentEntryIsACheckedError) {
  const auto art = golden_artifact();
  ServiceParams prm;
  prm.threads = 2;
  QueryService svc(art, prm);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(svc.submit(0, {QueryKind::kComponentOf, 1, 0, 0}));
  }

  // Park the driving thread inside flush(): the scheduler's hand-off hook
  // runs on it mid-Phase A and waits until the intruder has tried to enter.
  std::promise<void> inside;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> parked{false};
  congest::detail::set_spawn_fault_hook_for_testing([&](int) {
    if (!parked.exchange(true)) {
      inside.set_value();
      released.wait();
    }
  });
  std::vector<QueryResult> driven;
  std::thread driver([&] { driven = svc.flush(); });
  inside.get_future().wait();
  EXPECT_THROW(svc.submit(1, {QueryKind::kTriangleCount, 0, 0, 0}),
               CheckError);
  EXPECT_THROW((void)svc.flush(), CheckError);
  release.set_value();
  driver.join();
  congest::detail::set_spawn_fault_hook_for_testing({});

  // The rejected entries left no trace; the driver's flush completed and
  // the service keeps working for the next single driver.
  EXPECT_EQ(driven.size(), 4u);
  EXPECT_EQ(svc.clients().count(1), 0u);
  EXPECT_EQ(svc.pending(), 0u);
  EXPECT_TRUE(svc.submit(1, {QueryKind::kTriangleCount, 0, 0, 0}));
  EXPECT_EQ(svc.flush().size(), 1u);
}

TEST(Serve, TwoServicesOnTwoThreadsShareThePool) {
  const auto art = golden_artifact();
  const auto stream_a = mixed_stream(art, 300, 5);
  const auto stream_b = mixed_stream(art, 300, 6);
  ServiceParams base;
  base.max_pending = 48;
  base.max_batch = 16;

  ServiceParams p1 = base;
  p1.threads = 1;
  QueryService seq_a(art, p1);
  QueryService seq_b(art, p1);
  const auto want_a = run_stream(seq_a, stream_a);
  const auto want_b = run_stream(seq_b, stream_b);

  ServiceParams p4 = base;
  p4.threads = 4;
  QueryService svc_a(art, p4);
  QueryService svc_b(art, p4);
  std::vector<QueryResult> got_a;
  std::vector<QueryResult> got_b;
  std::thread ta([&] { got_a = run_stream(svc_a, stream_a); });
  std::thread tb([&] { got_b = run_stream(svc_b, stream_b); });
  ta.join();
  tb.join();

  ASSERT_EQ(got_a.size(), want_a.size());
  ASSERT_EQ(got_b.size(), want_b.size());
  for (std::size_t i = 0; i < want_a.size(); ++i) {
    expect_same(got_a[i], want_a[i], i);
  }
  for (std::size_t i = 0; i < want_b.size(); ++i) {
    expect_same(got_b[i], want_b[i], i);
  }
  EXPECT_EQ(svc_a.ledger().rounds(), seq_a.ledger().rounds());
  EXPECT_EQ(svc_b.ledger().rounds(), seq_b.ledger().rounds());
  EXPECT_EQ(svc_a.ledger().messages(), seq_a.ledger().messages());
  EXPECT_EQ(svc_b.ledger().messages(), seq_b.ledger().messages());
}

}  // namespace
}  // namespace xd::serve
