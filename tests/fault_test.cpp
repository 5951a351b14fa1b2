#include "util/fault_plane.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "congest/ledger.hpp"
#include "congest/network.hpp"
#include "congest/scheduler.hpp"
#include "congest/shard_plane.hpp"
#include "corpus.hpp"
#include "serve/artifact.hpp"
#include "serve/service.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd {
namespace {

using congest::EpochScheduler;
using congest::Envelope;
using congest::Message;
using congest::Network;
using congest::Outbox;
using congest::RoundLedger;
using congest::VertexProgram;

/// Every test arms the process-wide fault plane; the guard disarms it no
/// matter how the test exits, so cases stay independent.
struct FaultGuard {
  FaultGuard() { FaultPlane::instance().reset(); }
  ~FaultGuard() { FaultPlane::instance().reset(); }
};

// ---------------------------------------------------------------- registry

TEST(FaultPlaneSpec, TriggersFollowTheLedger) {
  FaultGuard guard;
  FaultPlane& fp = FaultPlane::instance();
  fp.configure("seed=42,shard.drop:every=3,io.bitflip:at=2,sched.throw:p=1/max=2");

  EXPECT_TRUE(fp.armed(FaultCategory::kShard));
  EXPECT_TRUE(fp.armed(FaultCategory::kIo));
  EXPECT_TRUE(fp.armed(FaultCategory::kSched));
  EXPECT_FALSE(fp.armed(FaultCategory::kServe));

  // every=3: fires on hits 3, 6, 9, ...
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(fp.should_fire("shard.drop"));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(fp.hits("shard.drop"), 9u);
  EXPECT_EQ(fp.fires("shard.drop"), 3u);

  // at=2: exactly the second hit.
  EXPECT_FALSE(fp.should_fire("io.bitflip"));
  EXPECT_TRUE(fp.should_fire("io.bitflip"));
  EXPECT_FALSE(fp.should_fire("io.bitflip"));

  // p=1 capped by max=2: two fires, then the cap holds.
  EXPECT_TRUE(fp.should_fire("sched.throw", 1));
  EXPECT_TRUE(fp.should_fire("sched.throw", 2));
  EXPECT_FALSE(fp.should_fire("sched.throw", 3));
  EXPECT_EQ(fp.fires("sched.throw"), 2u);

  // Unarmed sites never fire, and counters accumulate.
  EXPECT_FALSE(fp.should_fire("serve.flush"));
  fp.count("shard.retransmits", 2);
  fp.count("shard.retransmits");
  EXPECT_EQ(fp.counter("shard.retransmits"), 3u);
  EXPECT_EQ(fp.counter("never.bumped"), 0u);
}

TEST(FaultPlaneSpec, ProbabilityDecisionsAreSeedDeterministic) {
  FaultGuard guard;
  FaultPlane& fp = FaultPlane::instance();
  fp.configure("seed=7,shard.corrupt:p=0.5");
  std::vector<bool> first;
  for (std::uint64_t k = 0; k < 64; ++k) {
    first.push_back(fp.should_fire("shard.corrupt", k));
  }
  // Same seed, same keys: the exact same schedule.
  fp.reset();
  fp.configure("seed=7,shard.corrupt:p=0.5");
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(fp.should_fire("shard.corrupt", k), first[k]) << k;
  }
  // A different seed decides differently somewhere, and p=0 / p=1 bound it.
  fp.reset();
  fp.configure("seed=8,shard.corrupt:p=0.5");
  bool any_diff = false;
  for (std::uint64_t k = 0; k < 64; ++k) {
    any_diff |= fp.should_fire("shard.corrupt", k) != first[k];
  }
  EXPECT_TRUE(any_diff);
  fp.reset();
  fp.configure("shard.corrupt:p=0");
  EXPECT_FALSE(fp.should_fire("shard.corrupt", 1));
  fp.reset();
  fp.configure("shard.corrupt:p=1");
  EXPECT_TRUE(fp.should_fire("shard.corrupt", 1));
  EXPECT_EQ(fp.decision_mix("shard.corrupt", 9),
            fp.decision_mix("shard.corrupt", 9));
  EXPECT_NE(fp.decision_mix("shard.corrupt", 9),
            fp.decision_mix("shard.corrupt", 10));
}

TEST(FaultPlaneSpec, MalformedSpecsThrowLoudly) {
  FaultGuard guard;
  FaultPlane& fp = FaultPlane::instance();
  EXPECT_THROW(fp.configure("bogus.site:p=0.5"), CheckError);
  EXPECT_THROW(fp.configure("shard.drop"), CheckError);        // no trigger
  EXPECT_THROW(fp.configure("shard.drop:"), CheckError);       // empty trigger
  EXPECT_THROW(fp.configure("shard.drop:banana=1"), CheckError);
  EXPECT_THROW(fp.configure("shard.drop:p=1.5"), CheckError);  // p > 1
  EXPECT_THROW(fp.configure("shard.drop:p=x"), CheckError);
  EXPECT_THROW(fp.configure("shard.drop:every=0"), CheckError);
  EXPECT_THROW(fp.configure("shard.drop:every=3x"), CheckError);
  EXPECT_THROW(fp.configure("seed=notanumber"), CheckError);
  EXPECT_THROW(fp.set_hook("no.such", [](int) {}), CheckError);
  // Nothing partial should have armed anything that then fires.
  fp.reset();
  EXPECT_FALSE(fp.armed(FaultCategory::kShard));
}

// --------------------------------------------------------------- scheduler

TEST(SchedulerFaults, SpawnHookIsRegistryBackedAndThreadSafe) {
  FaultGuard guard;
  std::atomic<int> calls{0};
  congest::detail::set_spawn_fault_hook_for_testing(
      [&](int /*w*/) { calls.fetch_add(1, std::memory_order_relaxed); });
  EpochScheduler pool(4);
  std::atomic<int> ran{0};
  pool.run(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(calls.load(), 4);  // once per spawned worker
  congest::detail::set_spawn_fault_hook_for_testing({});
  pool.run(8, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(calls.load(), 4);  // cleared hook no longer fires
}

TEST(SchedulerFaults, InjectedSpawnFailureSurfacesAndPoolRecovers) {
  FaultGuard guard;
  FaultPlane::instance().configure("sched.spawn:at=3/max=1");
  EpochScheduler pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(16, [&](std::size_t) { ran.fetch_add(1); }),
               CheckError);
  // The partial pool was joined, the cap exhausted the fault: the next
  // epoch runs clean on the same scheduler -- no leaked threads, no wedge.
  ran = 0;
  pool.run(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(SchedulerFaults, MidEpochThrowPropagatesFirstError) {
  FaultGuard guard;
  FaultPlane::instance().configure("sched.throw:at=1/max=1");
  EpochScheduler pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.run(16, [&](std::size_t) { ran.fetch_add(1); }),
               CheckError);
  ran = 0;
  pool.run(16, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 16);
}

TEST(SchedulerFaults, InjectedStallOnlySlowsTheEpoch) {
  FaultGuard guard;
  FaultPlane::instance().configure("sched.stall:every=2");
  EpochScheduler pool(4);
  std::atomic<int> ran{0};
  pool.run(12, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 12);  // stragglers change wall-clock, never results
}

// -------------------------------------------------------------- chaos grid

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// Same deliberately messy shape as shard_test's Chatter: descending-slot
/// sends, same-slot re-sends, silent vertices, full-envelope fold hash.
struct Chatter final : VertexProgram {
  explicit Chatter(const Graph& g) : g(&g), acc(g.num_vertices(), 0) {}

  const Graph* g;
  int round = 0;
  std::vector<std::uint64_t> acc;

  void on_send(VertexId v, Outbox& out) override {
    if (v % 3 == 2) return;
    const auto nbrs = g->neighbors(v);
    for (std::uint32_t s = static_cast<std::uint32_t>(nbrs.size()); s-- > 0;) {
      if (nbrs[s] == v) continue;
      out.send(s, Message{static_cast<std::uint32_t>(round),
                          (std::uint64_t{v} << 32) | s, v + 1});
      if (s == 0 && round % 2 == 0) out.send(s, Message{7, v});
    }
  }

  void on_receive(VertexId v, std::span<const Envelope> inbox) override {
    for (const Envelope& e : inbox) {
      acc[v] = mix(acc[v], e.from);
      acc[v] = mix(acc[v], e.msg.tag);
      acc[v] = mix(acc[v], e.msg.words[0]);
      acc[v] = mix(acc[v], e.msg.words[1]);
    }
  }
};

struct RunResult {
  std::vector<std::uint64_t> acc;
  std::vector<std::uint64_t> rounds_per_step;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_chatter(const Graph& g, int shards, int threads) {
  RoundLedger ledger;
  Network net(g, ledger, /*seed=*/7);
  net.set_shards(shards);
  net.set_threads(threads);
  Chatter program(g);
  RunResult r;
  for (program.round = 0; program.round < 4; ++program.round) {
    r.rounds_per_step.push_back(net.run_round(program, "chatter"));
  }
  r.acc = program.acc;
  r.rounds = ledger.rounds();
  r.messages = ledger.messages();
  return r;
}

// The tentpole pin: under every recoverable fault schedule -- each fault
// kind, count and probability triggers, at every shards x threads
// combination -- results, delivery order, and round charges are
// bit-identical to the fault-free one-shard, one-thread run.
TEST(ChaosGrid, RecoverableFaultsAreBitIdentical) {
  FaultGuard guard;
  const Graph g = corpus::topology("expander");
  const RunResult baseline = run_chatter(g, /*shards=*/1, /*threads=*/1);
  ASSERT_GT(baseline.messages, 0u);

  const char* kKinds[] = {"drop", "corrupt", "dup", "reorder"};
  const char* kRates[] = {"every=3", "p=0.3"};
  for (const char* kind : kKinds) {
    for (const char* rate : kRates) {
      for (const int shards : {2, 4, 8}) {
        for (const int threads : {1, 2, 8}) {
          SCOPED_TRACE(std::string(kind) + ":" + rate +
                       " shards=" + std::to_string(shards) +
                       " threads=" + std::to_string(threads));
          FaultPlane::instance().reset();
          FaultPlane::instance().configure(
              std::string("seed=11,shard.") + kind + ":" + rate);
          EXPECT_EQ(run_chatter(g, shards, threads), baseline);
        }
      }
    }
  }

  // All four fault kinds at once, still bit-identical.
  FaultPlane::instance().reset();
  FaultPlane::instance().configure(
      "seed=11,shard.drop:every=5,shard.corrupt:every=7,shard.dup:every=9,"
      "shard.reorder:every=3");
  EXPECT_EQ(run_chatter(g, 4, 8), baseline);
  EXPECT_GT(FaultPlane::instance().fires("shard.drop"), 0u);
  EXPECT_GT(FaultPlane::instance().fires("shard.corrupt"), 0u);
}

// A fault schedule no retry discipline can beat (every frame of a column
// dropped on every attempt) must surface as a typed CheckError -- bounded
// re-request, then a loud failure, never a hang or silent loss.
TEST(ChaosGrid, UnrecoverableDropIsATypedError) {
  FaultGuard guard;
  const Graph g = corpus::topology("expander");
  FaultPlane::instance().configure("shard.drop:every=1");
  EXPECT_THROW(run_chatter(g, 4, 2), CheckError);
}

// Transport counters see the injected faults and the recoveries.
TEST(ChaosGrid, WireStatsCountFaultsAndRetransmits) {
  FaultGuard guard;
  const Graph g = corpus::topology("expander");
  FaultPlane::instance().configure("seed=11,shard.drop:every=3");
  RoundLedger ledger;
  Network net(g, ledger, /*seed=*/7);
  net.set_shards(4);
  Chatter program(g);
  program.round = 0;
  (void)net.run_round(program, "chatter");
  const auto& wire = net.shard_delivery_stats().wire;
  EXPECT_GT(wire.frames, 0u);
  EXPECT_GT(wire.dropped, 0u);
  EXPECT_GT(wire.retransmits, 0u);
  EXPECT_EQ(wire.retransmits,
            FaultPlane::instance().counter("shard.retransmits"));
}

// --------------------------------------------------------- artifact loader

serve::PreparedArtifact small_artifact() {
  const Graph g = corpus::topology("gnp-small");
  serve::PrepareParams prm;
  prm.enumerate.backend = triangle::RouterBackend::kTree;
  return serve::prepare_artifact(g, prm);
}

// Every injected corruption of the artifact bytes -- truncation, a flipped
// bit anywhere (the file CRC catches what structural checks cannot), a
// torn short read -- must surface as a typed CheckError from load_artifact,
// never UB (this test is in the ASan/UBSan CI jobs).
TEST(IoFaults, EveryCorruptionLoadsAsTypedError) {
  const std::string path = testing::TempDir() + "xd_fault_artifact.xda1";
  const auto art = small_artifact();
  serve::save_artifact(art, path);

  {
    FaultGuard guard;  // control: loads clean while disarmed
    const auto back = serve::load_artifact(path);
    EXPECT_EQ(back.triangles.size(), art.triangles.size());
  }
  for (const char* site : {"io.truncate", "io.bitflip", "io.short_read"}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
      SCOPED_TRACE(std::string(site) + " seed=" + std::to_string(seed));
      FaultGuard guard;
      FaultPlane::instance().configure(std::string(site) + ":every=1");
      FaultPlane::instance().set_seed(seed);
      EXPECT_THROW((void)serve::load_artifact(path), CheckError);
      EXPECT_EQ(FaultPlane::instance().fires(site), 1u);
    }
  }
  std::remove(path.c_str());
}

// Every file is CRC-verified: zeroing the checksum slot is a checksum
// mismatch, not an unchecked load.
TEST(IoFaults, ZeroedChecksumSlotIsRejected) {
  FaultGuard guard;
  const std::string path = testing::TempDir() + "xd_fault_zero_crc.xda1";
  const auto art = small_artifact();
  serve::save_artifact(art, path);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(24);
    const char zeros[8] = {0};
    f.write(zeros, 8);
  }
  EXPECT_THROW((void)serve::load_artifact(path), CheckError);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ query service

TEST(ServiceFaults, DeadlineDegradesDeterministically) {
  FaultGuard guard;
  const auto art = small_artifact();
  serve::ServiceParams prm;
  prm.deadline_rounds = 2;

  const auto run = [&](int threads) {
    serve::ServiceParams p = prm;
    p.threads = threads;
    serve::QueryService svc(art, p);
    for (VertexId v = 0; v < 20; ++v) {
      EXPECT_TRUE(svc.submit(0, {serve::QueryKind::kTrianglesOf, v, 0, 0}));
      EXPECT_TRUE(svc.submit(1, {serve::QueryKind::kRoute, v,
                                 static_cast<VertexId>(59 - v), 0}));
    }
    auto rep = svc.flush_report();
    EXPECT_EQ(rep.failure, serve::FlushFailure::kNone);
    EXPECT_FALSE(rep.degraded);
    return std::make_pair(std::move(rep.results), svc.health());
  };

  const auto [results, health] = run(1);
  std::size_t degraded = 0;
  for (const auto& r : results) {
    if (!r.exact) {
      ++degraded;
      EXPECT_EQ(r.rounds_charged, prm.deadline_rounds);
      if (r.kind == serve::QueryKind::kTrianglesOf) {
        // Only what fits in the budget's convergecast rounds came back.
        EXPECT_LE(r.ids.size(), (prm.deadline_rounds - 1) * 8);
        EXPECT_EQ(r.value, r.ids.size());
      }
      if (r.kind == serve::QueryKind::kRoute) {
        EXPECT_TRUE(r.ids.empty());  // estimate, no delivered path
      }
    }
  }
  ASSERT_GT(degraded, 0u);  // the stream really exercised the deadline
  EXPECT_EQ(health.degraded_answers, degraded);
  EXPECT_EQ(health.deadline_hits, degraded);
  EXPECT_EQ(health.faults_seen, 0u);

  // Deadline degradation is a model decision: bit-identical at any thread
  // count.
  const auto [results8, health8] = run(8);
  ASSERT_EQ(results8.size(), results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results8[i].exact, results[i].exact) << i;
    EXPECT_EQ(results8[i].value, results[i].value) << i;
    EXPECT_EQ(results8[i].ids, results[i].ids) << i;
    EXPECT_EQ(results8[i].rounds_charged, results[i].rounds_charged) << i;
  }
  EXPECT_EQ(health8.degraded_answers, health.degraded_answers);
}

TEST(ServiceFaults, FailedFlushRetriesAndChargesOnce) {
  const auto art = small_artifact();
  serve::ServiceParams prm;
  const auto submit_batch = [&](serve::QueryService& svc) {
    for (VertexId v = 0; v < 10; ++v) {
      EXPECT_TRUE(svc.submit(0, {serve::QueryKind::kTrianglesOf, v, 0, 0}));
      EXPECT_TRUE(svc.submit(1, {serve::QueryKind::kRoute, v,
                                 static_cast<VertexId>(v + 30), 0}));
    }
  };

  // Clean reference run.
  FaultPlane::instance().reset();
  serve::QueryService clean(art, prm);
  submit_batch(clean);
  const auto clean_rep = clean.flush_report();
  EXPECT_EQ(clean_rep.attempts, 1);

  // First flush attempt faulted: one retry, identical results, identical
  // committed charges (the aborted attempt ran on a scratch ledger).
  FaultGuard guard;
  FaultPlane::instance().configure("serve.flush:at=1/max=1");
  serve::QueryService faulty(art, prm);
  submit_batch(faulty);
  const auto rep = faulty.flush_report();
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.failure, serve::FlushFailure::kNone);
  EXPECT_FALSE(rep.degraded);
  ASSERT_EQ(rep.results.size(), clean_rep.results.size());
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    EXPECT_EQ(rep.results[i].value, clean_rep.results[i].value) << i;
    EXPECT_EQ(rep.results[i].exact, clean_rep.results[i].exact) << i;
    EXPECT_EQ(rep.results[i].rounds_charged,
              clean_rep.results[i].rounds_charged)
        << i;
    EXPECT_EQ(rep.results[i].ids, clean_rep.results[i].ids) << i;
  }
  EXPECT_EQ(faulty.ledger().rounds(), clean.ledger().rounds());
  EXPECT_EQ(faulty.ledger().messages(), clean.ledger().messages());
  const auto health = faulty.health();
  EXPECT_EQ(health.faults_seen, 1u);
  EXPECT_EQ(health.flush_retries, 1u);
  EXPECT_EQ(health.degraded_answers, 0u);
}

TEST(ServiceFaults, RetryExhaustionDegradesInsteadOfThrowing) {
  FaultGuard guard;
  const auto art = small_artifact();
  FaultPlane::instance().configure("serve.flush:every=1");
  serve::ServiceParams prm;
  prm.max_flush_retries = 2;
  prm.backoff_base_us = 1;  // keep the test quick
  serve::QueryService svc(art, prm);
  EXPECT_TRUE(svc.submit(0, {serve::QueryKind::kTriangleCount, 5, 0, 0}));
  EXPECT_TRUE(svc.submit(0, {serve::QueryKind::kTrianglesOf, 3, 0, 0}));
  EXPECT_TRUE(svc.submit(1, {serve::QueryKind::kComponentOf, 7, 0, 0}));
  const auto rep = svc.flush_report();
  EXPECT_EQ(rep.attempts, 3);  // 1 try + 2 retries
  EXPECT_EQ(rep.failure, serve::FlushFailure::kRetryExhausted);
  EXPECT_TRUE(rep.degraded);
  ASSERT_EQ(rep.results.size(), 3u);

  // kTriangleCount falls back to the component-local count of operand a.
  const auto& count = rep.results[0];
  EXPECT_TRUE(count.ok);
  EXPECT_FALSE(count.exact);
  EXPECT_EQ(count.value, art.comp_triangles[art.component_of(5)]);
  EXPECT_EQ(count.rounds_charged, 1u);
  // kTrianglesOf degrades to a count without the id payload.
  const auto& tris = rep.results[1];
  EXPECT_TRUE(tris.ok);
  EXPECT_FALSE(tris.exact);
  EXPECT_EQ(tris.value, art.triangles_of(3).size());
  EXPECT_TRUE(tris.ids.empty());
  // O(1) local lookups stay exact even in the fallback.
  const auto& comp = rep.results[2];
  EXPECT_TRUE(comp.ok);
  EXPECT_TRUE(comp.exact);
  EXPECT_EQ(comp.value, art.component_of(7));

  const auto health = svc.health();
  EXPECT_EQ(health.faults_seen, 3u);
  EXPECT_EQ(health.flush_retries, 2u);
  EXPECT_EQ(health.degraded_answers, 2u);
  EXPECT_EQ(svc.total_served(), 3u);
  EXPECT_EQ(svc.pending(), 0u);

  // The fault cleared: the next flush commits normally.
  FaultPlane::instance().reset();
  EXPECT_TRUE(svc.submit(0, {serve::QueryKind::kTriangleCount, 0, 0, 0}));
  const auto rep2 = svc.flush_report();
  EXPECT_EQ(rep2.failure, serve::FlushFailure::kNone);
  ASSERT_EQ(rep2.results.size(), 1u);
  EXPECT_TRUE(rep2.results[0].exact);
  EXPECT_EQ(rep2.results[0].value, art.triangle_count());
}

}  // namespace
}  // namespace xd
