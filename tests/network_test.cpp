#include "congest/network.hpp"

#include <gtest/gtest.h>

#include "congest/clique.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace xd::congest {
namespace {

TEST(Network, DeliversAlongEdges) {
  Rng rng(1);
  const Graph g = gen::path(3);  // 0-1-2
  RoundLedger ledger;
  Network net(g, ledger);

  net.send_to(0, 1, Message{7, 42});
  net.send_to(2, 1, Message{8, 43});
  const auto rounds = net.exchange("test");
  EXPECT_EQ(rounds, 1u);

  auto in = net.inbox(1);
  ASSERT_EQ(in.size(), 2u);
  EXPECT_EQ(ledger.rounds(), 1u);
  EXPECT_EQ(ledger.messages(), 2u);
  bool saw0 = false;
  bool saw2 = false;
  for (const auto& env : in) {
    if (env.from == 0) {
      saw0 = true;
      EXPECT_EQ(env.msg.words[0], 42u);
    }
    if (env.from == 2) {
      saw2 = true;
      EXPECT_EQ(env.msg.tag, 8u);
    }
  }
  EXPECT_TRUE(saw0 && saw2);
}

TEST(Network, RejectsNonEdgeSend) {
  const Graph g = gen::path(3);
  RoundLedger ledger;
  Network net(g, ledger);
  EXPECT_THROW(net.send_to(0, 2, Message{}), CheckError);
}

TEST(Network, RejectsSelfLoopSlot) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  b.add_loops(0, 1);
  const Graph g = b.build();
  RoundLedger ledger;
  Network net(g, ledger);
  // Find the loop slot of 0 and try to send on it.
  auto nbrs = g.neighbors(0);
  for (std::uint32_t slot = 0; slot < nbrs.size(); ++slot) {
    if (nbrs[slot] == 0) {
      EXPECT_THROW(net.send(0, slot, Message{}), CheckError);
    }
  }
}

TEST(Network, CongestionChargesMultipleRounds) {
  // 3 messages multiplexed on one directed edge -> 3 rounds.
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  for (int i = 0; i < 3; ++i) net.send_to(0, 1, Message{0, std::uint64_t(i)});
  const auto rounds = net.exchange("congested");
  EXPECT_EQ(rounds, 3u);
  EXPECT_EQ(net.inbox(1).size(), 3u);
  EXPECT_EQ(ledger.rounds_for("congested"), 3u);
}

TEST(Network, OppositeDirectionsDoNotCollide) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  net.send_to(0, 1, Message{});
  net.send_to(1, 0, Message{});
  EXPECT_EQ(net.exchange("duplex"), 1u);
}

TEST(Network, EmptyExchangeChargesOneRound) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  EXPECT_EQ(net.exchange("idle"), 1u);
  EXPECT_EQ(ledger.messages(), 0u);
}

TEST(Network, ExchangeChargingValidatesCongestion) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  for (int i = 0; i < 5; ++i) net.send_to(0, 1, Message{});
  EXPECT_THROW(net.exchange_charging("underdeclared", 2), CheckError);
}

TEST(Network, ExchangeChargingUsesOverride) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  net.send_to(0, 1, Message{});
  EXPECT_EQ(net.exchange_charging("pipelined", 10), 10u);
  EXPECT_EQ(ledger.rounds(), 10u);
}

TEST(Network, InboxClearedBetweenExchanges) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  net.send_to(0, 1, Message{});
  net.exchange("a");
  EXPECT_EQ(net.inbox(1).size(), 1u);
  net.exchange("b");
  EXPECT_EQ(net.inbox(1).size(), 0u);
}

TEST(Network, PerVertexRngIsDeterministic) {
  const Graph g = gen::path(3);
  RoundLedger l1, l2;
  Network a(g, l1, 5);
  Network b(g, l2, 5);
  EXPECT_EQ(a.rng(1)(), b.rng(1)());
}

TEST(Network, TickChargesIdleRounds) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  net.tick(17, "waiting");
  EXPECT_EQ(ledger.rounds(), 17u);
}

TEST(RoundLedger, BreakdownAndReport) {
  RoundLedger ledger;
  ledger.charge(5, "phase-a");
  ledger.charge(3, "phase-b");
  ledger.charge(2, "phase-a");
  EXPECT_EQ(ledger.rounds(), 10u);
  EXPECT_EQ(ledger.rounds_for("phase-a"), 7u);
  EXPECT_EQ(ledger.rounds_for("missing"), 0u);
  EXPECT_NE(ledger.report().find("phase-a"), std::string::npos);
  ledger.reset();
  EXPECT_EQ(ledger.rounds(), 0u);
}

TEST(CliqueNetwork, AllToAllDelivery) {
  RoundLedger ledger;
  CliqueNetwork net(4, ledger);
  // Vertex 0 sends to everyone -- non-neighbors in a sparse graph, but the
  // clique model allows it.
  for (VertexId v = 1; v < 4; ++v) net.send(0, v, Message{1, v});
  EXPECT_EQ(net.exchange("spread"), 1u);
  for (VertexId v = 1; v < 4; ++v) {
    ASSERT_EQ(net.inbox(v).size(), 1u);
    EXPECT_EQ(net.inbox(v)[0].msg.words[0], v);
  }
}

TEST(CliqueNetwork, PairCongestionCharges) {
  RoundLedger ledger;
  CliqueNetwork net(3, ledger);
  for (int i = 0; i < 4; ++i) net.send(0, 1, Message{});
  EXPECT_EQ(net.exchange("pair"), 4u);
}

TEST(CliqueNetwork, RejectsSelfSend) {
  RoundLedger ledger;
  CliqueNetwork net(3, ledger);
  EXPECT_THROW(net.send(1, 1, Message{}), CheckError);
}

TEST(Network, SortedFastPathPrefetchStaysInBoundsOnTailHeavyReceiver) {
  // Regression for the plane's sorted scatter write-ahead prefetch: with
  // all traffic landing in the LAST vertex's inbox, that receiver's scatter
  // cursor reaches the shard arena's end while the loop is still hinting
  // ahead, so the hint address must stay inside (or one past) the
  // allocation.  Staging by ascending sender keeps the buffer sorted (the
  // stage-time sorted path runs); the CI ASan job executes this test to
  // police the bound.
  constexpr std::size_t kSenders = 64;
  GraphBuilder b(kSenders + 1);
  for (VertexId v = 0; v < kSenders; ++v) {
    b.add_edge(v, static_cast<VertexId>(kSenders));
  }
  const Graph g = b.build();
  RoundLedger ledger;
  Network net(g, ledger);
  net.set_shards(1);  // one shard even under XD_SHARDS
  for (VertexId v = 0; v < kSenders; ++v) {
    net.send_to(v, static_cast<VertexId>(kSenders), Message{1, v});
  }
  EXPECT_EQ(net.exchange("tail"), 1u);
  const auto inbox = net.inbox(static_cast<VertexId>(kSenders));
  ASSERT_EQ(inbox.size(), kSenders);
  for (std::size_t i = 0; i < kSenders; ++i) {
    EXPECT_EQ(inbox[i].from, i);
    EXPECT_EQ(inbox[i].msg.words[0], i);
  }
}

TEST(Message, DoubleRoundTrip) {
  Message m;
  m.set_double(0, 3.14159);
  m.set_double(1, -2.5e-9);
  EXPECT_DOUBLE_EQ(m.get_double(0), 3.14159);
  EXPECT_DOUBLE_EQ(m.get_double(1), -2.5e-9);
}

}  // namespace
}  // namespace xd::congest
