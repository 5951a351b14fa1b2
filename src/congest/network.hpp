#pragma once

/// \file network.hpp
/// The round-synchronous CONGEST kernel, built around a batched round
/// engine.
///
/// Usage pattern (a "logical exchange"):
///   1. stage messages with send() / send_to() from any vertex;
///   2. call exchange("label") -- all staged messages are delivered to the
///      receivers' inboxes and the ledger is charged max-edge-congestion
///      rounds (>= 1), i.e. the number of CONGEST rounds needed to push the
///      staged traffic through the most loaded directed edge at one bounded
///      message per edge per round;
///   3. read inbox(v).
///
/// Or, preferred for whole-protocol steps: implement a VertexProgram
/// (engine.hpp) and call run_round(); the engine runs the send phase over
/// all vertices, delivers, then runs the receive phase -- optionally on
/// several threads, one or more shards per worker (set_threads with
/// set_shards), with bit-identical results.  The phases
/// run on the same worker pool as the component-level epoch scheduler
/// (scheduler.hpp), which parallelizes *across* networks of disjoint
/// components; round charges for that case are documented in docs/rounds.md.
///
/// Delivery runs on the shard message plane (shard_plane.hpp), always: the
/// vertex set is split into S contiguous shards (S = 1 by default, one
/// aggregation buffer), every staging entry point writes into the sender
/// shard's per-destination buffers, and delivery canonicalizes each
/// destination shard's traffic by directed slot, reads congestion off the
/// per-slot runs, and scatters into one contiguous Envelope arena per shard
/// plus a global CSR offset array -- zero per-vertex allocations per round.
/// inbox(v) is a span into v's shard's arena, ordered by (sender, slot);
/// this order is deterministic and independent of staging interleaving and
/// of S, which is what makes the parallel executor exact.
///
/// Sending over a self-loop slot is rejected: loops are local state, not
/// channels.  Messages are validated to travel only over edges of the graph
/// (that *is* the CONGEST model -- no telepathy).
///
/// set_shards(S) repartitions the plane; results, delivery order, and round
/// charges are bit-identical at any (shards x threads) combination.  The
/// XD_SHARDS environment variable sets the construction default
/// (docs/sharding.md).

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "congest/engine.hpp"
#include "congest/ledger.hpp"
#include "congest/message.hpp"
#include "congest/shard_plane.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xd::congest {

/// Strict parser for shard counts (the XD_SHARDS environment variable and
/// any CLI flag that feeds set_shards).  Accepts a base-10 integer with
/// optional surrounding whitespace; rejects empty strings, garbage,
/// trailing junk ("4x"), zero, negatives, and absurd values (> 2^20) with
/// a CheckError -- a mistyped shard count must never silently run
/// unsharded.
int parse_shard_count(const char* text);

/// Round-synchronous message-passing network over a fixed topology.
class Network {
 public:
  /// \param graph   topology; must outlive the network
  /// \param ledger  accounting sink; must outlive the network
  /// \param seed    run seed; per-vertex private streams fork from it
  Network(const Graph& graph, RoundLedger& ledger, std::uint64_t seed = 1);

  [[nodiscard]] const Graph& graph() const { return *graph_; }
  [[nodiscard]] RoundLedger& ledger() { return *ledger_; }
  [[nodiscard]] std::size_t num_vertices() const { return graph_->num_vertices(); }

  /// Private randomness of vertex v (the model's local random bits).
  [[nodiscard]] Rng& rng(VertexId v) { return rngs_[v]; }

  /// Stage a message from `from` over its adjacency slot `slot`
  /// (0 <= slot < degree).  Rejects self-loop slots.
  void send(VertexId from, std::uint32_t slot, const Message& msg);

  /// Stage a message from `from` to neighbor `to`; O(log deg) via the
  /// graph's neighbor->slot index.  Requires {from, to} to be an edge.
  void send_to(VertexId from, VertexId to, const Message& msg);

  /// Deliver all staged messages; charge max(1, max directed-edge
  /// congestion) rounds under `reason`.  Clears previous inboxes first.
  /// Returns the number of rounds charged.
  std::uint64_t exchange(std::string_view reason);

  /// Deliver staged messages, charging exactly `rounds_override` rounds
  /// (used when a phase's cost is charged in aggregate elsewhere, e.g. the
  /// pipelined parts of Lemma 10).  Congestion must not exceed the
  /// override -- checked.
  std::uint64_t exchange_charging(std::string_view reason,
                                  std::uint64_t rounds_override);

  /// Charge idle rounds (a phase that waits without traffic).
  void tick(std::uint64_t rounds, std::string_view reason);

  /// Messages delivered to v in the last exchange: a span into v's shard's
  /// inbox arena, ordered by (sender, sender slot).
  [[nodiscard]] std::span<const Envelope> inbox(VertexId v) const {
    return plane_.inbox(v);
  }

  /// Total messages staged for the pending exchange (diagnostics).
  [[nodiscard]] std::size_t staged() const { return plane_.staged(); }

  // ---------------------------------------------------------- round engine

  /// Run one superstep of `program`: send phase over all vertices, one
  /// delivery (charged like exchange), receive phase over all vertices.
  /// Returns the rounds charged.
  std::uint64_t run_round(VertexProgram& program, std::string_view reason);

  /// run_round `rounds` times; returns total rounds charged.
  std::uint64_t run_rounds(VertexProgram& program, int rounds,
                           std::string_view reason);

  /// Worker cap for run_round phases and delivery (default 1 = serial).
  /// The shard is the unit of parallel work, so at most min(threads, S)
  /// workers run: at the default S = 1 every phase is serial, and parallel
  /// phases need set_shards(>= threads) as well.  Results are bit-identical
  /// for every thread count.
  void set_threads(int threads);
  [[nodiscard]] int threads() const { return threads_; }

  /// Repartition the message plane into S contiguous vertex shards
  /// exchanging S x S aggregation buffers (shard_plane.hpp; default 1).
  /// Every S is bit-identical, and S also caps the workers set_threads
  /// asks for.  Rejected while messages are staged (the pending traffic
  /// would be orphaned).  The XD_SHARDS environment variable sets the
  /// construction default.
  void set_shards(int shards);
  [[nodiscard]] int shards() const { return plane_.shards(); }

  /// Totals and per-shard buffer/scatter timings of the last delivery
  /// (bench_kernel's breakdown).
  [[nodiscard]] const ShardDeliveryStats& shard_delivery_stats() const {
    return plane_.last_delivery();
  }

  /// Total binary-search probes spent in send_to slot lookups (diagnostics;
  /// the star-broadcast regression test asserts this stays O(S log deg)).
  [[nodiscard]] std::uint64_t slot_lookup_probes() const {
    return slot_lookup_probes_.load(std::memory_order_relaxed);
  }

 private:
  /// Deliver the staged traffic through the plane; charge and return
  /// rounds.
  std::uint64_t do_exchange(std::string_view reason, bool has_override,
                            std::uint64_t rounds_override);

  const Graph* graph_;
  RoundLedger* ledger_;
  std::vector<Rng> rngs_;
  int threads_ = 1;
  /// Relaxed atomic: bumped from parallel send phases, read for diagnostics.
  std::atomic<std::uint64_t> slot_lookup_probes_{0};
  ShardPlane plane_;
};

}  // namespace xd::congest
