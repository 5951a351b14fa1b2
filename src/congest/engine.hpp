#pragma once

/// \file engine.hpp
/// The batched round-engine programming model.
///
/// A VertexProgram expresses one round-synchronous protocol step as two
/// phases, executed by Network::run_round:
///
///   1. send phase    -- on_send(v, outbox) runs for every vertex and stages
///                       messages; it may READ any shared state but must not
///                       write state another vertex's on_send reads;
///   2. delivery      -- all staged messages are delivered at once (flat
///                       CSR inboxes, canonical directed-slot order) and the
///                       ledger is charged max-edge-congestion rounds;
///   3. receive phase -- on_receive(v, inbox) runs for every vertex and
///                       folds its deliveries; it may only WRITE state owned
///                       by v (its own array entries), which is what makes
///                       the phase safe to run on any number of threads.
///
/// The split mirrors the stage/exchange/fold shape every protocol in this
/// library already had, and is what makes the opt-in thread-parallel
/// executor (Network::set_threads with set_shards) deterministic: phases
/// are data-parallel over vertex shards, the barrier between them is the
/// exchange itself, and delivery order is canonicalized by directed slot
/// before inboxes are built, so results are bit-identical across thread
/// counts.  See
/// docs/engine.md for the full determinism contract.  One level up,
/// scheduler.hpp applies the same contract across whole networks: disjoint
/// components of a decomposition level run as concurrent work items, each
/// charging a forked ledger branch (joined by max -- docs/rounds.md).

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xd::congest {

class Network;

namespace detail {

/// Staged messages, structure-of-arrays: the delivery passes that only need
/// routing information (congestion counting, canonical ordering) stream the
/// 4-byte slot array instead of dragging full message payloads through the
/// cache.  The receiver is not stored -- it is the slot's target in the CSR
/// (Graph::slot_target), and the sender is kept for Envelope provenance.
struct StagingBuffer {
  std::vector<std::uint32_t> slot;  ///< global directed slot per message
  std::vector<VertexId> from;       ///< sender per message
  std::vector<Message> msg;         ///< payload per message

  [[nodiscard]] std::size_t size() const { return slot.size(); }
  void clear() {
    slot.clear();
    from.clear();
    msg.clear();
  }
  void push(std::uint32_t s, VertexId f, const Message& m) {
    slot.push_back(s);
    from.push_back(f);
    msg.push_back(m);
  }
};

}  // namespace detail

/// Per-vertex staging handle passed to VertexProgram::on_send.  Writes go
/// straight into the current vertex's shard's aggregation buffers
/// (shard_plane.hpp), which no other worker touches, so staging is safe and
/// allocation-free on the hot path.
class Outbox {
 public:
  /// Stage a message over adjacency slot `slot` of the current vertex.
  void send(std::uint32_t slot, const Message& msg);

  /// Stage a message to neighbor `to`; O(log deg) via the graph's
  /// neighbor->slot index.
  void send_to(VertexId to, const Message& msg);

  /// The vertex this handle currently stages for.
  [[nodiscard]] VertexId vertex() const { return vertex_; }

  /// The current vertex's private random stream.
  [[nodiscard]] Rng& rng() const;

 private:
  friend class Network;
  explicit Outbox(Network* net) : net_(net) {}

  Network* net_;
  VertexId vertex_ = 0;
};

/// One round-synchronous protocol step, run by Network::run_round.
class VertexProgram {
 public:
  virtual ~VertexProgram() = default;

  /// Send phase: stage this round's messages from v.  May read shared
  /// state; must not write state other vertices' on_send calls read.
  virtual void on_send(VertexId v, Outbox& out) = 0;

  /// Receive phase: fold the messages delivered to v this round.  May only
  /// write state owned by v.
  virtual void on_receive(VertexId v, std::span<const Envelope> inbox) = 0;
};

/// Adapter so protocols can pass two lambdas instead of subclassing.
template <class SendFn, class ReceiveFn>
class LambdaProgram final : public VertexProgram {
 public:
  LambdaProgram(SendFn send, ReceiveFn receive)
      : send_(std::move(send)), receive_(std::move(receive)) {}

  void on_send(VertexId v, Outbox& out) override { send_(v, out); }
  void on_receive(VertexId v, std::span<const Envelope> inbox) override {
    receive_(v, inbox);
  }

 private:
  SendFn send_;
  ReceiveFn receive_;
};

template <class SendFn, class ReceiveFn>
LambdaProgram<SendFn, ReceiveFn> make_program(SendFn send, ReceiveFn receive) {
  return LambdaProgram<SendFn, ReceiveFn>(std::move(send), std::move(receive));
}

}  // namespace xd::congest
