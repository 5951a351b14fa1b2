#pragma once

/// \file queue_arena.hpp
/// Flat store-and-forward simulation over directed edges.
///
/// Both fully simulated routers (TreeRouter, SimulatedHierarchicalRouter)
/// end the same way: a batch of messages, each with a precomputed vertex
/// path, drained synchronously at one message per directed edge per round
/// with per-edge FIFO queues.  The arena keeps that in flat storage:
///
///   * a per-graph CSR index over *unique directed non-loop edges*,
///     ordered (u ascending, v ascending) -- the order in which queues
///     forward each round, which fixes the drain schedule;
///   * one contiguous ring-slot vector holding every queued message id:
///     each edge owns a pre-counted span of it (counts come from a single
///     pass over the staged paths), and per-edge head/tail offsets walk
///     that span FIFO;
///   * per-edge state lives in epoch-stamped maps (util/scratch.hpp), so a
///     drain touching q edges costs O(q), not O(E), to reset.
///
/// Paths are staged flat too (one concatenated vertex vector + offsets),
/// with each hop's edge id resolved once at staging time, and every
/// staged hop is checked to be a real directed edge of the graph.

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/scratch.hpp"

namespace xd::routing {

/// Drains batches of vertex-path messages through per-directed-edge FIFO
/// queues.  Reusable across batches: all scratch is retained and
/// epoch-stamped, so steady-state staging and draining allocate nothing.
class QueueArena {
 public:
  /// Builds the directed-edge index for `g` (must outlive the arena).
  explicit QueueArena(const Graph& g);

  /// Number of unique directed non-loop edges indexed.
  [[nodiscard]] std::size_t num_directed_edges() const {
    return edge_target_.size();
  }

  // ------------------------------------------------------------- staging

  /// Starts a new message batch, discarding the previous one.
  void begin_batch();

  /// Starts staging one message's path.
  void begin_path();

  /// Appends the next vertex of the current path.  Consecutive duplicates
  /// are collapsed (a hop from a vertex to itself moves nothing).
  void push_vertex(VertexId v);

  /// Finishes the current path.  Paths with fewer than two vertices are
  /// kept in the batch (they deliver instantly, arrival round 0) but never
  /// enqueue.
  void end_path();

  /// Messages staged in the current batch.
  [[nodiscard]] std::size_t batch_size() const {
    return path_offsets_.size() - 1;
  }

  /// Final vertex of staged message i's path (where the drain will leave
  /// it).  Requires a non-empty path.  Routers use this to audit that
  /// every staged message really terminates at its demand's destination.
  [[nodiscard]] VertexId path_terminal(std::size_t i) const {
    return path_data_[path_offsets_[i + 1] - 1];
  }

  // -------------------------------------------------------------- drains

  struct DrainResult {
    std::uint64_t rounds = 0;         ///< synchronous rounds until empty
    std::uint64_t messages_sent = 0;  ///< total hop transmissions
    /// Arrival round per staged message (batch order); 0 = no hops needed.
    std::vector<std::uint64_t> arrivals;
  };

  /// Flat drain of the staged batch: per round, every nonempty edge queue
  /// (ascending (u, v) order) forwards its front message.  The batch stays
  /// staged, so a second drain() replays the same messages.
  [[nodiscard]] DrainResult drain();

  /// Per-edge scratch growth/reuse counters (regression hook: the steady
  /// state must stop growing).
  [[nodiscard]] const util::ScratchStats& scratch_stats() const {
    return queue_state_.stats();
  }

 private:
  struct QueueState {
    std::uint32_t base = 0;  ///< first slot of this edge's span
    std::uint32_t head = 0;  ///< next pop position (absolute)
    std::uint32_t tail = 0;  ///< next push position (absolute)
  };

  /// Index of directed edge (u, v), or aborts if {u, v} is not an edge.
  [[nodiscard]] std::uint32_t edge_index(VertexId u, VertexId v) const;

  const Graph* graph_;
  /// CSR over unique directed non-loop edges: for u, targets ascending in
  /// edge_target_[edge_offsets_[u] .. edge_offsets_[u + 1]).
  std::vector<std::uint32_t> edge_offsets_;
  std::vector<VertexId> edge_target_;

  /// Staged batch: concatenated paths + per-message offsets, and the edge
  /// id of every hop (hop_edges_[i] is the hop *entering* position i, i.e.
  /// the edge path_data_[i-1] -> path_data_[i]; the first position of each
  /// path holds a placeholder).
  std::vector<VertexId> path_data_;
  std::vector<std::uint32_t> path_offsets_;
  std::vector<std::uint32_t> hop_edges_;

  // Drain scratch, all retained across batches.
  util::StampedMap<std::uint32_t> hop_counts_;
  util::StampedMap<QueueState> queue_state_;
  std::vector<std::uint32_t> touched_edges_;
  std::vector<std::uint32_t> ring_slots_;
  std::vector<std::uint32_t> msg_at_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> moves_;
};

}  // namespace xd::routing
