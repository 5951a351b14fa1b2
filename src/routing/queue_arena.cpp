#include "routing/queue_arena.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xd::routing {

QueueArena::QueueArena(const Graph& g) : graph_(&g) {
  const std::size_t n = g.num_vertices();
  edge_offsets_.assign(n + 1, 0);
  edge_target_.reserve(g.volume());
  std::vector<VertexId> nbrs;
  for (VertexId u = 0; u < n; ++u) {
    nbrs.clear();
    for (const VertexId v : g.neighbors(u)) {
      if (v != u) nbrs.push_back(v);
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    edge_target_.insert(edge_target_.end(), nbrs.begin(), nbrs.end());
    edge_offsets_[u + 1] = static_cast<std::uint32_t>(edge_target_.size());
  }
  path_offsets_.assign(1, 0);
}

std::uint32_t QueueArena::edge_index(VertexId u, VertexId v) const {
  XD_CHECK(u < graph_->num_vertices() && v < graph_->num_vertices());
  const auto* begin = edge_target_.data() + edge_offsets_[u];
  const auto* end = edge_target_.data() + edge_offsets_[u + 1];
  const auto* it = std::lower_bound(begin, end, v);
  XD_CHECK_MSG(it != end && *it == v,
               "path hop " << u << " -> " << v << " is not a graph edge");
  return static_cast<std::uint32_t>(edge_offsets_[u] + (it - begin));
}

void QueueArena::begin_batch() {
  path_data_.clear();
  path_offsets_.assign(1, 0);
  hop_edges_.clear();
}

void QueueArena::begin_path() {
  XD_CHECK(path_offsets_.back() == path_data_.size());
}

void QueueArena::push_vertex(VertexId v) {
  if (path_data_.size() > path_offsets_.back() && path_data_.back() == v) {
    return;  // collapse a self-hop
  }
  if (path_data_.size() > path_offsets_.back()) {
    hop_edges_.push_back(edge_index(path_data_.back(), v));
  } else {
    hop_edges_.push_back(0);  // keep hop_edges_ parallel to path_data_
  }
  path_data_.push_back(v);
}

void QueueArena::end_path() {
  // Offsets and ring cursors are 32-bit; a batch whose concatenated paths
  // overflow them must fail loudly, not wrap into a garbage schedule.
  XD_CHECK_MSG(path_data_.size() < (std::uint64_t{1} << 32),
               "staged batch exceeds 2^32 path vertices");
  path_offsets_.push_back(static_cast<std::uint32_t>(path_data_.size()));
}

QueueArena::DrainResult QueueArena::drain() {
  const std::size_t msgs = batch_size();
  DrainResult out;
  out.arrivals.assign(msgs, 0);

  // Pass 1: per-edge traversal counts over the whole batch (every hop of a
  // path enqueues exactly once), plus the set of edges ever used.  The
  // counts size each edge's span of the contiguous ring-slot vector.
  hop_counts_.begin_epoch(num_directed_edges());
  touched_edges_.clear();
  std::size_t total_hops = 0;
  std::size_t undelivered = 0;
  for (std::size_t i = 0; i < msgs; ++i) {
    const std::uint32_t b = path_offsets_[i];
    const std::uint32_t e = path_offsets_[i + 1];
    if (e - b < 2) continue;
    ++undelivered;
    total_hops += e - b - 1;
    for (std::uint32_t j = b + 1; j < e; ++j) {
      const std::uint32_t edge = hop_edges_[j];
      auto& c = hop_counts_.ref(edge);
      if (c == 0) touched_edges_.push_back(edge);
      ++c;
    }
  }
  std::sort(touched_edges_.begin(), touched_edges_.end());

  // Carve the ring-slot vector into per-edge spans (prefix sums of the
  // counts, in edge order) and seed each message onto its first edge.
  ring_slots_.resize(total_hops);
  queue_state_.begin_epoch(num_directed_edges());
  std::uint32_t base = 0;
  for (const std::uint32_t edge : touched_edges_) {
    queue_state_.ref(edge) = QueueState{base, base, base};
    base += hop_counts_.at(edge);
  }
  msg_at_.assign(msgs, 0);
  for (std::size_t i = 0; i < msgs; ++i) {
    const std::uint32_t b = path_offsets_[i];
    if (path_offsets_[i + 1] - b < 2) continue;
    auto& q = queue_state_.ref(hop_edges_[b + 1]);
    ring_slots_[q.tail++] = static_cast<std::uint32_t>(i);
  }

  // Synchronous drain: per round, each nonempty edge queue (ascending
  // (u, v) order -- the edge-id order) forwards its front message; the
  // forwarded messages then enqueue their next hop in the same order.
  while (undelivered > 0) {
    ++out.rounds;
    XD_CHECK_MSG(out.rounds < 100 * msgs + 1000,
                 "store-and-forward failed to drain");
    moves_.clear();
    for (const std::uint32_t edge : touched_edges_) {
      auto& q = queue_state_.ref(edge);
      if (q.head < q.tail) moves_.push_back({edge, ring_slots_[q.head++]});
    }
    for (const auto& [edge, mi] : moves_) {
      ++out.messages_sent;
      const std::uint32_t pos = path_offsets_[mi] + ++msg_at_[mi];
      XD_CHECK(path_data_[pos] == edge_target_[edge]);
      if (pos + 1 < path_offsets_[mi + 1]) {
        auto& q = queue_state_.ref(hop_edges_[pos + 1]);
        ring_slots_[q.tail++] = mi;
      } else {
        out.arrivals[mi] = out.rounds;
        --undelivered;
      }
    }
  }
  return out;
}

}  // namespace xd::routing
