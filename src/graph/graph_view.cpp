#include "graph/graph_view.hpp"

#include <utility>

#include "util/check.hpp"

namespace xd {

GraphView::GraphView(const Graph& ambient, const std::vector<char>* removed,
                     VertexSet u)
    : g_(&ambient), removed_(removed), active_(std::move(u)) {
  const std::size_t n = g_->num_vertices();
  XD_CHECK(removed_ == nullptr || removed_->size() == g_->num_edges());
  mask_.assign(n, 0);
  for (const VertexId v : active_) {
    XD_CHECK(v < n);
    mask_[v] = 1;
  }
  // One O(Vol(U)) counting scan replaces the materialized copy: volume is
  // degree-preserved by the loop substitution, and |E| follows from the
  // surviving non-loop count (each occupies two slots, every other slot
  // reads as a one-slot loop): |E| = Vol - #nonloop.
  for (const VertexId v : active_) {
    volume_ += g_->degree(v);
    const auto nbrs = g_->neighbors(v);
    const auto eids = g_->incident_edges(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId w = nbrs[i];
      if (w > v && mask_[w] && !is_removed(eids[i])) ++live_nonloop_;
    }
  }
}

std::uint32_t GraphView::loops_at(VertexId v) const {
  if (!mask_[v]) return 0;
  std::uint32_t loops = 0;
  const auto nbrs = g_->neighbors(v);
  const auto eids = g_->incident_edges(v);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    const VertexId w = nbrs[i];
    if (w == v || !mask_[w] || is_removed(eids[i])) ++loops;
  }
  return loops;
}

}  // namespace xd
