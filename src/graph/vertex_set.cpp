#include "graph/vertex_set.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace xd {

VertexSet::VertexSet(std::vector<VertexId> ids) : ids_(std::move(ids)) {
  std::sort(ids_.begin(), ids_.end());
  ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
}

VertexSet::VertexSet(std::initializer_list<VertexId> ids)
    : VertexSet(std::vector<VertexId>(ids)) {}

VertexSet VertexSet::all(std::size_t n) {
  std::vector<VertexId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<VertexId>(i);
  VertexSet s;
  s.ids_ = std::move(ids);
  return s;
}

bool VertexSet::contains(VertexId v) const {
  return std::binary_search(ids_.begin(), ids_.end(), v);
}

VertexSet VertexSet::complement(std::size_t n) const {
  VertexSet out;
  out.ids_.reserve(n - ids_.size());
  std::size_t cursor = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (cursor < ids_.size() && ids_[cursor] == v) {
      ++cursor;
    } else {
      out.ids_.push_back(v);
    }
  }
  return out;
}

VertexSet VertexSet::set_union(const VertexSet& other) const {
  VertexSet out;
  std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(),
                 other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

VertexSet VertexSet::set_intersection(const VertexSet& other) const {
  VertexSet out;
  std::set_intersection(ids_.begin(), ids_.end(), other.ids_.begin(),
                        other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

VertexSet VertexSet::set_difference(const VertexSet& other) const {
  VertexSet out;
  std::set_difference(ids_.begin(), ids_.end(), other.ids_.begin(),
                      other.ids_.end(), std::back_inserter(out.ids_));
  return out;
}

std::vector<char> VertexSet::bitmap(std::size_t n) const {
  std::vector<char> mask(n, 0);
  for (VertexId v : ids_) {
    XD_CHECK(v < n);
    mask[v] = 1;
  }
  return mask;
}

}  // namespace xd
