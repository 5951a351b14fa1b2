#pragma once

/// \file vertex_set.hpp
/// A set of vertices S ⊆ V, stored sorted.  The cut/conductance metrics and
/// the decomposition bookkeeping all traffic in these.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace xd {

/// Sorted, duplicate-free vertex set with O(log n) membership queries.
class VertexSet {
 public:
  VertexSet() = default;
  /// Takes any order, sorts and dedups.
  explicit VertexSet(std::vector<VertexId> ids);
  VertexSet(std::initializer_list<VertexId> ids);

  /// The full vertex set {0, ..., n-1}.
  static VertexSet all(std::size_t n);

  [[nodiscard]] bool contains(VertexId v) const;
  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] bool empty() const { return ids_.empty(); }
  [[nodiscard]] std::span<const VertexId> ids() const { return ids_; }

  [[nodiscard]] auto begin() const { return ids_.begin(); }
  [[nodiscard]] auto end() const { return ids_.end(); }

  /// V \ S against ground set {0, ..., n-1}.
  [[nodiscard]] VertexSet complement(std::size_t n) const;
  [[nodiscard]] VertexSet set_union(const VertexSet& other) const;
  [[nodiscard]] VertexSet set_intersection(const VertexSet& other) const;
  [[nodiscard]] VertexSet set_difference(const VertexSet& other) const;

  /// Membership bitmap of size n (convenience for linear-scan algorithms).
  [[nodiscard]] std::vector<char> bitmap(std::size_t n) const;

  friend bool operator==(const VertexSet&, const VertexSet&) = default;

 private:
  std::vector<VertexId> ids_;
};

}  // namespace xd
