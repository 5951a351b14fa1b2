#pragma once

/// \file triple_rank.hpp
/// O(1) combinatorial ranking of sorted group triples.
///
/// The DLP proxy assignment enumerates the sorted triples {a <= b <= c}
/// over [0, p) in lexicographic order and deals proxy hosts round-robin in
/// that order, so the rank of a triple in the enumeration IS its proxy
/// identity: rank(a, b, c) = #{sorted triples lexicographically smaller}.
/// Closed form, with tet(x) = C(x+2, 3) and tri(x) = C(x+1, 2):
///
///   rank(a, b, c) = tet(p) - tet(p-a)      triples whose min is < a
///                 + tri(p-a) - tri(p-b)    min = a, middle in [a, b)
///                 + (c - b)                min = a, middle = b, last < c
///
/// This replaces the seed's (a*p + b)*p + c hash key plus its O(p^3)
/// unordered host table: host lookup becomes index arithmetic
/// (cluster_vertices[rank % |V_i|]), and each edge's targets in rank
/// order reproduce the seed's per-edge send order (the demand stream)
/// exactly, because rank is monotone in the old key (both walk the same
/// lexicographic order).

#include <algorithm>
#include <cstdint>

namespace xd::triangle {

/// Ranks sorted triples over the group domain [0, p).
class TripleRanker {
 public:
  explicit TripleRanker(std::uint32_t p) : p_(p) {}

  /// Group count p.
  [[nodiscard]] std::uint32_t p() const { return p_; }

  /// Number of sorted triples: C(p+2, 3).
  [[nodiscard]] std::uint64_t count() const { return tet(p_); }

  /// Rank of the sorted triple (a <= b <= c) in lexicographic order.
  [[nodiscard]] std::uint64_t rank_sorted(std::uint32_t a, std::uint32_t b,
                                          std::uint32_t c) const {
    return tet(p_) - tet(p_ - a) + tri(p_ - a) - tri(p_ - b) +
           (static_cast<std::uint64_t>(c) - b);
  }

  /// Rank of an arbitrary triple (sorted internally, three compares).
  [[nodiscard]] std::uint64_t rank(std::uint32_t a, std::uint32_t b,
                                   std::uint32_t c) const {
    if (a > b) std::swap(a, b);
    if (b > c) std::swap(b, c);
    if (a > b) std::swap(a, b);
    return rank_sorted(a, b, c);
  }

 private:
  static std::uint64_t tri(std::uint64_t x) { return x * (x + 1) / 2; }
  static std::uint64_t tet(std::uint64_t x) { return x * (x + 1) * (x + 2) / 6; }

  std::uint32_t p_;
};

}  // namespace xd::triangle
