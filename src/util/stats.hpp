#pragma once

/// \file stats.hpp
/// Power-law fitting for the benches' round-complexity shapes.

#include <cstddef>
#include <vector>

namespace xd {

/// Least-squares fit of log(y) = a + s * log(x); `slope()` estimates the
/// polynomial exponent s.  This is how the benches verify round-complexity
/// shapes (e.g. triangle enumeration rounds growing like n^{1/3}).
class LogLogFit {
 public:
  void add(double x, double y);
  [[nodiscard]] double slope() const;
  [[nodiscard]] double intercept() const;
  [[nodiscard]] std::size_t count() const { return xs_.size(); }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace xd
