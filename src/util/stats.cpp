#include "util/stats.hpp"

#include <cmath>

#include "util/check.hpp"

namespace xd {

void LogLogFit::add(double x, double y) {
  XD_CHECK(x > 0 && y > 0);
  xs_.push_back(std::log(x));
  ys_.push_back(std::log(y));
}

double LogLogFit::slope() const {
  XD_CHECK(xs_.size() >= 2);
  const auto n = static_cast<double>(xs_.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    sx += xs_[i];
    sy += ys_[i];
    sxx += xs_[i] * xs_[i];
    sxy += xs_[i] * ys_[i];
  }
  const double denom = n * sxx - sx * sx;
  XD_CHECK(std::abs(denom) > 1e-12);
  return (n * sxy - sx * sy) / denom;
}

double LogLogFit::intercept() const {
  XD_CHECK(xs_.size() >= 2);
  const auto n = static_cast<double>(xs_.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs_.size(); ++i) {
    sx += xs_[i];
    sy += ys_[i];
  }
  return (sy - slope() * sx) / n;
}

}  // namespace xd
