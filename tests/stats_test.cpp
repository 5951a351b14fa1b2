#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.hpp"
#include "util/table.hpp"

namespace xd {
namespace {

TEST(LogLogFit, RecoversExactPowerLaw) {
  LogLogFit fit;
  for (double x : {10.0, 20.0, 40.0, 80.0, 160.0}) {
    fit.add(x, 3.0 * std::pow(x, 1.0 / 3.0));
  }
  EXPECT_NEAR(fit.slope(), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(std::exp(fit.intercept()), 3.0, 1e-9);
}

TEST(LogLogFit, RejectsNonPositive) {
  LogLogFit fit;
  EXPECT_THROW(fit.add(0.0, 1.0), CheckError);
  EXPECT_THROW(fit.add(1.0, -1.0), CheckError);
}

TEST(Table, RendersAlignedRows) {
  Table t("demo", {"a", "long-header", "c"});
  t.add_row({"1", "2", "3"});
  t.add_row({Table::cell(3.14159, 2), Table::cell(std::uint64_t{7}), "x"});
  const std::string r = t.render();
  EXPECT_NE(r.find("demo"), std::string::npos);
  EXPECT_NE(r.find("long-header"), std::string::npos);
  EXPECT_NE(r.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, PadsShortRows) {
  Table t("t", {"a", "b"});
  t.add_row({"only"});
  EXPECT_NE(t.render().find("only"), std::string::npos);
}

}  // namespace
}  // namespace xd
