#include "tsmath/gram.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tsmath/linreg.h"
#include "tsmath/matrix.h"
#include "tsmath/random.h"
#include "tsmath/timeseries.h"

namespace litmus::ts {
namespace {

Matrix random_design(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r = 0; r < rows; ++r)
      m(r, c) = rng.normal(0.0, 1.0) + static_cast<double>(c);
  return m;
}

std::vector<double> make_response(const Matrix& x, std::uint64_t seed) {
  Rng rng(seed ^ 0xBEEF);
  std::vector<double> y(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double v = 0.7;
    for (std::size_t c = 0; c < x.cols(); ++c)
      v += (0.3 + 0.1 * static_cast<double>(c)) * x(r, c);
    y[r] = v + rng.normal(0.0, 0.05);
  }
  return y;
}

TEST(GramPanel, MatchesQrOnCompletePanel) {
  const Matrix x = random_design(120, 8, 42);
  const std::vector<double> y = make_response(x, 42);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  EXPECT_EQ(panel.panel_rows(), 120u);
  EXPECT_EQ(panel.design_rows(), 120u);
  EXPECT_EQ(panel.cols(), 8u);
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, /*with_intercept=*/true));
  EXPECT_EQ(gram.rows(), 120u);

  GramScratch scratch;
  const std::vector<std::vector<std::size_t>> subsets = {
      {0, 1, 2, 3, 4, 5, 6, 7}, {0, 3, 7}, {2}, {1, 4, 5, 6}};
  for (const auto& cols : subsets) {
    ASSERT_TRUE(gram.subset_matches_panel(cols));
    LinearModel fast;
    ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
    const LinearModel slow = fit_ols(x.select_columns(cols), y);
    ASSERT_TRUE(slow.ok);
    ASSERT_EQ(fast.coefficients.size(), slow.coefficients.size());
    EXPECT_NEAR(fast.intercept, slow.intercept, 1e-9);
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
    EXPECT_NEAR(fast.r_squared, slow.r_squared, 1e-9);
    EXPECT_NEAR(fast.residual_stddev, slow.residual_stddev, 1e-9);
    EXPECT_GT(fast.condition, 0.0);
  }
}

TEST(GramPanel, MatchesQrWithoutIntercept) {
  const Matrix x = random_design(80, 5, 7);
  const std::vector<double> y = make_response(x, 7);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, /*with_intercept=*/false));

  GramScratch scratch;
  const std::vector<std::size_t> cols = {0, 2, 4};
  LinearModel fast;
  ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
  EXPECT_FALSE(fast.with_intercept);
  EXPECT_EQ(fast.intercept, 0.0);
  const LinearModel slow =
      fit_ols(x.select_columns(cols), y, /*with_intercept=*/false);
  ASSERT_TRUE(slow.ok);
  for (std::size_t i = 0; i < cols.size(); ++i)
    EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
  EXPECT_NEAR(fast.residual_stddev, slow.residual_stddev, 1e-9);
}

TEST(GramPanel, SubsetMatchingTracksPerColumnMissingness) {
  Matrix x = random_design(64, 4, 3);
  std::vector<double> y = make_response(x, 3);
  // Column 2 is missing at rows the others have, so any subset including
  // column 2 sees the panel row set, while subsets excluding it have MORE
  // complete rows than the panel — the fast path must refuse those.
  x(10, 2) = kMissing;
  x(33, 2) = kMissing;
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  EXPECT_EQ(panel.panel_rows(), 62u);
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));

  const std::vector<std::size_t> with2 = {0, 2, 3};
  const std::vector<std::size_t> without2 = {0, 1, 3};
  EXPECT_TRUE(gram.subset_matches_panel(with2));
  EXPECT_FALSE(gram.subset_matches_panel(without2));

  // The matching subset still agrees with QR to 1e-9: fit_ols drops the
  // same two rows.
  GramScratch scratch;
  LinearModel fast;
  ASSERT_TRUE(gram.solve_subset(with2, scratch, fast));
  const LinearModel slow = fit_ols(x.select_columns(with2), y);
  ASSERT_TRUE(slow.ok);
  for (std::size_t i = 0; i < with2.size(); ++i)
    EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
}

TEST(GramPanel, MissingResponseRowsReduceTheBoundSystem) {
  Matrix x = random_design(50, 3, 11);
  std::vector<double> y = make_response(x, 11);
  y[5] = kMissing;
  y[49] = kMissing;
  // The design-only panel keeps all 50 rows (y is not its business)...
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  EXPECT_EQ(panel.panel_rows(), 50u);
  // ...and the bound system drops the two y-missing rows, re-accumulating
  // a reduced Gram so subsets still reproduce QR exactly.
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  EXPECT_EQ(gram.rows(), 48u);
  const std::vector<std::size_t> cols = {0, 1, 2};
  EXPECT_TRUE(gram.subset_matches_panel(cols));
  GramScratch scratch;
  LinearModel fast;
  ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
  const LinearModel slow = fit_ols(x, y);
  ASSERT_TRUE(slow.ok);
  for (std::size_t i = 0; i < cols.size(); ++i)
    EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
}

TEST(GramPanel, OnePanelServesManyResponses) {
  // The sharing shape the per-call panel exploits: bind E responses to one
  // design-only panel and check each against its own QR fit.
  const Matrix x = random_design(90, 6, 21);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramScratch scratch;
  const std::vector<std::size_t> cols = {0, 1, 3, 5};
  for (std::uint64_t e = 0; e < 4; ++e) {
    const std::vector<double> y = make_response(x, 100 + e);
    GramSystem gram;
    ASSERT_TRUE(gram.bind(panel, y, true));
    ASSERT_TRUE(gram.subset_matches_panel(cols));
    LinearModel fast;
    ASSERT_TRUE(gram.solve_subset(cols, scratch, fast));
    const LinearModel slow = fit_ols(x.select_columns(cols), y);
    ASSERT_TRUE(slow.ok);
    EXPECT_NEAR(fast.intercept, slow.intercept, 1e-9);
    for (std::size_t i = 0; i < cols.size(); ++i)
      EXPECT_NEAR(fast.coefficients[i], slow.coefficients[i], 1e-9);
  }
}

TEST(GramPanel, RefusesSingularSubsets) {
  // Two identical columns: the sub-Gram is exactly singular, so the
  // Cholesky pivot check must bail out instead of returning garbage.
  Matrix x(40, 2);
  Rng rng(5);
  for (std::size_t r = 0; r < 40; ++r) {
    const double v = rng.normal();
    x(r, 0) = v;
    x(r, 1) = v;
  }
  std::vector<double> y(40);
  for (std::size_t r = 0; r < 40; ++r) y[r] = 2.0 * x(r, 0) + rng.normal();
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  GramScratch scratch;
  LinearModel out;
  const std::vector<std::size_t> both = {0, 1};
  EXPECT_FALSE(gram.solve_subset(both, scratch, out));
  EXPECT_FALSE(out.ok);
  // A single copy of the column is fine.
  const std::vector<std::size_t> one = {0};
  EXPECT_TRUE(gram.solve_subset(one, scratch, out));
  EXPECT_TRUE(out.ok);
  EXPECT_NEAR(out.coefficients[0], 2.0, 0.5);
}

TEST(GramPanel, NotOkWhenTooFewCompleteRows) {
  Matrix x(6, 2);
  for (std::size_t r = 0; r < 6; ++r) {
    x(r, 0) = static_cast<double>(r);
    x(r, 1) = r < 3 ? kMissing : 1.0;
  }
  const GramPanel panel = GramPanel::build(x);
  EXPECT_FALSE(panel.ok());
  // Binding to a bad panel fails too.
  GramSystem gram;
  EXPECT_FALSE(gram.bind(panel, std::vector<double>(6, 1.0), true));
  EXPECT_FALSE(gram.ok());
}

TEST(GramPanel, BindFailsWhenYLeavesTooFewJointRows) {
  Matrix x = random_design(8, 2, 13);
  std::vector<double> y(8, 1.0);
  for (std::size_t r = 0; r < 6; ++r) y[r] = kMissing;
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  EXPECT_FALSE(gram.bind(panel, y, true));
  EXPECT_FALSE(gram.ok());
}

TEST(GramPanel, BindRejectsSizeMismatch) {
  const Matrix x = random_design(20, 2, 17);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  EXPECT_FALSE(gram.bind(panel, std::vector<double>(19, 1.0), true));
}

TEST(GramPanel, SolveRejectsOversizedSubsets) {
  const Matrix x = random_design(8, 6, 9);
  const std::vector<double> y = make_response(x, 9);
  const GramPanel panel = GramPanel::build(x);
  ASSERT_TRUE(panel.ok());
  GramSystem gram;
  ASSERT_TRUE(gram.bind(panel, y, true));
  // 8 rows cannot support 6 coefficients + intercept with 1 dof to spare.
  GramScratch scratch;
  LinearModel out;
  const std::vector<std::size_t> cols = {0, 1, 2, 3, 4, 5};
  EXPECT_FALSE(gram.solve_subset(cols, scratch, out));
}

}  // namespace
}  // namespace litmus::ts
