// Unit tests for src/common (numerics, dense matrix, table printer) and
// the dense LU test oracle (linear_solver.h).
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/dense_matrix.h"
#include "common/error.h"
#include "common/numeric.h"
#include "common/table_printer.h"

// The dense LU oracle.
#include "linear_solver.h"

namespace mcsm {
namespace {

TEST(Softplus, MatchesReferenceInMidRange) {
    for (double x = -20.0; x <= 20.0; x += 0.37) {
        EXPECT_NEAR(softplus(x), std::log1p(std::exp(x)), 1e-12);
    }
}

TEST(Softplus, LargeArgumentsAreLinearAndSafe) {
    EXPECT_DOUBLE_EQ(softplus(1000.0), 1000.0);
    EXPECT_NEAR(softplus(-1000.0), 0.0, 1e-300);
    EXPECT_TRUE(std::isfinite(softplus(1e308)));
}

TEST(Logistic, IsDerivativeOfSoftplus) {
    const double h = 1e-6;
    for (double x = -30.0; x <= 30.0; x += 1.3) {
        const double fd = (softplus(x + h) - softplus(x - h)) / (2 * h);
        EXPECT_NEAR(logistic(x), fd, 1e-6) << "x=" << x;
    }
}

TEST(Logistic, Symmetry) {
    for (double x = 0.0; x < 40.0; x += 2.1) {
        EXPECT_NEAR(logistic(x) + logistic(-x), 1.0, 1e-12);
    }
}

TEST(SmoothAbs, ZeroAtZeroAndApproachesAbs) {
    EXPECT_DOUBLE_EQ(smooth_abs(0.0, 1e-3), 0.0);
    EXPECT_NEAR(smooth_abs(5.0, 1e-3), 5.0, 1e-3);
    EXPECT_NEAR(smooth_abs(-5.0, 1e-3), 5.0, 1e-3);
}

TEST(SmoothAbs, DerivativeMatchesFiniteDifference) {
    const double eps = 1e-2;
    const double h = 1e-7;
    for (double x = -1.0; x <= 1.0; x += 0.11) {
        const double fd = (smooth_abs(x + h, eps) - smooth_abs(x - h, eps)) / (2 * h);
        EXPECT_NEAR(smooth_abs_deriv(x, eps), fd, 1e-5);
    }
}

TEST(Linspace, EndpointsExactAndSpacingUniform) {
    const auto v = linspace(-0.12, 1.32, 13);
    ASSERT_EQ(v.size(), 13u);
    EXPECT_DOUBLE_EQ(v.front(), -0.12);
    EXPECT_DOUBLE_EQ(v.back(), 1.32);
    for (std::size_t i = 1; i < v.size(); ++i)
        EXPECT_NEAR(v[i] - v[i - 1], 0.12, 1e-12);
}

TEST(Bracket, FindsEnclosingSegmentAndClamps) {
    const std::vector<double> xs{0.0, 1.0, 2.0, 5.0};
    EXPECT_EQ(bracket(xs, -3.0), 0u);
    EXPECT_EQ(bracket(xs, 0.5), 0u);
    EXPECT_EQ(bracket(xs, 1.0), 1u);
    EXPECT_EQ(bracket(xs, 4.9), 2u);
    EXPECT_EQ(bracket(xs, 99.0), 2u);
}

TEST(DenseMatrix, MultiplyAndMaxAbs) {
    DenseMatrix a(2, 3);
    a.at(0, 0) = 1.0;
    a.at(0, 2) = -4.0;
    a.at(1, 1) = 2.0;
    const auto y = a.multiply({1.0, 2.0, 3.0});
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], -11.0);
    EXPECT_DOUBLE_EQ(y[1], 4.0);
    EXPECT_DOUBLE_EQ(a.max_abs(), 4.0);
}

TEST(LinearSolver, SolvesRandomSystemExactly) {
    // Hand-picked well-conditioned system.
    DenseMatrix a(3, 3);
    const double rows[3][3] = {{4, 1, 0}, {1, 3, -1}, {0, -1, 5}};
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c) a.at(r, c) = rows[r][c];
    const std::vector<double> x_true{1.0, -2.0, 0.5};
    auto b = a.multiply(x_true);
    const auto x = solve_lu(a, b);
    for (int i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-12);
}

TEST(LinearSolver, RequiresPivoting) {
    // Zero on the diagonal forces a row swap.
    DenseMatrix a(2, 2);
    a.at(0, 0) = 0.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 2.0;
    a.at(1, 1) = 1.0;
    std::vector<double> b{3.0, 4.0};
    const auto x = solve_lu(a, b);
    EXPECT_NEAR(x[0], 0.5, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinearSolver, ThrowsOnSingular) {
    DenseMatrix a(2, 2);
    a.at(0, 0) = 1.0;
    a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0;
    a.at(1, 1) = 4.0;
    std::vector<double> b{1.0, 2.0};
    EXPECT_THROW(solve_lu(a, b), NumericalError);
}

TEST(TablePrinter, CsvRoundTrip) {
    TablePrinter t({"a", "b"});
    t.add_row({"1", "x"});
    t.add_row({"2", "y"});
    std::ostringstream os;
    t.print_csv(os);
    EXPECT_EQ(os.str(), "a,b\n1,x\n2,y\n");
    EXPECT_EQ(t.row_count(), 2u);
}

TEST(TablePrinter, RejectsRaggedRows) {
    TablePrinter t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), ModelError);
}

}  // namespace
}  // namespace mcsm
