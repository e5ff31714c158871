// Unit and property tests for the N-D lookup tables.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/error.h"
#include "lut/axis.h"
#include "lut/ndtable.h"

namespace mcsm::lut {
namespace {

// The kernel's segment locate, seen through a 1-D table whose values are
// the knot indices: at() returns index + u, and the gradient is the
// located segment's slope 1/h.
TEST(NdTable, LocateClampsAndNormalizes) {
    NdTable t({Axis("v", {0.0, 1.0, 3.0})}, "index");
    for (std::size_t i = 0; i < 3; ++i) {
        const std::size_t idx[1] = {i};
        t.set_grid_value(idx, static_cast<double>(i));
    }
    const auto locate = [&](double x, double& slope) {
        const double q[1] = {x};
        double g[1] = {0.0};
        const double v = t.at_with_gradient(q, g);
        EXPECT_EQ(t.at(q), v);
        slope = g[0];
        return v;
    };
    double slope = 0.0;
    EXPECT_DOUBLE_EQ(locate(0.5, slope), 0.5);  // segment 0, u = 0.5
    EXPECT_DOUBLE_EQ(slope, 1.0);
    EXPECT_DOUBLE_EQ(locate(2.0, slope), 1.5);  // segment 1, u = 0.5
    EXPECT_DOUBLE_EQ(slope, 0.5);
    EXPECT_DOUBLE_EQ(locate(-10.0, slope), 0.0);  // clamped: segment 0, u = 0
    EXPECT_DOUBLE_EQ(slope, 1.0);
    EXPECT_DOUBLE_EQ(locate(10.0, slope), 2.0);  // clamped: segment 1, u = 1
    EXPECT_DOUBLE_EQ(slope, 0.5);
}

TEST(Axis, RejectsBadKnots) {
    EXPECT_THROW(Axis("v", {0.0}), ModelError);
    EXPECT_THROW(Axis("v", {0.0, 0.0}), ModelError);
    EXPECT_THROW(Axis("v", {1.0, 0.0}), ModelError);
}

TEST(NdTable, ReproducesGridValuesExactly) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 5), Axis::uniform("y", -1.0, 1.0, 4)},
              "f");
    t.fill([](std::span<const double> x) { return 3.0 * x[0] - x[1] * x[1]; });
    t.for_each_grid_point([&](std::span<const std::size_t>,
                              std::span<const double> x, double& v) {
        const std::array<double, 2> q{x[0], x[1]};
        EXPECT_DOUBLE_EQ(t.at(q), v);
    });
}

TEST(NdTable, InterpolatesMultilinearFunctionExactly) {
    // A multilinear function is reproduced exactly everywhere, including
    // cross terms.
    NdTable t({Axis::uniform("x", 0.0, 2.0, 3), Axis::uniform("y", 0.0, 2.0, 4),
               Axis::uniform("z", -1.0, 1.0, 3)});
    auto f = [](std::span<const double> x) {
        return 1.0 + 2.0 * x[0] - 0.5 * x[1] + x[2] + 0.25 * x[0] * x[1] * x[2];
    };
    t.fill(f);
    for (double x = 0.1; x < 2.0; x += 0.31) {
        for (double y = 0.05; y < 2.0; y += 0.43) {
            for (double z = -0.95; z < 1.0; z += 0.27) {
                const std::array<double, 3> q{x, y, z};
                EXPECT_NEAR(t.at(q), f(q), 1e-12);
            }
        }
    }
}

TEST(NdTable, GradientMatchesFiniteDifference) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 6), Axis::uniform("y", 0.0, 1.0, 5)});
    t.fill([](std::span<const double> x) {
        return std::sin(3.0 * x[0]) * std::cos(2.0 * x[1]);
    });
    const double h = 1e-8;
    for (double x = 0.07; x < 1.0; x += 0.17) {
        for (double y = 0.03; y < 1.0; y += 0.19) {
            std::array<double, 2> g{};
            const std::array<double, 2> q{x, y};
            t.at_with_gradient(q, g);
            const std::array<double, 2> qx1{x + h, y};
            const std::array<double, 2> qx0{x - h, y};
            const std::array<double, 2> qy1{x, y + h};
            const std::array<double, 2> qy0{x, y - h};
            EXPECT_NEAR(g[0], (t.at(qx1) - t.at(qx0)) / (2 * h), 1e-5);
            EXPECT_NEAR(g[1], (t.at(qy1) - t.at(qy0)) / (2 * h), 1e-5);
        }
    }
}

TEST(NdTable, ClampsOutsideAxes) {
    NdTable t({Axis::uniform("x", 0.0, 1.0, 2)});
    t.fill([](std::span<const double> x) { return x[0]; });
    const std::array<double, 1> below{-5.0};
    const std::array<double, 1> above{7.0};
    EXPECT_DOUBLE_EQ(t.at(below), 0.0);
    EXPECT_DOUBLE_EQ(t.at(above), 1.0);
    // Gradient inside the clamped edge cell is still the cell slope.
    std::array<double, 1> g{};
    t.at_with_gradient(above, g);
    EXPECT_DOUBLE_EQ(g[0], 1.0);
}

TEST(NdTable, FourDimensionalRoundTrip) {
    // The paper's 4-D use case: (VA, VB, VN, Vo).
    std::vector<Axis> axes;
    for (const char* n : {"va", "vb", "vn", "vo"})
        axes.push_back(Axis::uniform(n, -0.12, 1.32, 5));
    NdTable t(std::move(axes), "Io");
    t.fill([](std::span<const double> x) {
        return x[0] - 2.0 * x[1] + 0.5 * x[2] * x[3];
    });
    EXPECT_EQ(t.rank(), 4u);
    EXPECT_EQ(t.value_count(), 625u);
    const std::array<double, 4> q{0.3, 0.7, 1.0, 0.1};
    EXPECT_NEAR(t.at(q), 0.3 - 1.4 + 0.5 * 1.0 * 0.1, 1e-12);
}

}  // namespace
}  // namespace mcsm::lut
