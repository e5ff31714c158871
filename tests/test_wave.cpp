// Unit tests for the waveform module: interpolation, builders, metrics.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "wave/edges.h"
#include "wave/metrics.h"
#include "wave/waveform.h"

namespace mcsm::wave {
namespace {

TEST(Waveform, InterpolatesLinearlyAndClamps) {
    Waveform w({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0});
    EXPECT_DOUBLE_EQ(w.at(-5.0), 0.0);
    EXPECT_DOUBLE_EQ(w.at(0.5), 0.5);
    EXPECT_DOUBLE_EQ(w.at(1.0), 1.0);
    EXPECT_DOUBLE_EQ(w.at(1.25), 0.75);
    EXPECT_DOUBLE_EQ(w.at(10.0), 0.0);
}

TEST(Waveform, SlopeInsideAndOutside) {
    Waveform w({0.0, 2.0}, {0.0, 4.0});
    EXPECT_DOUBLE_EQ(w.slope_at(1.0), 2.0);
    EXPECT_DOUBLE_EQ(w.slope_at(-1.0), 0.0);
    EXPECT_DOUBLE_EQ(w.slope_at(3.0), 0.0);
}

TEST(Waveform, RejectsNonIncreasingTimes) {
    EXPECT_THROW(Waveform({0.0, 0.0}, {1.0, 2.0}), ModelError);
    Waveform w({0.0}, {1.0});
    EXPECT_THROW(w.append(0.0, 2.0), ModelError);
}

TEST(Waveform, CrossTimeRisingAndFalling) {
    Waveform w({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0});
    auto up = w.cross_time(0.5, true);
    ASSERT_TRUE(up.has_value());
    EXPECT_DOUBLE_EQ(*up, 0.5);
    auto down = w.cross_time(0.5, false);
    ASSERT_TRUE(down.has_value());
    EXPECT_DOUBLE_EQ(*down, 1.5);
    EXPECT_FALSE(w.cross_time(2.0, true).has_value());
}

TEST(Waveform, CrossTimeRespectsSearchStart) {
    Waveform w({0.0, 1.0, 2.0, 3.0, 4.0}, {0.0, 1.0, 0.0, 1.0, 0.0});
    auto second = w.cross_time(0.5, true, 1.2);
    ASSERT_TRUE(second.has_value());
    EXPECT_DOUBLE_EQ(*second, 2.5);
    auto last = w.last_cross_time(0.5, true);
    ASSERT_TRUE(last.has_value());
    EXPECT_DOUBLE_EQ(*last, 2.5);
}

TEST(Waveform, ShiftScaleResample) {
    Waveform w({0.0, 1.0}, {0.0, 2.0});
    const Waveform s = w.shifted(10.0);
    EXPECT_DOUBLE_EQ(s.first_time(), 10.0);
    const Waveform g = w.scaled(0.5, 1.0);
    EXPECT_DOUBLE_EQ(g.at(1.0), 2.0);
    const Waveform r = w.resampled({0.0, 0.25, 0.5, 1.0});
    EXPECT_EQ(r.size(), 4u);
    EXPECT_DOUBLE_EQ(r.value(1), 0.5);
}

TEST(Edges, SaturatedRampShape) {
    const Waveform w = saturated_ramp(1e-9, 100e-12, 0.0, 1.2);
    EXPECT_DOUBLE_EQ(w.at(0.0), 0.0);
    EXPECT_DOUBLE_EQ(w.at(1e-9 + 50e-12), 0.6);
    EXPECT_DOUBLE_EQ(w.at(2e-9), 1.2);
}

TEST(Edges, PiecewiseHistorySequence) {
    // The paper's first history: inputs '10' -> '11' -> '00' on pin B means
    // B: 0 -> 1 -> 0.
    const Waveform b = piecewise_edges(
        0.0, {{1e-9, 80e-12, 1.2}, {2e-9, 80e-12, 0.0}});
    EXPECT_DOUBLE_EQ(b.at(0.5e-9), 0.0);
    EXPECT_DOUBLE_EQ(b.at(1.5e-9), 1.2);
    EXPECT_DOUBLE_EQ(b.at(3e-9), 0.0);
}

TEST(Edges, OverlappingEdgesRejected) {
    EXPECT_THROW(piecewise_edges(0.0, {{1e-9, 200e-12, 1.2},
                                       {1.1e-9, 100e-12, 0.0}}),
                 ModelError);
}

TEST(Edges, PulseRisesAndFalls) {
    const Waveform p = pulse(1e-9, 500e-12, 50e-12, 0.0, 1.2);
    EXPECT_DOUBLE_EQ(p.at(0.9e-9), 0.0);
    EXPECT_DOUBLE_EQ(p.at(1.2e-9), 1.2);
    EXPECT_DOUBLE_EQ(p.at(2e-9), 0.0);
}

TEST(Metrics, Delay50BetweenRamps) {
    const Waveform in = saturated_ramp(1e-9, 100e-12, 0.0, 1.2);
    const Waveform out = saturated_ramp(1.2e-9, 200e-12, 1.2, 0.0);
    const auto d = delay_50(in, true, out, false, 1.2);
    ASSERT_TRUE(d.has_value());
    // Input 50% at 1.05ns, output 50% at 1.3ns.
    EXPECT_NEAR(*d, 0.25e-9, 1e-15);
}

TEST(Metrics, Slew1090OfRamp) {
    const Waveform w = saturated_ramp(0.0, 100e-12, 0.0, 1.2);
    const auto s = slew_10_90(w, 1.2, true);
    ASSERT_TRUE(s.has_value());
    EXPECT_NEAR(*s, 80e-12, 1e-15);

    const Waveform f = saturated_ramp(0.0, 100e-12, 1.2, 0.0);
    const auto sf = slew_10_90(f, 1.2, false);
    ASSERT_TRUE(sf.has_value());
    EXPECT_NEAR(*sf, 80e-12, 1e-15);
}

TEST(Metrics, RmseZeroForIdenticalAndPositiveOtherwise) {
    const Waveform a = saturated_ramp(0.0, 1.0, 0.0, 1.0);
    EXPECT_DOUBLE_EQ(rmse(a, a, 0.0, 1.0), 0.0);
    const Waveform b = a.scaled(1.0, 0.1);
    EXPECT_NEAR(rmse(a, b, 0.0, 1.0), 0.1, 1e-12);
    EXPECT_NEAR(rmse_normalized(a, b, 0.0, 1.0, 1.2), 0.1 / 1.2, 1e-12);
}

TEST(Metrics, MaxAbsError) {
    const Waveform a = Waveform::constant(0.0);
    const Waveform b({0.0, 1.0, 2.0}, {0.0, 0.5, 0.0});
    EXPECT_NEAR(max_abs_error(a, b, 0.0, 2.0, 1001), 0.5, 1e-3);
}

TEST(WaveMetrics, IntegralOfRampIsExact) {
    // Unit ramp 0->1 over [0,1]: integral = 0.5 exactly (piecewise-linear).
    Waveform w({0.0, 1.0}, {0.0, 1.0});
    EXPECT_DOUBLE_EQ(integral(w, 0.0, 1.0), 0.5);
    // Partial window [0.5, 1.0]: trapezoid of 0.5..1.0 = 0.375.
    EXPECT_DOUBLE_EQ(integral(w, 0.5, 1.0), 0.375);
    // Constant extension beyond the samples.
    EXPECT_DOUBLE_EQ(integral(w, 1.0, 2.0), 1.0);
}

TEST(WaveMetrics, IntegralHandlesInteriorBreakpoints) {
    // Triangle pulse: area = base * height / 2.
    const Waveform tri({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0});
    EXPECT_DOUBLE_EQ(integral(tri, 0.0, 2.0), 1.0);
    EXPECT_THROW(integral(tri, 1.0, 1.0), ModelError);
}

TEST(WaveMetrics, PeakExcursionAboveAndBelow) {
    const Waveform tri({0.0, 1.0, 2.0}, {0.0, 0.8, -0.3});
    EXPECT_NEAR(peak_excursion(tri, 0.5, true, 0.0, 2.0), 0.3, 1e-12);
    EXPECT_NEAR(peak_excursion(tri, 0.0, false, 0.0, 2.0), 0.3, 1e-12);
    // Window excludes the peak sample: endpoint interpolation still counts.
    EXPECT_NEAR(peak_excursion(tri, 0.5, true, 0.0, 0.5), 0.0, 1e-12);
}

TEST(WaveMetrics, WidthAboveGlitchLevel) {
    const Waveform tri({0.0, 1.0, 2.0}, {0.0, 1.0, 0.0});
    // Crosses 0.5 upward at t=0.5, downward at t=1.5: width 1.0.
    EXPECT_NEAR(width_above(tri, 0.5, 0.0, 2.0), 1.0, 1e-12);
    // Never exceeds 1.5.
    EXPECT_DOUBLE_EQ(width_above(tri, 1.5, 0.0, 2.0), 0.0);
    // Still above the level at the window end: clipped to the window.
    EXPECT_NEAR(width_above(tri, 0.5, 0.0, 1.0), 0.5, 1e-12);
}

}  // namespace
}  // namespace mcsm::wave
