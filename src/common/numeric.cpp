#include "common/numeric.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.h"
#include "common/numeric_tables.h"

namespace mcsm {

double softplus(double x) {
    // For large x, ln(1+e^x) = x + ln(1+e^-x) ~= x; switch at 30 where the
    // correction is below double precision relative to x.
    if (x > 30.0) return x;
    if (x < -30.0) return std::exp(x);
    return std::log1p(std::exp(x));
}

double logistic(double x) {
    if (x >= 0.0) {
        const double e = std::exp(-x);
        return 1.0 / (1.0 + e);
    }
    const double e = std::exp(x);
    return e / (1.0 + e);
}

namespace {

// Both softplus and logistic reduce to one exponential of -|x|:
//     z = e^-|x|,  softplus = max(x, 0) + log1p(z),  logistic = 1/(1+z)
//     (x >= 0) or z/(1+z) (x < 0).
// The kernel below evaluates z with a 32-slot table-reduced exponential
// (degree-4 core polynomial) and log1p(z) with a 64-slot mantissa-reduced
// log (degree-6 core), plus a short alternating series when z drops below
// 2^-12 (where the mantissa reduction would cancel). Worst relative error
// against the libm reference is ~2e-12 on both outputs over the full
// double range — asserted in test_ekv_batch.
//
// The reduction tables are compile-time constants (common/numeric_tables.h)
// shared with the SIMD lane kernel, so neither path carries a first-call
// init branch or a static-init ordering hazard.
using numeric_tables::kExp2Neg32;
using numeric_tables::kInvM0_64;
using numeric_tables::kLogM0_64;

// e^-u for u in [0, 708]: u = (32k + j) * ln2/32 - r with |r| <= ln2/64,
// so e^-u = e^r * 2^-k * 2^(-j/32).
inline double exp_neg(double u) {
    constexpr double kInvStep = numeric_tables::kExpInvStep32;
    constexpr double kStepHi = numeric_tables::kExpStep32Hi;
    constexpr double kStepLo = numeric_tables::kExpStep32Lo;
    const double nd = std::floor(u * kInvStep + 0.5);
    const double r = (nd * kStepHi - u) + nd * kStepLo;
    const auto n = static_cast<std::int64_t>(nd);
    const auto j = static_cast<std::uint64_t>(n) & 31u;
    const auto k = n >> 5;
    double p = 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    p = p * r + 1.0;
    p = p * r + 1.0;
    const double scale = std::bit_cast<double>(
        static_cast<std::uint64_t>(1023 - k) << 52);
    return p * (kExp2Neg32[j] * scale);
}

// log(y) for y in (1, 2]: y = 2^e * m0 * (1 + t) with m0 = 1 + j/64 picked
// from the top mantissa bits, t in [0, 1/64].
inline double log_y(double y) {
    constexpr double kLn2 = numeric_tables::kLn2;
    const auto bits = std::bit_cast<std::uint64_t>(y);
    const auto e = static_cast<int>(bits >> 52) - 1023;  // 0, or 1 at y = 2
    const double m = std::bit_cast<double>(
        (bits & 0x000FFFFFFFFFFFFFull) | 0x3FF0000000000000ull);
    const auto j = (bits >> 46) & 63u;
    const double t = m * kInvM0_64[j] - 1.0;
    double q = -1.0 / 7.0;
    q = q * t + 1.0 / 6.0;
    q = q * t - 1.0 / 5.0;
    q = q * t + 1.0 / 4.0;
    q = q * t - 1.0 / 3.0;
    q = q * t + 0.5;
    const double l1pt = t - t * t * q;
    return static_cast<double>(e) * kLn2 + kLogM0_64[j] + l1pt;
}

}  // namespace

SpSig softplus_logistic_fast(double x) {
    if (std::isnan(x)) return {x, x};  // the int cast in exp_neg would be UB
    const double u = std::min(std::fabs(x), 708.0);
    const double z = exp_neg(u);
    const double inv = 1.0 / (1.0 + z);
    // Below 2^-12 the 1+z mantissa reduction cancels; the alternating
    // series (truncation z^5/5 < 2e-19) takes over.
    const double l1p =
        z < 0x1p-12 ? z * (1.0 - z * (0.5 - z * (1.0 / 3.0 - z * 0.25)))
                    : log_y(1.0 + z);
    return {std::max(x, 0.0) + l1p, x >= 0.0 ? inv : z * inv};
}

double smooth_abs(double x, double eps) {
    return std::sqrt(x * x + eps * eps) - eps;
}

double smooth_abs_deriv(double x, double eps) {
    return x / std::sqrt(x * x + eps * eps);
}

double clamp(double x, double lo, double hi) {
    return std::min(std::max(x, lo), hi);
}

double lerp(double x0, double y0, double x1, double y1, double x) {
    return y0 + (y1 - y0) * ((x - x0) / (x1 - x0));
}

bool nearly_equal(double a, double b, double rtol, double atol) {
    return std::fabs(a - b) <= atol + rtol * std::max(std::fabs(a), std::fabs(b));
}

std::vector<double> linspace(double lo, double hi, std::size_t n) {
    require(n >= 2, "linspace requires n >= 2");
    std::vector<double> out(n);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    for (std::size_t i = 0; i < n; ++i) out[i] = lo + step * static_cast<double>(i);
    out.back() = hi;
    return out;
}

std::size_t bracket(const std::vector<double>& xs, double x) {
    require(xs.size() >= 2, "bracket requires at least two knots");
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    if (it == xs.begin()) return 0;
    std::size_t i = static_cast<std::size_t>(it - xs.begin()) - 1;
    return std::min(i, xs.size() - 2);
}

}  // namespace mcsm
