// Small numerically-safe scalar helpers used by device models and tables.
#ifndef MCSM_COMMON_NUMERIC_H
#define MCSM_COMMON_NUMERIC_H

#include <cmath>
#include <cstddef>
#include <vector>

namespace mcsm {

// softplus(x) = ln(1 + e^x), evaluated without overflow for large |x|.
double softplus(double x);

// d/dx softplus(x) = logistic(x) = 1 / (1 + e^-x), overflow-safe.
double logistic(double x);

// Softplus and logistic evaluated together. The EKV channel model needs
// both at the same argument (F(v) and dF/dv share one exponential), so the
// pair is the natural kernel primitive.
struct SpSig {
    double sp;   // softplus(x)
    double sig;  // logistic(x)
};

// Reference pairing of softplus()/logistic() above (libm exp/log1p).
inline SpSig softplus_logistic_ref(double x) {
    return {softplus(x), logistic(x)};
}

// Fast path for the batched EKV kernel. Both outputs reduce to one
// exponential z = e^-|x|: softplus = max(x,0) + log1p(z), logistic =
// 1/(1+z) or z/(1+z). z comes from a 32-slot table-reduced exponential
// (degree-4 core polynomial) and log1p(z) from a 64-slot mantissa-reduced
// log (degree-6 core), switching to a short alternating series below
// z = 2^-12 where the mantissa reduction would cancel. Worst relative
// error vs the reference is ~2e-12 on both outputs over the full double
// range (asserted in test_ekv_batch).
SpSig softplus_logistic_fast(double x);

// Smooth absolute value: sqrt(x^2 + eps^2) - eps, so smooth_abs(0) == 0.
double smooth_abs(double x, double eps);

// d/dx smooth_abs(x, eps).
double smooth_abs_deriv(double x, double eps);

// Clamp x into [lo, hi].
double clamp(double x, double lo, double hi);

// Linear interpolation between (x0,y0) and (x1,y1) evaluated at x.
// Requires x1 != x0.
double lerp(double x0, double y0, double x1, double y1, double x);

// Returns a vector of n values spaced uniformly over [lo, hi] (n >= 2).
std::vector<double> linspace(double lo, double hi, std::size_t n);

// Index i such that xs[i] <= x < xs[i+1], clamped to [0, xs.size()-2].
// xs must be strictly increasing with at least two entries.
std::size_t bracket(const std::vector<double>& xs, double x);

}  // namespace mcsm

#endif  // MCSM_COMMON_NUMERIC_H
