// Dense LU with partial pivoting: the test oracle the sparse workspace
// (SparseLu, SolverWorkspace) is cross-checked against.
#ifndef MCSM_TESTS_LINEAR_SOLVER_H
#define MCSM_TESTS_LINEAR_SOLVER_H

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/dense_matrix.h"
#include "common/error.h"

namespace mcsm {

// Solves A x = b by LU with partial pivoting. Throws NumericalError when a
// pivot falls below pivot_floor (singular system up to roundoff).
inline std::vector<double> solve_lu(DenseMatrix a, std::vector<double> b,
                                    double pivot_floor = 1e-30) {
    const std::size_t n = a.rows();
    require(a.cols() == n, "solve_lu: matrix must be square");
    require(b.size() == n, "solve_lu: rhs size mismatch");

    for (std::size_t k = 0; k < n; ++k) {
        // Partial pivoting: pick the largest magnitude entry in column k.
        std::size_t pivot_row = k;
        double pivot_mag = std::fabs(a.at(k, k));
        for (std::size_t r = k + 1; r < n; ++r) {
            const double mag = std::fabs(a.at(r, k));
            if (mag > pivot_mag) {
                pivot_mag = mag;
                pivot_row = r;
            }
        }
        if (pivot_mag < pivot_floor) {
            throw NumericalError("solve_lu: singular matrix (pivot " +
                                 std::to_string(pivot_mag) + " at column " +
                                 std::to_string(k) + ")");
        }
        if (pivot_row != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a.at(k, c), a.at(pivot_row, c));
            std::swap(b[k], b[pivot_row]);
        }
        const double inv_pivot = 1.0 / a.at(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = a.at(r, k) * inv_pivot;
            if (factor == 0.0) continue;
            a.at(r, k) = 0.0;
            for (std::size_t c = k + 1; c < n; ++c)
                a.at(r, c) -= factor * a.at(k, c);
            b[r] -= factor * b[k];
        }
    }

    std::vector<double> x(n, 0.0);
    for (std::size_t ri = n; ri-- > 0;) {
        double acc = b[ri];
        for (std::size_t c = ri + 1; c < n; ++c) acc -= a.at(ri, c) * x[c];
        x[ri] = acc / a.at(ri, ri);
    }
    return x;
}

}  // namespace mcsm

#endif  // MCSM_TESTS_LINEAR_SOLVER_H
