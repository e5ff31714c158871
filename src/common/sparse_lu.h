// Sparse LU for MNA systems with pattern-reusing symbolic factorization.
//
// The first factorization ("full") runs threshold partial pivoting with a
// Markowitz-style sparsity tie-break, records the pivot row order, and
// computes the symbolic fill pattern of L+U for that order. Subsequent
// factorizations of a matrix with the same pattern ("refactor") redo only
// the numeric elimination over the precomputed fill slots in the recorded
// pivot order - no searching, no allocation. A per-row stability check
// falls back to a fresh full factorization when the frozen pivot order goes
// bad (device conductances can change by many orders of magnitude across
// Newton iterations), so refactoring never trades away robustness.
#ifndef MCSM_COMMON_SPARSE_LU_H
#define MCSM_COMMON_SPARSE_LU_H

#include <cstddef>
#include <vector>

#include "common/sparse_matrix.h"

namespace mcsm {

class SparseLu {
public:
    // Factorizes `a`, reusing the symbolic analysis from the previous call
    // when the pattern is unchanged. Throws NumericalError when the matrix
    // is singular up to pivot_floor.
    void factor(const SparseMatrix& a, double pivot_floor = 1e-30);

    // Solves A X = B for `nrhs` right-hand sides with one forward/backward
    // pass over the factors. B and X are interleaved (the entry for unknown
    // i of system j sits at [i * nrhs + j]) so the substitution inner loops
    // run contiguously over the RHS dimension — each L/U value is loaded
    // once and applied to the whole block, and the loops vectorize across
    // systems. Both buffers must hold n * nrhs doubles; allocation-free.
    // This is the only solve: nrhs = 1 is the single-system case every
    // Newton iteration uses.
    void solve_block(const double* b, double* x, std::size_t nrhs) const;

    bool analyzed() const { return n_ > 0; }
    // Drops the symbolic analysis (next factor() re-pivots from scratch).
    void invalidate() { n_ = 0; }

    // Instrumentation: how often the expensive pivot-order analysis ran vs
    // the cheap pattern-reusing numeric path.
    std::size_t full_factor_count() const { return full_factors_; }
    std::size_t refactor_count() const { return refactors_; }

private:
    // Pivot search + symbolic fill; allocates freely (cold path).
    void full_factor(const SparseMatrix& a, double pivot_floor);
    // Numeric elimination over the frozen pattern; allocation-free. Returns
    // false when a pivot is absolutely or relatively too small.
    bool refactor(const SparseMatrix& a, double pivot_floor);
    // True when `a` has exactly the analyzed sparsity pattern.
    bool same_pattern(const SparseMatrix& a) const;

    std::size_t n_ = 0;
    std::size_t pattern_nnz_ = 0;       // nnz of the analyzed input matrix
    std::vector<int> a_row_ptr_;        // analyzed input pattern (identity
    std::vector<int> a_cols_;           // check for safe refactor reuse)
    std::vector<int> perm_;             // perm_[i]: input row eliminated i-th
    std::vector<int> lu_row_ptr_;       // fill pattern of L+U, row-major
    std::vector<int> lu_cols_;          // sorted; cols < i are L, >= i are U
    std::vector<double> lu_vals_;
    std::vector<int> diag_pos_;         // slot of (i, i) within lu row i
    std::vector<double> inv_diag_;
    mutable std::vector<double> work_;  // dense scatter row
    std::size_t full_factors_ = 0;
    std::size_t refactors_ = 0;
};

}  // namespace mcsm

#endif  // MCSM_COMMON_SPARSE_LU_H
