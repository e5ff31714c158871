#include "common/sparse_lu.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/dense_matrix.h"
#include "common/error.h"

namespace mcsm {

namespace {

// Accept a pivot within this factor of the column max (threshold pivoting);
// among acceptable rows the sparsest one is chosen to limit fill.
constexpr double kPivotThreshold = 0.1;

// A refactor pivot smaller than this fraction of its row's largest entry
// means the frozen pivot order has gone numerically bad.
constexpr double kRefactorStability = 1e-10;

}  // namespace

bool SparseLu::same_pattern(const SparseMatrix& a) const {
    if (n_ != a.size() || pattern_nnz_ != a.nnz()) return false;
    // Exact pattern identity: a same-size/same-nnz matrix with different
    // coordinates must not take the refactor path (its entries would land
    // outside the frozen fill and be silently dropped). The compare is a
    // contiguous int scan, noise next to the numeric elimination.
    std::size_t s = 0;
    for (std::size_t r = 0; r < n_; ++r) {
        const auto cols = a.row_cols(r);
        if (static_cast<int>(cols.size()) !=
            a_row_ptr_[r + 1] - a_row_ptr_[r])
            return false;
        for (int c : cols)
            if (a_cols_[s++] != c) return false;
    }
    return true;
}

void SparseLu::factor(const SparseMatrix& a, double pivot_floor) {
    require(!a.empty(), "SparseLu: empty matrix");
    if (!same_pattern(a)) {
        full_factor(a, pivot_floor);
        return;
    }
    if (refactor(a, pivot_floor)) {
        ++refactors_;
        return;
    }
    // Frozen pivot order went bad; re-pivot from scratch.
    full_factor(a, pivot_floor);
}

void SparseLu::full_factor(const SparseMatrix& a, double pivot_floor) {
    const std::size_t n = a.size();
    ++full_factors_;

    // --- pivot-order search on a dense working copy --------------------
    // MNA systems here are tens of unknowns; an O(n^3) search once per
    // topology (or per rare stability fallback) is noise next to the
    // thousands of refactors it unlocks.
    DenseMatrix w(n, n);
    for (std::size_t r = 0; r < n; ++r) {
        const auto cols = a.row_cols(r);
        const auto vals = a.row_values(r);
        for (std::size_t s = 0; s < cols.size(); ++s)
            w.at(r, static_cast<std::size_t>(cols[s])) = vals[s];
    }
    std::vector<int> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<int>(i);

    for (std::size_t k = 0; k < n; ++k) {
        double col_max = 0.0;
        for (std::size_t r = k; r < n; ++r)
            col_max = std::max(col_max, std::fabs(w.at(r, k)));
        if (col_max < pivot_floor) {
            throw NumericalError("SparseLu: singular matrix (column " +
                                 std::to_string(k) + " max " +
                                 std::to_string(col_max) + ")");
        }
        // Threshold pivoting with a Markowitz-style tie-break: among rows
        // whose pivot candidate is within kPivotThreshold of the column
        // max, take the one with the fewest remaining nonzeros.
        std::size_t pivot_row = k;
        std::size_t best_nnz = n + 1;
        for (std::size_t r = k; r < n; ++r) {
            if (std::fabs(w.at(r, k)) < kPivotThreshold * col_max) continue;
            std::size_t nnz = 0;
            for (std::size_t c = k; c < n; ++c)
                if (w.at(r, c) != 0.0) ++nnz;
            if (nnz < best_nnz) {
                best_nnz = nnz;
                pivot_row = r;
            }
        }
        if (pivot_row != k) {
            for (std::size_t c = 0; c < n; ++c)
                std::swap(w.at(k, c), w.at(pivot_row, c));
            std::swap(perm[k], perm[pivot_row]);
        }
        const double inv_pivot = 1.0 / w.at(k, k);
        for (std::size_t r = k + 1; r < n; ++r) {
            const double factor = w.at(r, k) * inv_pivot;
            if (factor == 0.0) continue;
            w.at(r, k) = factor;
            for (std::size_t c = k + 1; c < n; ++c)
                w.at(r, c) -= factor * w.at(k, c);
        }
    }

    // --- symbolic fill for the recorded pivot order --------------------
    // Row-merge symbolic elimination: the fill pattern of row i is its
    // input pattern plus, for every L column k (ascending), the U pattern
    // of row k. Exact fill by structure - numeric cancellations in the
    // dense pass above cannot drop slots the refactor will need.
    std::vector<std::vector<int>> rows(n);
    std::vector<char> mark(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<int>& pat = rows[i];
        const auto cols = a.row_cols(static_cast<std::size_t>(perm[i]));
        pat.assign(cols.begin(), cols.end());
        if (!std::binary_search(pat.begin(), pat.end(),
                                static_cast<int>(i))) {
            pat.insert(std::lower_bound(pat.begin(), pat.end(),
                                        static_cast<int>(i)),
                       static_cast<int>(i));
        }
        for (int c : pat) mark[static_cast<std::size_t>(c)] = 1;
        // Ascending traversal; fill inserted behind the cursor is never
        // needed (row k only contributes columns > k).
        for (std::size_t s = 0; s < pat.size(); ++s) {
            const int k = pat[s];
            if (static_cast<std::size_t>(k) >= i) break;
            const std::vector<int>& krow = rows[static_cast<std::size_t>(k)];
            for (auto it = std::upper_bound(krow.begin(), krow.end(), k);
                 it != krow.end(); ++it) {
                if (mark[static_cast<std::size_t>(*it)]) continue;
                mark[static_cast<std::size_t>(*it)] = 1;
                pat.insert(std::lower_bound(pat.begin(), pat.end(), *it),
                           *it);
            }
        }
        for (int c : pat) mark[static_cast<std::size_t>(c)] = 0;
    }

    // --- freeze the workspace ------------------------------------------
    n_ = n;
    pattern_nnz_ = a.nnz();
    a_row_ptr_.assign(n + 1, 0);
    a_cols_.clear();
    a_cols_.reserve(a.nnz());
    for (std::size_t r = 0; r < n; ++r) {
        const auto cols = a.row_cols(r);
        a_cols_.insert(a_cols_.end(), cols.begin(), cols.end());
        a_row_ptr_[r + 1] =
            a_row_ptr_[r] + static_cast<int>(cols.size());
    }
    perm_ = std::move(perm);
    lu_row_ptr_.assign(n + 1, 0);
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        lu_row_ptr_[i] = static_cast<int>(total);
        total += rows[i].size();
    }
    lu_row_ptr_[n] = static_cast<int>(total);
    lu_cols_.clear();
    lu_cols_.reserve(total);
    for (const auto& pat : rows)
        lu_cols_.insert(lu_cols_.end(), pat.begin(), pat.end());
    lu_vals_.assign(total, 0.0);
    diag_pos_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const int* first = lu_cols_.data() + lu_row_ptr_[i];
        const int* last = lu_cols_.data() + lu_row_ptr_[i + 1];
        const int* it = std::lower_bound(first, last, static_cast<int>(i));
        diag_pos_[i] = static_cast<int>(it - lu_cols_.data());
    }
    inv_diag_.assign(n, 0.0);
    work_.assign(n, 0.0);

    if (!refactor(a, pivot_floor)) {
        // The dense pass above vouched for this pivot order; only a truly
        // borderline-singular system lands here.
        invalidate();
        throw NumericalError("SparseLu: factorization unstable at the "
                             "pivot floor");
    }
}

bool SparseLu::refactor(const SparseMatrix& a, double pivot_floor) {
    const std::size_t n = n_;
    for (std::size_t i = 0; i < n; ++i) {
        const int row_begin = lu_row_ptr_[i];
        const int row_end = lu_row_ptr_[i + 1];
        for (int s = row_begin; s < row_end; ++s)
            work_[static_cast<std::size_t>(lu_cols_[s])] = 0.0;

        const auto r = static_cast<std::size_t>(perm_[i]);
        const auto cols = a.row_cols(r);
        const auto vals = a.row_values(r);
        for (std::size_t s = 0; s < cols.size(); ++s)
            work_[static_cast<std::size_t>(cols[s])] += vals[s];

        for (int s = row_begin; s < row_end; ++s) {
            const int k = lu_cols_[s];
            if (static_cast<std::size_t>(k) >= i) break;
            const double l =
                work_[static_cast<std::size_t>(k)] *
                inv_diag_[static_cast<std::size_t>(k)];
            work_[static_cast<std::size_t>(k)] = l;
            if (l == 0.0) continue;
            const int kend = lu_row_ptr_[static_cast<std::size_t>(k) + 1];
            for (int us = diag_pos_[static_cast<std::size_t>(k)] + 1;
                 us < kend; ++us)
                work_[static_cast<std::size_t>(lu_cols_[us])] -=
                    l * lu_vals_[static_cast<std::size_t>(us)];
        }

        const double pivot = work_[i];
        double row_max = std::fabs(pivot);
        for (int s = diag_pos_[i] + 1; s < row_end; ++s)
            row_max = std::max(
                row_max,
                std::fabs(work_[static_cast<std::size_t>(lu_cols_[s])]));
        if (std::fabs(pivot) < pivot_floor ||
            std::fabs(pivot) < kRefactorStability * row_max)
            return false;
        inv_diag_[i] = 1.0 / pivot;

        for (int s = row_begin; s < row_end; ++s)
            lu_vals_[static_cast<std::size_t>(s)] =
                work_[static_cast<std::size_t>(lu_cols_[s])];
    }
    return true;
}

void SparseLu::solve_block(const double* b, double* x,
                           std::size_t nrhs) const {
    require(analyzed(), "SparseLu: factor() before solve_block()");
    require(nrhs > 0, "SparseLu: solve_block needs at least one rhs");

    // Forward: L Y = P B (unit lower triangle), Y stored in x.
    for (std::size_t i = 0; i < n_; ++i) {
        double* xi = x + i * nrhs;
        const double* bi =
            b + static_cast<std::size_t>(perm_[i]) * nrhs;
        for (std::size_t j = 0; j < nrhs; ++j) xi[j] = bi[j];
        const int dp = diag_pos_[i];
        for (int s = lu_row_ptr_[i]; s < dp; ++s) {
            const double l = lu_vals_[static_cast<std::size_t>(s)];
            const double* xk =
                x + static_cast<std::size_t>(lu_cols_[s]) * nrhs;
            for (std::size_t j = 0; j < nrhs; ++j) xi[j] -= l * xk[j];
        }
    }
    // Backward: U X = Y.
    for (std::size_t i = n_; i-- > 0;) {
        double* xi = x + i * nrhs;
        const int row_end = lu_row_ptr_[i + 1];
        for (int s = diag_pos_[i] + 1; s < row_end; ++s) {
            const double u = lu_vals_[static_cast<std::size_t>(s)];
            const double* xk =
                x + static_cast<std::size_t>(lu_cols_[s]) * nrhs;
            for (std::size_t j = 0; j < nrhs; ++j) xi[j] -= u * xk[j];
        }
        const double d = inv_diag_[i];
        for (std::size_t j = 0; j < nrhs; ++j) xi[j] *= d;
    }
}

}  // namespace mcsm
