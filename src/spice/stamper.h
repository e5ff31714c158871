// MNA matrix assembly helper. Maps node ids / branch ids onto the unknown
// vector (ground is eliminated) and offers the stamping primitives devices
// need.
//
// The stamper is a thin writer over one of two storages:
//   CSR     - writes into a SolverWorkspace's preallocated CSR slots,
//   pattern - records (row, col) coordinates only; used once per topology
//             by Circuit::prepare() to discover the sparsity pattern.
// Device stamp() signatures are identical across storages.
#ifndef MCSM_SPICE_STAMPER_H
#define MCSM_SPICE_STAMPER_H

#include <cstddef>
#include <utility>
#include <vector>

#include "common/sparse_matrix.h"

namespace mcsm::spice {

// Unknown ordering: node voltages for nodes 1..n_nodes-1, then branch
// currents for devices that request them (voltage sources).
class Stamper {
public:
    // Sparse writer into preallocated CSR storage (SolverWorkspace owns
    // the matrix and guarantees it outlives the stamper).
    Stamper(int n_nodes, int n_branches, SparseMatrix* sparse);

    // Pattern recorder: primitives append (row, col) coordinates to *out
    // instead of writing values.
    Stamper(int n_nodes, int n_branches,
            std::vector<std::pair<int, int>>* pattern_out);

    void clear();

    int n_nodes() const { return n_nodes_; }
    int n_branches() const { return n_branches_; }
    std::size_t system_size() const;

    // --- stamping primitives -------------------------------------------
    // All inline: they run millions of times per transient (every matrix
    // entry of every device of every Newton iteration).

    // Two-terminal conductance g between nodes a and b.
    void add_conductance(int a, int b, double g) {
        add_matrix(a, a, g);
        add_matrix(b, b, g);
        add_matrix(a, b, -g);
        add_matrix(b, a, -g);
    }

    // Transconductance: current g*(v_cp - v_cm) flows from node `from` to
    // node `to` (out of `from`, into `to`).
    void add_transconductance(int from, int to, int ctrl_p, int ctrl_m,
                              double g) {
        add_matrix(from, ctrl_p, g);
        add_matrix(from, ctrl_m, -g);
        add_matrix(to, ctrl_p, -g);
        add_matrix(to, ctrl_m, g);
    }

    // Constant current i flowing from node `from` to node `to`. KCL rows
    // are written as (sum of currents leaving node) = 0, with sources moved
    // to the RHS.
    void add_source_current(int from, int to, double i) {
        add_rhs(from, -i);
        add_rhs(to, i);
    }

    // Voltage-source branch: enforces v(p) - v(m) = v, adds the branch
    // current unknown into the KCL rows of p and m. `branch` is the branch
    // index in [0, n_branches).
    void add_voltage_branch(int branch, int p, int m, double v);

    // Raw access (row/col are node ids; ground rows/cols are dropped).
    void add_matrix(int row_node, int col_node, double value) {
        const int r = unknown_of_node(row_node);
        const int c = unknown_of_node(col_node);
        if (r < 0 || c < 0) return;
        sink(r, c, value);
    }
    void add_rhs(int row_node, double value) {
        const int r = unknown_of_node(row_node);
        if (r < 0) return;
        b_[static_cast<std::size_t>(r)] += value;
    }

    // Shunt conductance to ground on every non-ground node (gmin).
    void add_gmin_everywhere(double gmin) {
        for (int node = 1; node < n_nodes_; ++node)
            add_matrix(node, node, gmin);
    }

    std::vector<double>& rhs() { return b_; }
    const std::vector<double>& rhs() const { return b_; }

    // Index helpers (-1 for ground).
    int unknown_of_node(int node) const { return node == 0 ? -1 : node - 1; }
    int unknown_of_branch(int branch) const {
        return n_nodes_ - 1 + branch;
    }

private:
    // Accumulates v at unknown-space coordinates (r, c); a pattern
    // recorder only notes the coordinates.
    void sink(int r, int c, double v) {
        if (sparse_ != nullptr) {
            if (!sparse_->add(static_cast<std::size_t>(r),
                              static_cast<std::size_t>(c), v))
                sink_pattern_miss();
        } else {
            pattern_out_->emplace_back(r, c);
        }
    }
    [[noreturn]] void sink_pattern_miss() const;

    int n_nodes_ = 0;
    int n_branches_ = 0;
    std::vector<double> b_;
    SparseMatrix* sparse_ = nullptr;
    std::vector<std::pair<int, int>>* pattern_out_ = nullptr;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_STAMPER_H
