// Persistent solver workspace: built once per circuit topology by
// Circuit::prepare() and reused across every Newton iteration and time step.
//
// Construction discovers the MNA sparsity pattern by running one
// pattern-collection stamp pass over the devices (DC and transient modes,
// so companion-model entries are included), then preallocates CSR storage
// and the sparse LU. After that, an assemble + solve cycle performs zero
// heap allocations: devices write into fixed CSR slots through the same
// Stamper primitives, the LU reuses its symbolic factorization, and the
// solution lands in a preallocated buffer.
#ifndef MCSM_SPICE_SOLVER_WORKSPACE_H
#define MCSM_SPICE_SOLVER_WORKSPACE_H

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/sparse_lu.h"
#include "common/sparse_matrix.h"
#include "spice/device_batch.h"
#include "spice/stamper.h"

namespace mcsm::spice {

class Circuit;
class Device;

// Discovers the MNA sparsity pattern of an index-bound circuit (one
// pattern-mode stamp pass in DC and one in transient, so companion-model
// entries are included). `include_gmin` adds the gmin shunt diagonal the
// solvers stamp: the workspace wants it (the solved matrix has it), the
// structural-singularity detector in analysis/circuit_lint does not (gmin
// would mask every empty node row it exists to find).
//
// collect_mna_entries returns the raw (row, col) stamp list, possibly with
// duplicates and WITHOUT the unconditional diagonal SparseMatrix::build
// inserts for pivot slots -- the form the structural detector needs (an
// equation with no device entry must show up as an empty row).
// collect_mna_pattern builds the solver-facing SparseMatrix from it.
std::vector<std::pair<int, int>> collect_mna_entries(const Circuit& circuit,
                                                     bool include_gmin);
SparseMatrix collect_mna_pattern(const Circuit& circuit, bool include_gmin);

class SolverWorkspace {
public:
    // The circuit must be index-bound (Circuit::prepare() constructs the
    // workspace after binding). The workspace takes no reference to the
    // circuit beyond the constructor.
    explicit SolverWorkspace(const Circuit& circuit);

    SolverWorkspace(const SolverWorkspace&) = delete;
    SolverWorkspace& operator=(const SolverWorkspace&) = delete;

    std::size_t system_size() const { return stamper_.system_size(); }

    // Clears the assembly storage and hands out the device-facing writer.
    Stamper& begin_assembly();

    // Assembles the full linearized system for `ctx`: clears the storage,
    // runs the batched MOSFET and linear evaluate-and-stamp passes, then
    // the remaining devices' virtual stamp(). Returns the stamper so the
    // caller can add gmin / extra stamps before solving. This is the Newton
    // inner-loop entry point; it performs no heap allocation.
    Stamper& assemble(const SimContext& ctx);

    // Factors and solves the assembled system; the result stays valid until
    // the next solve(). Throws NumericalError on singular systems.
    const std::vector<double>& solve();

    // --- blocked multi-RHS interface ------------------------------------
    // Factors the assembled matrix without solving; throws NumericalError
    // on singular systems.
    void factor();
    // Solves nrhs systems against the last factor()ed matrix. Interleaved
    // layout (see SparseLu::solve_block); allocation-free.
    void solve_block(const double* b, double* x, std::size_t nrhs);
    // Residual r = rhs - A*x of the assembled system, in unknown space.
    void residual(std::span<const double> x_unknown, std::span<double> r) const;
    // Drops the frozen LU pivot order so the next factorization re-pivots
    // from scratch (used where results must not depend on which systems a
    // reused workspace solved before).
    void invalidate_factorization() { lu_.invalidate(); }

    // The batched MOSFET evaluator.
    const MosfetBatch& mosfet_batch() const { return batch_; }
    // The batched linear stampers.
    const LinearBatch& linear_batch() const { return linear_batch_; }
    // Read-only view of the assembled CSR storage; tests cross-check
    // batched assembly against the virtual stamp path with it.
    const SparseMatrix& csr_matrix() const { return matrix_; }

    // --- instrumentation ------------------------------------------------
    // Lane width of the dispatched SIMD EKV kernel this workspace's
    // assemble() uses for the MOSFET batch (1 = scalar fast path).
    int simd_width() const;
    // "scalar", "avx2x4" or "avx512x8" — the matching kernel name.
    const char* simd_kernel_name() const;

private:
    SparseMatrix matrix_;
    Stamper stamper_;  // writes into matrix_'s CSR slots
    SparseLu lu_;
    std::vector<double> sol_;
    // Device grouping for assemble(): MOSFETs go through the SoA batch and
    // resistors/capacitors/independent sources through the linear batch;
    // everything else (the core CSM devices) stays on the virtual path.
    MosfetBatch batch_;
    LinearBatch linear_batch_;
    std::vector<const Device*> scalar_devices_;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_SOLVER_WORKSPACE_H
