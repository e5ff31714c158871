// Persistent solver workspace: built once per circuit topology by
// Circuit::prepare() and reused across every Newton iteration and time step.
//
// Construction discovers the MNA sparsity pattern by running one
// pattern-collection stamp pass over the devices (DC and transient modes,
// so companion-model entries are included, plus the gmin diagonal the
// solvers stamp), then preallocates CSR storage and the sparse LU. After
// that, one delta-form Newton cycle -- assemble, residual, factor,
// solve_block -- performs zero heap allocations: devices write into fixed
// CSR slots through the same Stamper primitives, the LU reuses its
// symbolic factorization, and the caller owns the residual and update
// buffers. Every DC and transient solve runs that one cycle.
#ifndef MCSM_SPICE_SOLVER_WORKSPACE_H
#define MCSM_SPICE_SOLVER_WORKSPACE_H

#include <cstddef>
#include <span>
#include <vector>

#include "common/sparse_lu.h"
#include "common/sparse_matrix.h"
#include "spice/device_batch.h"
#include "spice/stamper.h"

namespace mcsm::spice {

class Circuit;
class Device;

class SolverWorkspace {
public:
    // The circuit must be index-bound, with every device terminal a node
    // id in [0, node_count()): Circuit::prepare() binds the indices and
    // checks the terminals before it constructs the workspace. The
    // workspace takes no reference to the circuit beyond the constructor.
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

    // Residual r = rhs - A*x of the assembled system. `x` is a solution
    // vector in the solvers' layout ([0] ground, node voltages, branch
    // currents: system_size() + 1 entries); r is in unknown space (ground
    // dropped, so unknown i is x[i + 1]).
    void residual(std::span<const double> x, std::span<double> r) const;
    // Factors the assembled matrix; throws NumericalError on singular
    // systems.
    void factor();
    // Solves nrhs systems against the last factor()ed matrix. Interleaved
    // layout (see SparseLu::solve_block); allocation-free. A Newton
    // iteration solves its update d = A^-1 r with nrhs = 1.
    void solve_block(const double* b, double* x, std::size_t nrhs);
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
    // Device grouping for assemble(): MOSFETs go through the SoA batch and
    // resistors/capacitors/independent sources through the linear batch;
    // everything else (the core CSM devices) stays on the virtual path.
    MosfetBatch batch_;
    LinearBatch linear_batch_;
    std::vector<const Device*> scalar_devices_;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_SOLVER_WORKSPACE_H
