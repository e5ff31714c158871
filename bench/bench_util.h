// Shared context for the figure-reproduction harnesses: the technology,
// cell library, and lazily characterized CSM models, plus small reporting
// helpers.
//
// Environment knobs:
//   MCSM_FAITHFUL_CAPS=1  use the paper-faithful transient capacitance
//                         extraction instead of the fast model-linearization
//                         (slower; an ablation bench shows they agree).
//   MCSM_GRID=<n>         per-axis grid points for the current tables.
#ifndef MCSM_BENCH_BENCH_UTIL_H
#define MCSM_BENCH_BENCH_UTIL_H

#include <functional>
#include <optional>
#include <string>

#include "cells/library.h"
#include "core/characterizer.h"
#include "core/model.h"
#include "spice/circuit.h"
#include "tech/tech130.h"
#include "wave/waveform.h"

namespace mcsm::bench {

class Context {
public:
    // Lazy singleton: models are characterized on first use.
    static Context& get();

    const tech::Technology& tech() const { return tech_; }
    const cells::CellLibrary& lib() const { return lib_; }
    double vdd() const { return tech_.vdd; }

    const core::CsmModel& inv_sis();
    const core::CsmModel& nor_mcsm();
    const core::CsmModel& nor_mis_baseline();
    const core::CsmModel& nor_sis_a();  // SIS model of NOR2 through pin A

    core::CharOptions char_options(std::size_t grid_points) const;

private:
    Context();

    tech::Technology tech_;
    cells::CellLibrary lib_;
    core::Characterizer chr_;
    bool faithful_caps_ = false;
    std::size_t grid_override_ = 0;

    std::optional<core::CsmModel> inv_sis_;
    std::optional<core::CsmModel> nor_mcsm_;
    std::optional<core::CsmModel> nor_mis_;
    std::optional<core::CsmModel> nor_sis_a_;
};

// Prints "[PASS] msg" / "[FAIL] msg" and tracks the overall exit code.
class Checker {
public:
    void check(bool ok, const std::string& message);
    // 0 when every check passed, 1 otherwise.
    int exit_code() const { return failed_ ? 1 : 0; }

private:
    bool failed_ = false;
};

// Prints a decimated waveform series as CSV columns "t_ns,<label>".
void print_waveform_header(const std::vector<std::string>& labels);
void print_waveform_rows(const std::vector<const wave::Waveform*>& waves,
                         double t0, double t1, double step);

// NOR2/INV chain of `stages` cells driven by one rising edge, flattened to
// one transistor-level Circuit - the flat-netlist scale scenario for the
// solver benches (node ids of net k are circuit.node_id("n<k>"), side
// input "b" held low).
spice::Circuit make_chain_circuit(const cells::CellLibrary& lib, int stages);

// --- solver-stage wall-clock timers -----------------------------------
// Shared by bench_solver_core and bench_perf_speedup's BENCH_perf.json so
// the two reports measure the same thing.
//
// Every timer here runs on std::chrono::steady_clock (monotonic: NTP steps
// and wall-time adjustments can never skew a measurement) and aggregates
// repetitions through time_reps_ms, which reports min-of-N alongside the
// mean: the JSON gates compare the noise-resistant minimum, the mean makes
// run-to-run spread visible in the artifacts.

struct BenchTiming {
    double min_ms = 0.0;   // best-of-N: the gate number
    double mean_ms = 0.0;  // average over N: the noise indicator
    int reps = 0;
};

// Runs `body` `reps` times on steady_clock and aggregates.
BenchTiming time_reps_ms(int reps, const std::function<void()>& body);

// Per-cycle cost of the DC Newton iteration on the flattened chain's
// workspace (batched assemble, gmin, residual, factor, one solve), in
// microseconds, averaged over a fixed window of at least 150 ms.
double time_newton_cycle_us(const cells::CellLibrary& lib, int stages);

// Per-assembly cost of the device-evaluation pass alone (no solve) on the
// sparse workspace: `batched` runs the SoA evaluate-and-stamp entry point
// the solvers use; otherwise the per-device virtual stamp loop (the test
// oracle) writes the same CSR storage. Microseconds.
double time_device_eval_us(const cells::CellLibrary& lib, int stages,
                           bool batched);

// Per-pass cost of the pure EKV device-evaluation kernel on the flattened
// chain's MosfetBatch (no stamping, no CSR writes): `lanes` runs the
// dispatched SIMD lane kernel through evaluate_lanes, otherwise the scalar
// fast kernel through evaluate(fast=true). This isolates the math the SIMD
// tier vectorizes; time_device_eval_us measures the whole assembly
// including the scalar stamping that follows either kernel. Microseconds.
double time_ekv_kernel_us(const cells::CellLibrary& lib, int stages,
                          bool lanes);

// Per-batch cost of producing `nrhs` solutions on the chain circuit's
// factored system, microseconds. `blocked` uses one refactor plus one
// interleaved SparseLu::solve_block; otherwise each solution pays its own
// refactor + single-RHS solve (the point-by-point Newton pattern).
double time_multi_rhs_us(const cells::CellLibrary& lib, int stages,
                         std::size_t nrhs, bool blocked);

// Wall clock of a characterization-style DC bias sweep (NOR2 with every
// modeled node forced, 6^4 grid points, blocked solve_dc_sweep),
// milliseconds.
double time_dc_sweep_ms(const cells::CellLibrary& lib,
                        BenchTiming* timing = nullptr);

// Best-of-3 wall clock of the full chain transient on the fixed 2 ps grid,
// milliseconds. When far_out is non-null it receives the far-end output
// waveform; `timing`, when non-null, receives the full min/mean aggregate.
double time_chain_transient_ms(const cells::CellLibrary& lib, int stages,
                               wave::Waveform* far_out = nullptr,
                               BenchTiming* timing = nullptr);

// Best-of-3 wall clock of the chain transient with the fast path
// (LTE-adaptive dt, optional Jacobian reuse), milliseconds.
// Same window as time_chain_transient_ms (2.5 ns / 2 ps record grid).
// When reuse_rate is non-null it receives jacobian_reuse_steps /
// steps_accepted of the last rep; far_out works as above.
double time_chain_transient_fast_ms(const cells::CellLibrary& lib, int stages,
                                    bool reuse_jacobian,
                                    double* reuse_rate = nullptr,
                                    wave::Waveform* far_out = nullptr,
                                    BenchTiming* timing = nullptr);

// Best-of-2 wall clock of a NOR2 MCSM characterization with `opt`,
// milliseconds (the caller sets grid/threads on opt).
double time_characterize_nor2_ms(const cells::CellLibrary& lib,
                                 const core::CharOptions& opt,
                                 BenchTiming* timing = nullptr);

}  // namespace mcsm::bench

#endif  // MCSM_BENCH_BENCH_UTIL_H
