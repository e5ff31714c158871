// Transient analysis with delta-form Newton-Raphson per step on the
// circuit's sparse workspace, trapezoidal or backward-Euler integration,
// and two step-control regimes:
//  * kFixedGrid (default) -- the record grid is the time grid; steps only
//    subdivide on Newton failure.
//  * kAdaptiveLte -- a predictor-corrector local-truncation-error estimate
//    grows and shrinks dt between source breakpoints (which stay exact).
// Independently, `reuse_jacobian` freezes one sparse LU factorization across
// Newton iterations and consecutive accepted steps (without it every
// iteration factors); the residual is always assembled at the current
// iterate, so correctness never depends on the stale matrix (same contract
// as solve_dc_sweep).
#ifndef MCSM_SPICE_TRAN_SOLVER_H
#define MCSM_SPICE_TRAN_SOLVER_H

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "wave/waveform.h"

namespace mcsm::spice {

enum class StepControl {
    kFixedGrid,    // step on the dt grid, subdividing on Newton failure
    kAdaptiveLte,  // LTE-controlled dt between breakpoints
};

struct TranOptions {
    double tstop = 1e-9;   // end time [s]
    double dt = 1e-12;     // recording/time-step grid [s]
    Integrator integrator = Integrator::kTrapezoidal;
    int max_newton = 80;
    double vtol = 1e-7;        // NR convergence tolerance [V]
    double max_update = 0.4;   // NR damping clamp [V]
    double gmin = 1e-12;       // transient shunt [S]
    int max_subdivisions = 10; // binary step subdivision depth on NR failure

    // --- step control (kAdaptiveLte only, except dt_min) ----------------
    StepControl step_control = StepControl::kFixedGrid;
    double dt_min = 0.0;    // smallest adaptive step; 0 selects dt / 1024
    double dt_max = 0.0;    // largest adaptive step; 0 selects 32 * dt
    // Per-step LTE budget over node voltages (branch currents are excluded:
    // trapezoidal source currents carry a marginally-stable ringing mode
    // that a polynomial predictor cannot track).
    double lte_rel = 2e-3;    // relative budget
    double lte_abs_v = 5e-5;  // absolute floor [V]
    double grow_max = 2.0;    // max per-accepted-step dt growth factor

    // --- Jacobian reuse ---------------------------------------------------
    bool reuse_jacobian = false;
    double itol = 1e-9;  // residual acceptance on KCL rows [A] when the
                         // accepting iteration ran against a stale LU
    // Devices may keep their cached linearization — the channel tangent
    // model and the step-frozen capacitance evaluation — when no terminal
    // voltage moved more than this [V] since it was last evaluated (0 =
    // re-evaluate everywhere, the default). Channel reuse re-stamps the
    // cached *tangent*, so its model error is second order in the
    // threshold; cap reuse is first order, which bounds how large the knob
    // should be. On a gate chain only the switching cells pay for
    // device evaluation; settled cells revalidate for free. Assembly,
    // commit, and LTE control all see the same (slightly stale, still
    // charge-consistent) linearization.
    double stale_dv = 0.0;

    // Operating-point options for the t=0 solve.
    DcOptions dc;
};

// Validates every TranOptions field, throwing ModelError with a descriptive
// message on the first violation. solve_tran calls this up front.
void validate_tran_options(const TranOptions& options);

// The tuned fast-path configuration shared by the characterizer, the serve
// layer's exact queries, and the benches: LTE-adaptive stepping plus
// Jacobian reuse on top of the caller's (tstop, dt) window.
TranOptions fast_tran_options(double tstop, double dt);

// Stepping-loop counters exposed through TranResult::stats().
struct TranStats {
    long long steps_accepted = 0;
    long long steps_rejected = 0;  // LTE rejections + Newton failures
    long long lte_rejections = 0;  // subset of steps_rejected: LTE only
    long long newton_iters = 0;    // linear solves across all attempts
    // Factorizations; equals newton_iters unless reuse_jacobian is on.
    long long lu_refactors = 0;
    // Accepted steps whose Newton loop ran entirely against a frozen
    // factorization from an earlier step.
    long long jacobian_reuse_steps = 0;
};

class TranResult {
public:
    // Empty result, fillable by assignment (used by batch containers).
    TranResult() = default;

    TranResult(std::vector<std::string> node_names,
               std::unordered_map<std::string, int> vsource_branch);

    // Preallocates storage for n_samples records of n_branches branch
    // currents, so record() never reallocates during the stepping loop.
    void reserve(std::size_t n_samples, int n_branches);

    void record(double t, const std::vector<double>& x, int n_nodes,
                int n_branches);

    const std::vector<double>& times() const { return times_; }
    std::size_t sample_count() const { return times_.size(); }

    // Voltage waveform of a node (by name or id).
    wave::Waveform node_waveform(const std::string& node_name) const;
    wave::Waveform node_waveform(int node_id) const;

    // Current through a voltage source, positive flowing from the positive
    // terminal through the source to the negative terminal.
    wave::Waveform vsource_current(const std::string& vsource_name) const;

    double final_node_voltage(int node_id) const;

    const TranStats& stats() const { return stats_; }
    void set_stats(const TranStats& stats) { stats_ = stats; }

private:
    std::vector<std::string> node_names_;
    std::unordered_map<std::string, int> node_index_;
    std::unordered_map<std::string, int> vsource_branch_;
    std::vector<double> times_;
    std::vector<std::vector<double>> node_v_;   // [node][sample]
    std::vector<std::vector<double>> branch_i_; // [branch][sample]
    TranStats stats_;
};

// Runs a transient from the DC operating point at t=0 to options.tstop.
// Throws NumericalError if a step fails even after subdivision, or once
// subdivision no longer advances time.
TranResult solve_tran(Circuit& circuit, const TranOptions& options);

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_TRAN_SOLVER_H
