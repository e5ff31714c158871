// DC operating points: one damped delta-form Newton-Raphson iteration with
// gmin stepping as its fallback, plus a blocked sweep solver that amortizes
// factorizations over many bias points and verifies each point with that
// same iteration.
#ifndef MCSM_SPICE_DC_SOLVER_H
#define MCSM_SPICE_DC_SOLVER_H

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "spice/circuit.h"

namespace mcsm::spice {

// Fixed DC Newton settings, shared by solve_dc and solve_dc_sweep.
inline constexpr double kDcGmin = 1e-12;     // shunt left at the solution [S]
inline constexpr int kDcMaxIterations = 400; // Newton iterations per stage
inline constexpr double kDcVtol = 1e-9;      // node-update tolerance [V]
inline constexpr double kDcMaxUpdate = 0.3;  // damping clamp per update [V]

struct DcOptions {
    // Iteration budget for the cold-start direct attempt (no warm start)
    // before falling back to gmin stepping; 0 = kDcMaxIterations. A circuit
    // that converges directly from zero does so in a few dozen iterations,
    // so fast-path callers cap the probe instead of burning the full budget
    // proving divergence.
    int cold_probe_iterations = 0;
};

struct DcResult {
    // Solution layout: [0] ground (0.0), [1..n_nodes-1] node voltages,
    // [n_nodes..] branch currents.
    std::vector<double> x;
    // Every Newton iteration run (one factorization each): a failed direct
    // attempt's and every gmin stage's included.
    int iterations = 0;

    double node_voltage(int node) const {
        return x[static_cast<std::size_t>(node)];
    }
};

// Solves the DC operating point (sources at t = 0). Every iteration
// assembles at the iterate x with a kDcGmin shunt on each node, forms the
// residual r = b - A x, factors, solves d = A^-1 r and applies d damped so
// no node moves more than kDcMaxUpdate; it converges once max |d| over the
// nodes is below kDcVtol. A direct attempt runs first (from `initial` when
// given, else from zero with the cold-probe budget); if it fails, gmin
// stepping restarts from zero and solves at 1e-2 S, 1e-3 S, ... down to
// kDcGmin, once each. `initial` uses the DcResult::x layout; a wrong size
// throws ModelError. Throws NumericalError on non-convergence.
DcResult solve_dc(Circuit& circuit, const DcOptions& options = {},
                  const std::vector<double>* initial = nullptr);

// The sweep's options are solve_dc's; the old name stays for callers.
using DcSweepOptions = DcOptions;

// Solves `n_points` DC operating points on one prepared circuit that differ
// only in the DC levels of the `swept` sources. `values` is point-major:
// values[p * swept.size() + k] programs swept[k] at point p.
//
// Points are solved in blocks of 32. Each block runs delta-form Newton:
// every point assembles its own linearized system (through the batched
// device pass) and computes its true residual r = b - A x, but the update
// comes from the *lead* point's factorization via one blocked
// SparseLu::solve_block. A point whose shared-matrix step falls below
// kDcVtol is then *verified* with one solve_dc iteration against its own
// factored Jacobian, so a shared matrix that under-resolves some node (its
// local conductance far below the lead's) cannot smuggle an unconverged
// point through. Points that fail 25 shared rounds or the verification
// fall back to solve_dc from their current iterate. One structural
// exception: when every non-ground node is pinned by a ground-referenced
// voltage source (the characterization-fixture shape), the source rows
// make the shared step exact and the verification is provably redundant,
// so those sweeps skip it and most points cost a single seeded assembly
// plus a share of one factorization.
//
// `initial` seeds the first point's iterate (DcResult::x layout; a wrong
// size throws ModelError); warm starts chain point-to-point inside the
// call, so the fallback solve_dc always starts warm and `options` (its
// cold-probe budget) never applies. on_point(p, x) fires for every point
// in order. Results are deterministic: the frozen LU pivot order is
// dropped on entry so the outcome does not depend on what the workspace
// solved before.
void solve_dc_sweep(
    Circuit& circuit, const std::vector<VSource*>& swept,
    std::span<const double> values, std::size_t n_points,
    const DcOptions& options, const std::vector<double>* initial,
    const std::function<void(std::size_t, const std::vector<double>&)>&
        on_point);

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_DC_SOLVER_H
