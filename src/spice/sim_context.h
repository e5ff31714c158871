// Per-solve context handed to devices while stamping companion models.
#ifndef MCSM_SPICE_SIM_CONTEXT_H
#define MCSM_SPICE_SIM_CONTEXT_H

#include <cstddef>
#include <vector>

namespace mcsm::spice {

// Integration method for the transient companion models.
enum class Integrator {
    kBackwardEuler,
    kTrapezoidal,
};

// Read-only view of the solver state during one Newton-Raphson assembly.
//
// `x` is the current NR iterate (node voltages indexed by NodeId; entry 0 is
// ground and always 0). `x_prev` is the accepted solution of the previous
// time step (valid in transient mode only). `state` is the per-device state
// (e.g. capacitor branch currents) at the previous accepted step.
struct SimContext {
    enum class Mode { kDc, kTran };

    Mode mode = Mode::kDc;
    double time = 0.0;  // time being solved for (t_{n+1} in transient)
    double dt = 0.0;    // step size (transient only)
    Integrator integrator = Integrator::kTrapezoidal;
    // Transient step identity: unique per accepted base solution (x_prev,
    // state) and shared by every attempt at the step — Newton retries and
    // adaptive-dt shrinks included — plus the commit of the accepted one.
    // Devices key raw-capacitance caches on it (evaluated at x_prev, which
    // is constant across attempts); anything that bakes in dt or the
    // integrator must additionally key on those. Negative: caching disabled.
    long long step_id = -1;
    // TranOptions::stale_dv for this assembly: when positive, devices may
    // revalidate a previously-evaluated linearization — the channel tangent
    // model and the capacitance evaluation — if none of their terminal
    // voltages moved more than this [V]. The run id scopes that reuse to
    // one solve_tran call, so a circuit reused across scenarios never
    // carries linearization history between runs (determinism across
    // scheduling orders).
    double stale_dv = 0.0;
    long long run_id = -1;

    const std::vector<double>* x = nullptr;
    const std::vector<double>* x_prev = nullptr;
    const std::vector<double>* state = nullptr;

    double node_voltage(int node) const { return (*x)[static_cast<std::size_t>(node)]; }
    double prev_voltage(int node) const {
        return (*x_prev)[static_cast<std::size_t>(node)];
    }
    bool is_tran() const { return mode == Mode::kTran; }
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_SIM_CONTEXT_H
