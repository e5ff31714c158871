// Device interface for the MNA solver. Transistor-level devices live in the
// spice module; the CSM cell models in src/core implement the same interface
// so golden and model circuits run through one transient engine.
#ifndef MCSM_SPICE_DEVICE_H
#define MCSM_SPICE_DEVICE_H

#include <span>
#include <string>
#include <vector>

#include "spice/sim_context.h"
#include "spice/stamper.h"

namespace mcsm::spice {

class Device {
public:
    explicit Device(std::string name) : name_(std::move(name)) {}
    virtual ~Device() = default;

    Device(const Device&) = delete;
    Device& operator=(const Device&) = delete;

    const std::string& name() const { return name_; }

    // Number of branch-current unknowns this device adds (voltage sources: 1).
    virtual int branch_count() const { return 0; }

    // Circuit nodes this device connects to, in declaration order (repeats
    // allowed). Every node id the device stamps must be listed:
    // Circuit::prepare() checks them against [0, node_count()) before it
    // builds the workspace. Cold path; not used while solving.
    virtual std::vector<int> terminals() const { return {}; }

    // Number of doubles of per-device state persisted across time steps
    // (e.g. capacitor companion currents for trapezoidal integration).
    virtual int state_count() const { return 0; }

    // Called once by the circuit when indices are frozen.
    void bind(int branch_base, int state_base) {
        branch_base_ = branch_base;
        state_base_ = state_base;
    }
    int branch_base() const { return branch_base_; }
    int state_base() const { return state_base_; }

    // Stamps the linearized companion model for the current NR iterate.
    virtual void stamp(Stamper& st, const SimContext& ctx) const = 0;

    // Appends times at which the device's drive has a derivative
    // discontinuity (waveform corners). The transient solver switches to
    // backward Euler for steps containing a breakpoint to suppress
    // trapezoidal ringing.
    virtual void collect_breakpoints(std::vector<double>& out) const {
        (void)out;
    }

    // Called after a time step converged; writes the device state for the
    // next step into `state_next` (same indexing as ctx.state).
    virtual void commit(const SimContext& ctx,
                        std::span<double> state_next) const {
        (void)ctx;
        (void)state_next;
    }

private:
    std::string name_;
    int branch_base_ = -1;
    int state_base_ = -1;
};

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_DEVICE_H
