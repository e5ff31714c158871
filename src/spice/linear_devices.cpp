#include "spice/linear_devices.h"

#include <cmath>

#include "common/error.h"
#include "spice/cap_companion.h"

namespace mcsm::spice {

Resistor::Resistor(std::string name, int a, int b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
    require(std::isfinite(resistance) && resistance > 0.0,
            "Resistor: resistance must be positive and finite");
}

void Resistor::stamp(Stamper& st, const SimContext&) const {
    st.add_conductance(a_, b_, 1.0 / resistance_);
}

Capacitor::Capacitor(std::string name, int a, int b, double capacitance)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
    require(std::isfinite(capacitance) && capacitance >= 0.0,
            "Capacitor: capacitance must be non-negative and finite");
}

void Capacitor::stamp(Stamper& st, const SimContext& ctx) const {
    const double i_prev =
        ctx.state ? (*ctx.state)[static_cast<std::size_t>(state_base())] : 0.0;
    stamp_capacitor(st, ctx, a_, b_, capacitance_, i_prev);
}

void Capacitor::commit(const SimContext& ctx,
                       std::span<double> state_next) const {
    const double i_prev =
        ctx.state ? (*ctx.state)[static_cast<std::size_t>(state_base())] : 0.0;
    const double v_now = ctx.node_voltage(a_) - ctx.node_voltage(b_);
    const double v_prev = ctx.prev_voltage(a_) - ctx.prev_voltage(b_);
    state_next[static_cast<std::size_t>(state_base())] =
        capacitor_current(ctx, capacitance_, v_now, v_prev, i_prev);
}

VSource::VSource(std::string name, int p, int m, SourceSpec spec)
    : Device(std::move(name)), p_(p), m_(m), spec_(std::move(spec)) {}

void VSource::stamp(Stamper& st, const SimContext& ctx) const {
    st.add_voltage_branch(branch_base(), p_, m_, spec_.value(ctx.time));
}

void VSource::collect_breakpoints(std::vector<double>& out) const {
    if (spec_.is_dc()) return;
    const auto& t = spec_.waveform().times();
    out.insert(out.end(), t.begin(), t.end());
}

ISource::ISource(std::string name, int p, int m, SourceSpec spec)
    : Device(std::move(name)), p_(p), m_(m), spec_(std::move(spec)) {}

void ISource::stamp(Stamper& st, const SimContext& ctx) const {
    st.add_source_current(p_, m_, spec_.value(ctx.time));
}

void ISource::collect_breakpoints(std::vector<double>& out) const {
    if (spec_.is_dc()) return;
    const auto& t = spec_.waveform().times();
    out.insert(out.end(), t.begin(), t.end());
}

}  // namespace mcsm::spice
