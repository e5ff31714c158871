#include "core/csm_device.h"

#include <algorithm>

#include "common/error.h"
#include "spice/cap_companion.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"

namespace mcsm::core {

// Declared in core/model.h; defined here so the model stays free of the
// solver. Node names and order match ModelCell's, so both circuits
// assemble the same system.
std::vector<double> CsmModel::dc_state(
    std::span<const double> pin_volts) const {
    require(pin_volts.size() == pin_count(), "dc_state: pin count mismatch");
    spice::Circuit c;
    std::vector<int> pin_nodes;
    for (std::size_t p = 0; p < pin_count(); ++p) {
        pin_nodes.push_back(c.node("in_" + pins[p]));
        c.add_vsource("V" + pins[p], pin_nodes.back(),
                      spice::Circuit::kGround,
                      spice::SourceSpec::dc(pin_volts[p]));
    }
    std::vector<int> internal_nodes;
    for (const std::string& n : internals)
        internal_nodes.push_back(c.node("int_" + n));
    const int out = c.node("out");
    c.add_device<CsmCellDevice>("DUT", *this, std::move(pin_nodes),
                                internal_nodes, out);

    const spice::DcResult dc = spice::solve_dc(c, spice::fast_dc_options());
    std::vector<double> state;
    state.reserve(internal_nodes.size() + 1);
    for (int n : internal_nodes) state.push_back(dc.node_voltage(n));
    state.push_back(dc.node_voltage(out));
    return state;
}

CsmCellDevice::CsmCellDevice(std::string name, const CsmModel& model,
                             std::vector<int> pin_nodes,
                             std::vector<int> internal_nodes, int out_node,
                             bool stamp_input_caps)
    : Device(std::move(name)),
      model_(&model),
      pins_(std::move(pin_nodes)),
      internals_(std::move(internal_nodes)),
      out_(out_node),
      input_caps_(stamp_input_caps) {
    model.check_consistent();
    require(pins_.size() == model.pin_count(),
            "CsmCellDevice: pin node count mismatch");
    require(internals_.size() == model.internal_count(),
            "CsmCellDevice: internal node count mismatch");
    v_scratch_.resize(model.dim());
    vp_scratch_.resize(model.dim());
    grad_scratch_.resize(model.dim());
    caps_cache_.cm.resize(model.pin_count());
    caps_cache_.cn.resize(model.internal_count());
    caps_cache_.cmn.resize(model.pin_count() * model.internal_count());
    caps_cache_.ca.resize(input_caps_ ? model.pin_count() : 0);
}

std::vector<int> CsmCellDevice::terminals() const {
    std::vector<int> t(pins_);
    t.insert(t.end(), internals_.begin(), internals_.end());
    t.push_back(out_);
    return t;
}

int CsmCellDevice::state_count() const {
    // Trapezoidal branch currents: one per Miller cap, one for Co, one per
    // CN, one per pin->internal Miller, and one per input cap when stamped.
    return static_cast<int>(model_->pin_count() + 1 +
                            model_->internal_count() +
                            model_->pin_count() * model_->internal_count() +
                            (input_caps_ ? model_->pin_count() : 0));
}

void CsmCellDevice::gather(const std::vector<double>& x,
                           std::vector<double>& v) const {
    v.resize(model_->dim());
    std::size_t d = 0;
    for (int n : pins_) v[d++] = x[static_cast<std::size_t>(n)];
    for (int n : internals_) v[d++] = x[static_cast<std::size_t>(n)];
    v[d] = x[static_cast<std::size_t>(out_)];
}

void CsmCellDevice::stamp(spice::Stamper& st,
                          const spice::SimContext& ctx) const {
    const std::size_t n_pins = model_->pin_count();
    const std::size_t n_int = model_->internal_count();
    const std::size_t dim = model_->dim();

    std::vector<double>& v = v_scratch_;
    gather(*ctx.x, v);
    std::vector<double>& grad = grad_scratch_;
    std::fill(grad.begin(), grad.end(), 0.0);

    // Circuit node corresponding to each model axis.
    auto axis_node = [&](std::size_t d) -> int {
        if (d < n_pins) return pins_[d];
        if (d < n_pins + n_int) return internals_[d - n_pins];
        return out_;
    };

    // Nonlinear current source I(V) leaving `at`; Jacobian from the exact
    // gradient of the multilinear interpolant.
    auto stamp_source = [&](const lut::NdTable& table, int at) {
        const double i = table.at_with_gradient(v, grad);
        double affine = i;
        for (std::size_t d = 0; d < dim; ++d) {
            st.add_matrix(at, axis_node(d), grad[d]);
            affine -= grad[d] * v[d];
        }
        st.add_source_current(at, spice::Circuit::kGround, affine);
    };

    stamp_source(model_->i_out, out_);
    for (std::size_t j = 0; j < n_int; ++j)
        stamp_source(model_->i_internal[j], internals_[j]);

    if (!ctx.is_tran()) return;

    const StepCaps& caps = step_caps(ctx);
    const auto base = static_cast<std::size_t>(state_base());
    const std::vector<double>& state = *ctx.state;
    std::size_t slot = 0;
    for (std::size_t p = 0; p < n_pins; ++p, ++slot)
        spice::stamp_capacitor(st, ctx, pins_[p], out_, caps.cm[p],
                               state[base + slot]);
    spice::stamp_capacitor(st, ctx, out_, spice::Circuit::kGround, caps.co,
                           state[base + slot]);
    ++slot;
    for (std::size_t j = 0; j < n_int; ++j, ++slot)
        spice::stamp_capacitor(st, ctx, internals_[j], spice::Circuit::kGround,
                               caps.cn[j], state[base + slot]);
    for (std::size_t p = 0; p < n_pins; ++p)
        for (std::size_t j = 0; j < n_int; ++j, ++slot)
            spice::stamp_capacitor(st, ctx, pins_[p], internals_[j],
                                   caps.cmn[p * n_int + j],
                                   state[base + slot]);
    if (input_caps_) {
        for (std::size_t p = 0; p < n_pins; ++p, ++slot)
            spice::stamp_capacitor(st, ctx, pins_[p], spice::Circuit::kGround,
                                   caps.ca[p], state[base + slot]);
    }
}

const CsmCellDevice::StepCaps& CsmCellDevice::step_caps(
    const spice::SimContext& ctx) const {
    StepCaps& caps = caps_cache_;
    if (ctx.step_id >= 0 && ctx.step_id == caps.step_id) return caps;
    caps.step_id = ctx.step_id;

    const std::size_t n_pins = model_->pin_count();
    const std::size_t n_int = model_->internal_count();

    // Evaluated at the previous accepted step (consistent with the MOSFET
    // device treatment).
    std::vector<double>& vp = vp_scratch_;
    gather(*ctx.x_prev, vp);
    for (std::size_t p = 0; p < n_pins; ++p) caps.cm[p] = model_->cm(p, vp);
    caps.co = model_->co(vp);
    for (std::size_t j = 0; j < n_int; ++j) caps.cn[j] = model_->cn(j, vp);
    for (std::size_t p = 0; p < n_pins; ++p)
        for (std::size_t j = 0; j < n_int; ++j)
            caps.cmn[p * n_int + j] = model_->cmn(p, j, vp);
    if (input_caps_) {
        // The 1-D c_in tables are extracted with the output tied, so they
        // already contain the pin->out Miller part; the grounded component
        // of eq. (3) is CA = c_in - Cm (the Miller cap is stamped above).
        for (std::size_t p = 0; p < n_pins; ++p)
            caps.ca[p] =
                std::max(0.0, model_->cin(p, vp[p]) - caps.cm[p]);
    }
    return caps;
}

void CsmCellDevice::commit(const spice::SimContext& ctx,
                           std::span<double> state_next) const {
    if (!ctx.is_tran()) return;
    const std::size_t n_pins = model_->pin_count();
    const std::size_t n_int = model_->internal_count();

    // step_caps gathers x_prev into vp_scratch_ (or reuses the cached step
    // linearization from the Newton iterations of this step).
    const StepCaps& caps = step_caps(ctx);
    std::vector<double>& v = v_scratch_;
    std::vector<double>& vp = vp_scratch_;
    gather(*ctx.x, v);
    gather(*ctx.x_prev, vp);
    const auto base = static_cast<std::size_t>(state_base());
    const std::vector<double>& state = *ctx.state;

    auto update = [&](std::size_t slot, double c, double v_now,
                      double v_prev) {
        state_next[base + slot] = spice::capacitor_current(
            ctx, c, v_now, v_prev, state[base + slot]);
    };

    const std::size_t out_d = model_->out_axis();
    std::size_t slot = 0;
    for (std::size_t p = 0; p < n_pins; ++p, ++slot)
        update(slot, caps.cm[p], v[p] - v[out_d], vp[p] - vp[out_d]);
    update(slot, caps.co, v[out_d], vp[out_d]);
    ++slot;
    for (std::size_t j = 0; j < n_int; ++j, ++slot)
        update(slot, caps.cn[j], v[n_pins + j], vp[n_pins + j]);
    for (std::size_t p = 0; p < n_pins; ++p)
        for (std::size_t j = 0; j < n_int; ++j, ++slot)
            update(slot, caps.cmn[p * n_int + j], v[p] - v[n_pins + j],
                   vp[p] - vp[n_pins + j]);
    if (input_caps_) {
        for (std::size_t p = 0; p < n_pins; ++p, ++slot)
            update(slot, caps.ca[p], v[p], vp[p]);
    }
}

LutCapDevice::LutCapDevice(std::string name, const lut::NdTable& table,
                           int node, double scale)
    : Device(std::move(name)), table_(&table), node_(node), scale_(scale) {
    require(table.rank() == 1, "LutCapDevice: table must be 1-D");
    require(scale > 0.0, "LutCapDevice: scale must be positive");
}

double LutCapDevice::cap_at(double v) const {
    const double q[1] = {v};
    return scale_ * table_->at(std::span<const double>(q, 1));
}

void LutCapDevice::stamp(spice::Stamper& st,
                         const spice::SimContext& ctx) const {
    if (!ctx.is_tran()) return;
    if (ctx.step_id < 0 || ctx.step_id != cap_step_id_) {
        cap_cache_ = cap_at(ctx.prev_voltage(node_));
        cap_step_id_ = ctx.step_id;
    }
    const double i_prev =
        (*ctx.state)[static_cast<std::size_t>(state_base())];
    spice::stamp_capacitor(st, ctx, node_, spice::Circuit::kGround,
                           cap_cache_, i_prev);
}

void LutCapDevice::commit(const spice::SimContext& ctx,
                          std::span<double> state_next) const {
    if (!ctx.is_tran()) return;
    const double c = (ctx.step_id >= 0 && ctx.step_id == cap_step_id_)
                         ? cap_cache_
                         : cap_at(ctx.prev_voltage(node_));
    const double i_prev =
        (*ctx.state)[static_cast<std::size_t>(state_base())];
    state_next[static_cast<std::size_t>(state_base())] =
        spice::capacitor_current(ctx, c, ctx.node_voltage(node_),
                                 ctx.prev_voltage(node_), i_prev);
}

}  // namespace mcsm::core
