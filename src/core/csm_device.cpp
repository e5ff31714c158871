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
    : Device(std::move(name)), model_(&model), nodes_(std::move(pin_nodes)) {
    model.check_consistent();
    require(nodes_.size() == model.pin_count(),
            "CsmCellDevice: pin node count mismatch");
    require(internal_nodes.size() == model.internal_count(),
            "CsmCellDevice: internal node count mismatch");
    nodes_.insert(nodes_.end(), internal_nodes.begin(), internal_nodes.end());
    nodes_.push_back(out_node);

    const std::vector<TableRole> roles = model.roles();
    const std::vector<const lut::NdTable*> tables = model.tables();
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const TableRole& r = roles[i];
        Term term{tables[i], r.kind, r.a, r.b, 0};
        if (r.kind == TableRole::Kind::kCurrent) {
            currents_.push_back(term);
            continue;
        }
        if (r.kind == TableRole::Kind::kInputCap) {
            if (!stamp_input_caps) continue;
            // The pin's Miller cap precedes its input cap in the list.
            while (caps_[term.miller].a != r.a ||
                   caps_[term.miller].b != model.out_axis())
                ++term.miller;
        }
        caps_.push_back(term);
    }
    v_scratch_.resize(model.dim());
    vp_scratch_.resize(model.dim());
    grad_scratch_.resize(model.dim());
    cap_values_.resize(caps_.size());
}

int CsmCellDevice::node_of(std::size_t d) const {
    return d == TableRole::kGround ? spice::Circuit::kGround : nodes_[d];
}

void CsmCellDevice::gather(const std::vector<double>& x,
                           std::vector<double>& v) const {
    v.resize(nodes_.size());
    for (std::size_t d = 0; d < nodes_.size(); ++d)
        v[d] = x[static_cast<std::size_t>(nodes_[d])];
}

void CsmCellDevice::stamp(spice::Stamper& st,
                          const spice::SimContext& ctx) const {
    std::vector<double>& v = v_scratch_;
    gather(*ctx.x, v);
    std::vector<double>& grad = grad_scratch_;
    std::fill(grad.begin(), grad.end(), 0.0);

    // Nonlinear current source I(V) into the cell at node a; Jacobian from
    // the exact gradient of the multilinear interpolant.
    for (const Term& t : currents_) {
        const int at = nodes_[t.a];
        const double i = t.table->at_with_gradient(v, grad);
        double affine = i;
        for (std::size_t d = 0; d < nodes_.size(); ++d) {
            st.add_matrix(at, nodes_[d], grad[d]);
            affine -= grad[d] * v[d];
        }
        st.add_source_current(at, spice::Circuit::kGround, affine);
    }

    if (!ctx.is_tran()) return;

    const std::vector<double>& caps = step_caps(ctx);
    const auto base = static_cast<std::size_t>(state_base());
    const std::vector<double>& state = *ctx.state;
    for (std::size_t k = 0; k < caps_.size(); ++k)
        spice::stamp_capacitor(st, ctx, node_of(caps_[k].a),
                               node_of(caps_[k].b), caps[k], state[base + k]);
}

const std::vector<double>& CsmCellDevice::step_caps(
    const spice::SimContext& ctx) const {
    std::vector<double>& caps = cap_values_;
    if (ctx.step_id >= 0 && ctx.step_id == caps_step_id_) return caps;
    caps_step_id_ = ctx.step_id;

    // Evaluated at the previous accepted step (consistent with the MOSFET
    // device treatment).
    std::vector<double>& vp = vp_scratch_;
    gather(*ctx.x_prev, vp);
    for (std::size_t k = 0; k < caps_.size(); ++k) {
        const Term& t = caps_[k];
        if (t.kind == TableRole::Kind::kCap) {
            caps[k] = t.table->at(vp);
            continue;
        }
        // The 1-D c_in tables are extracted with the output tied, so they
        // already contain the pin->out Miller part; the grounded component
        // of eq. (3) is CA = c_in - Cm (the Miller cap is its own term).
        const std::span<const double> vin(&vp[t.a], 1);
        caps[k] = std::max(0.0, t.table->at(vin) - caps[t.miller]);
    }
    return caps;
}

void CsmCellDevice::commit(const spice::SimContext& ctx,
                           std::span<double> state_next) const {
    if (!ctx.is_tran()) return;

    // step_caps gathers x_prev into vp_scratch_ (or reuses the cached step
    // linearization from the Newton iterations of this step).
    const std::vector<double>& caps = step_caps(ctx);
    std::vector<double>& v = v_scratch_;
    std::vector<double>& vp = vp_scratch_;
    gather(*ctx.x, v);
    gather(*ctx.x_prev, vp);
    const auto base = static_cast<std::size_t>(state_base());
    const std::vector<double>& state = *ctx.state;

    // Voltage across a cap term (v_a - v_b, or v_a against ground).
    const auto across = [](const std::vector<double>& u, const Term& t) {
        return t.b == TableRole::kGround ? u[t.a] : u[t.a] - u[t.b];
    };
    for (std::size_t k = 0; k < caps_.size(); ++k)
        state_next[base + k] = spice::capacitor_current(
            ctx, caps[k], across(v, caps_[k]), across(vp, caps_[k]),
            state[base + k]);
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
