// CSM cells as spice::Device implementations. Golden (transistor-level) and
// model circuits run through the same MNA transient engine, which makes the
// accuracy comparisons apples-to-apples and gives the model access to
// arbitrary loads (coupled RC nets, receiver caps, other CSM cells).
//
// Solving the output/internal nodes inside the MNA Newton loop is the
// implicit counterpart of the paper's explicit updates (eqs. (4), (5)); the
// explicit integrator lives in core/explicit_sim.h and an ablation bench
// compares the two.
#ifndef MCSM_CORE_CSM_DEVICE_H
#define MCSM_CORE_CSM_DEVICE_H

#include <span>
#include <string>
#include <vector>

#include "core/model.h"
#include "spice/device.h"

namespace mcsm::core {

// The device walks the model's table list (core/model.h) once, in its
// constructor, and binds every table to circuit nodes as a term: a current
// source, or a capacitor with one state slot (its trapezoidal branch
// current). stamp() stamps the current terms, then the cap terms in list
// order; commit() updates slot k from cap term k.
class CsmCellDevice : public spice::Device {
public:
    // `pin_nodes` follow model.pins order; `internal_nodes` follow
    // model.internals order (pass freshly created circuit nodes - the device
    // owns their dynamics). When `stamp_input_caps` is set, the model's 1-D
    // receiver caps load the input nets (needed when the inputs are driven
    // by other cells rather than ideal sources).
    CsmCellDevice(std::string name, const CsmModel& model,
                  std::vector<int> pin_nodes, std::vector<int> internal_nodes,
                  int out_node, bool stamp_input_caps = false);

    int state_count() const override {
        return static_cast<int>(caps_.size());
    }
    // The nodes of the model axes: [pins..., internals..., out].
    std::vector<int> terminals() const override { return nodes_; }
    void stamp(spice::Stamper& st, const spice::SimContext& ctx) const override;
    void commit(const spice::SimContext& ctx,
                std::span<double> state_next) const override;

private:
    // One table bound to the circuit: a current into node a, or a cap
    // between nodes a and b, as model axes (b = TableRole::kGround for a
    // grounded cap). An input cap subtracts its pin's Miller cap term.
    struct Term {
        const lut::NdTable* table;
        TableRole::Kind kind;
        std::size_t a;
        std::size_t b;
        std::size_t miller;  // input caps: index of the Miller cap term
    };

    // Circuit node of model axis d; ground for TableRole::kGround.
    int node_of(std::size_t d) const;
    // Gathers the model-axis voltages from a solution vector.
    void gather(const std::vector<double>& x, std::vector<double>& v) const;

    // Every cap term's value at the previous accepted solution, cached per
    // transient step (shared by every Newton iteration and the commit; each
    // value is a multilinear interpolation over 2^dim table corners). Keyed
    // on SimContext::step_id.
    const std::vector<double>& step_caps(const spice::SimContext& ctx) const;

    const CsmModel* model_;  // non-owning; outlives the circuit
    std::vector<int> nodes_;  // per model axis
    std::vector<Term> currents_;
    std::vector<Term> caps_;  // state slot k belongs to caps_[k]
    // Scratch for stamp()/commit(), preallocated so the Newton inner loop
    // stays allocation-free. A device belongs to one circuit and circuits
    // solve single-threaded, so plain mutable members are safe.
    mutable std::vector<double> v_scratch_;
    mutable std::vector<double> vp_scratch_;
    mutable std::vector<double> grad_scratch_;
    mutable std::vector<double> cap_values_;
    mutable long long caps_step_id_ = -1;
};

// A 1-D voltage-dependent grounded capacitor C(v), used for receiver input
// loads (the paper's CA(VA) tables).
class LutCapDevice : public spice::Device {
public:
    LutCapDevice(std::string name, const lut::NdTable& table, int node,
                 double scale = 1.0);

    int state_count() const override { return 1; }
    std::vector<int> terminals() const override { return {node_}; }
    void stamp(spice::Stamper& st, const spice::SimContext& ctx) const override;
    void commit(const spice::SimContext& ctx,
                std::span<double> state_next) const override;

private:
    double cap_at(double v) const;

    const lut::NdTable* table_;  // non-owning
    int node_;
    double scale_;
    // Per-step cache of the table lookup at the previous accepted solution
    // (keyed on SimContext::step_id, as in CsmCellDevice::step_caps).
    mutable long long cap_step_id_ = -1;
    mutable double cap_cache_ = 0.0;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_CSM_DEVICE_H
