#include "core/characterizer.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>

#include "common/error.h"
#include "common/numeric.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "wave/edges.h"

namespace mcsm::core {

namespace {

using cells::CellType;
using spice::Circuit;
using spice::Mosfet;
using spice::SourceSpec;

// Characterization testbench: the cell with forcing voltage sources on
// every modeled node (switching pins, OUT, and - for MCSM - the internal
// stack nodes). Fixed pins sit at their non-controlling levels. A fixture
// carries everything one sweep point needs, so each parallel_for slot runs
// on its own.
struct Fixture {
    Circuit circuit;
    // Per forced node, in table axis order (pins, internals when forced,
    // out): its node id, its forcing source, and that source's branch id
    // (whose DC current is the node's current table entry).
    std::vector<int> nodes;
    std::vector<std::string> sources;
    std::vector<int> branches;
    std::vector<const Mosfet*> dut_mosfets;
    // Cap-shortcut scratch: dut_mosfets[k]'s caps at the current point.
    std::vector<spice::MosCaps> caps;
};

// LTE-adaptive stepping + Jacobian reuse for one cap-extraction ramp.
// Current samples feed finite-difference cap extraction: keep the record
// grid dense enough that interpolating between accepted steps stays below
// the averaging noise.
spice::TranOptions ramp_tran_options(double tstop, double dt) {
    spice::TranOptions topt = spice::fast_tran_options(tstop, dt);
    topt.dt_max = 8.0 * dt;
    return topt;
}

// Switching pins and OUT are always forced; internal nodes only when
// `force_internals` (MCSM).
Fixture build_fixture(const cells::CellLibrary& lib, const CellType& cell,
                      const std::vector<std::string>& switching_pins,
                      bool force_internals) {
    Fixture f;
    const double vdd = lib.tech().vdd;
    const int vdd_node = f.circuit.node("vdd");
    f.circuit.add_vsource("VDD", vdd_node, Circuit::kGround,
                          SourceSpec::dc(vdd));

    std::unordered_map<std::string, int> conn;
    conn[cells::kVdd] = vdd_node;
    conn[cells::kGnd] = Circuit::kGround;
    const int out_node = f.circuit.node("out");
    conn[cells::kOut] = out_node;

    for (const cells::PinInfo& pin : cell.inputs()) {
        const int n = f.circuit.node("in_" + pin.name);
        conn[pin.name] = n;
        const bool switching =
            std::find(switching_pins.begin(), switching_pins.end(),
                      pin.name) != switching_pins.end();
        const std::string src_name = "VP_" + pin.name;
        f.circuit.add_vsource(src_name, n, Circuit::kGround,
                              SourceSpec::dc(switching ? 0.0
                                                       : pin.non_controlling));
    }
    // Record switching pins in the requested order.
    for (const std::string& p : switching_pins) {
        f.nodes.push_back(conn.at(p));
        f.sources.push_back("VP_" + p);
    }

    if (force_internals) {
        for (const std::string& formal : cell.internal_nodes()) {
            const int n = f.circuit.node("int_" + formal);
            conn[formal] = n;
            const std::string src = "VN_" + formal;
            f.circuit.add_vsource(src, n, Circuit::kGround, SourceSpec::dc(0.0));
            f.nodes.push_back(n);
            f.sources.push_back(src);
        }
    }

    f.nodes.push_back(out_node);
    f.sources.emplace_back("VOUT");
    f.circuit.add_vsource(f.sources.back(), out_node, Circuit::kGround,
                          SourceSpec::dc(0.0));

    cell.instantiate(f.circuit, "DUT", conn);
    for (const auto& dev : f.circuit.devices()) {
        if (const auto* m = dynamic_cast<const Mosfet*>(dev.get()))
            f.dut_mosfets.push_back(m);
    }
    f.caps.resize(f.dut_mosfets.size());
    f.circuit.prepare();
    for (const std::string& src : f.sources)
        f.branches.push_back(f.circuit.branch_of(src));
    return f;
}

// Testbench fixtures per parallel_for slot: slot 0 runs on the caller's
// fixture (the one the inline path uses), every other slot builds its own
// on its first claim and keeps it for every later fan-out of the same
// characterization (construction repeats the pattern analysis and pivot
// search).
struct SlotFixtures {
    Fixture& main;
    std::function<Fixture()> build;
    std::vector<std::optional<Fixture>> spare;

    Fixture& operator[](std::size_t slot) {
        if (slot == 0) return main;
        if (!spare[slot]) spare[slot].emplace(build());
        return *spare[slot];
    }
};

// Sweep axes: {-dv, -dv/2, linspace(0, vdd, g-2)..., vdd+dv/2, vdd+dv}.
// Both rails are exact knots (needed for clean DC equilibria of the
// resulting model) and the safety margins get a midpoint knot: the early
// part of an output transition and the boosted stack-node voltages live in
// those margin cells, and leaving them as single interpolation cells costs
// several percent of delay accuracy.
std::vector<double> make_knots(double vdd, double dv, std::size_t g) {
    require(g >= 4, "Characterizer: grid_points must be >= 4");
    std::vector<double> knots;
    knots.reserve(g + 2);
    knots.push_back(-dv);
    knots.push_back(-0.5 * dv);
    for (double v : linspace(0.0, vdd, g - 2)) knots.push_back(v);
    knots.push_back(vdd + 0.5 * dv);
    knots.push_back(vdd + dv);
    return knots;
}

// Odometer increment over `sizes`; returns false on wrap-around.
bool next_index(std::vector<std::size_t>& idx,
                const std::vector<std::size_t>& sizes) {
    std::size_t d = idx.size();
    while (d-- > 0) {
        if (++idx[d] < sizes[d]) return true;
        idx[d] = 0;
        if (d == 0) return false;
    }
    return false;
}

// One cap table of the model-linearization shortcut. At a grid point the
// table sums every DUT MOSFET pair capacitance (cgs, cgd, cgb, cdb, csb)
// that joins node a to node b or, when b < 0, joins a to any node other
// than a itself and the nodes in `skip`.
struct CapRule {
    lut::NdTable* table;
    int a;
    int b;
    std::vector<int> skip;

    bool feeds(int u, int v) const {
        if (u != a) {
            if (v != a) return false;
            std::swap(u, v);
        }
        // u is a; v is the pair's other node.
        if (b >= 0) return v == b;
        return v != a && std::find(skip.begin(), skip.end(), v) == skip.end();
    }

    // The table's value from the caps `fx` holds for its current point,
    // summed from 0.0 device by device in MosCaps member order.
    double sum(const Fixture& fx) const {
        double total = 0.0;
        for (std::size_t k = 0; k < fx.dut_mosfets.size(); ++k) {
            const Mosfet& m = *fx.dut_mosfets[k];
            const spice::MosCaps& c = fx.caps[k];
            if (feeds(m.gate(), m.source())) total += c.cgs;
            if (feeds(m.gate(), m.drain())) total += c.cgd;
            if (feeds(m.gate(), m.bulk())) total += c.cgb;
            if (feeds(m.drain(), m.bulk())) total += c.cdb;
            if (feeds(m.source(), m.bulk())) total += c.csb;
        }
        return total;
    }
};

// Combines the (dim-1) fixed-axis indices with knot k on the ramped axis.
std::vector<std::size_t> combine_index(const std::vector<std::size_t>& other,
                                       std::size_t ramp_axis, std::size_t k) {
    std::vector<std::size_t> idx(other.size() + 1);
    for (std::size_t d = 0, o = 0; d < idx.size(); ++d)
        idx[d] = (d == ramp_axis) ? k : other[o++];
    return idx;
}

// Paper-faithful capacitance extraction: drive one modeled node with a
// saturated ramp, hold the rest at DC grid values, and attribute
// (measured source current - DC current at the instantaneous bias) / slope
// as capacitance. Averaged over the two ramp durations in `opt`.
//
// The grid combinations are independent (each writes its own table slots
// and every transient starts from its own cold DC solve), so they fan out
// over per-slot fixtures; results are reproducible to solver tolerance
// for any thread count (each slot's LU freezes its pivot order at its
// first combo, so bitwise equality across schedules is not guaranteed).
void extract_caps_transient(CsmModel& model, SlotFixtures& fixtures,
                            const std::vector<double>& knots,
                            const CharOptions& opt) {
    const std::size_t dim = model.dim();
    const std::size_t n_pins = model.pin_count();
    const std::size_t n_int = model.internal_count();
    const std::size_t g = knots.size();
    const double lo = knots.front();
    const double hi = knots.back();
    const double t0 = 30e-12;
    const std::vector<double> ramps{opt.cap_ramp, opt.cap_ramp2};
    const double slope_weight = 1.0 / static_cast<double>(ramps.size());

    // The margin between an interior knot and the nearest ramp corner must
    // exceed a few steps, or the sample would sit on the corner transient.
    for (double ramp_time : ramps) {
        const double rate = (hi - lo) / ramp_time;
        require((knots[1] - lo) / rate > 3.0 * opt.dt,
                "Characterizer: the technology's dv margin is too small "
                "for the cap ramps; reduce dt or lengthen the ramps");
    }

    const std::vector<std::size_t> other_sizes(dim - 1, g);

    // One measurement: axis r ramped, the remaining axes parked at `other`;
    // accumulates both ramp slopes into the (r, other) table slots.
    auto measure_combo = [&](Fixture& cfx, std::size_t r,
                             const std::vector<std::size_t>& other) {
        // Program the non-ramped sources.
        for (std::size_t d = 0, o = 0; d < dim; ++d) {
            if (d == r) continue;
            cfx.circuit.vsource(cfx.sources[d])
                .set_spec(SourceSpec::dc(knots[other[o]]));
            ++o;
        }
        for (double ramp_time : ramps) {
            const double rate = (hi - lo) / ramp_time;
            cfx.circuit.vsource(cfx.sources[r])
                .set_spec(SourceSpec::pwl(
                    wave::saturated_ramp(t0, ramp_time, lo, hi)));
            const spice::TranOptions topt =
                ramp_tran_options(t0 + ramp_time + 20e-12, opt.dt);
            // Per-knot transient span: cold 6-D surface builds spend their
            // time here, so each ramp shows up individually in a trace.
            const obs::Span ramp_span("char.cap_ramp");
            const spice::TranResult res =
                spice::solve_tran(cfx.circuit, topt);
            const wave::Waveform i_out =
                res.vsource_current(cfx.sources.back());

            for (std::size_t k = 1; k + 1 < g; ++k) {
                const double tk = t0 + (knots[k] - lo) / rate;
                const auto idx = combine_index(other, r, k);
                if (r < n_pins) {
                    // Pin ramp: Miller cap from the output-source
                    // current (model KCL: I_out = Io - Cm_r dVr/dt).
                    const double i_meas = -i_out.at(tk);
                    const double i_dc = model.i_out.grid_value(idx);
                    const double cm = -(i_meas - i_dc) / rate;
                    auto& slot = model.c_miller[r];
                    slot.set_grid_value(
                        idx, slot.grid_value(idx) + slope_weight * cm);
                    if (opt.internal_miller) {
                        // Same ramp, measured at the stack-node
                        // sources: pin -> internal Miller caps.
                        for (std::size_t j = 0; j < n_int; ++j) {
                            const wave::Waveform i_n = res.vsource_current(
                                cfx.sources[n_pins + j]);
                            const double in_meas = -i_n.at(tk);
                            const double in_dc =
                                model.i_internal[j].grid_value(idx);
                            const double cmn = -(in_meas - in_dc) / rate;
                            auto& t = model.c_miller_internal[r * n_int + j];
                            t.set_grid_value(
                                idx,
                                t.grid_value(idx) + slope_weight * cmn);
                        }
                    }
                } else if (r < n_pins + n_int) {
                    const std::size_t j = r - n_pins;
                    const wave::Waveform i_n =
                        res.vsource_current(cfx.sources[r]);
                    const double i_meas = -i_n.at(tk);
                    const double i_dc =
                        model.i_internal[j].grid_value(idx);
                    const double cn = (i_meas - i_dc) / rate;
                    auto& slot = model.c_internal[j];
                    slot.set_grid_value(
                        idx, slot.grid_value(idx) + slope_weight * cn);
                } else {
                    // Output ramp: total output capacitance
                    // (Co + sum Cm); the Miller parts are subtracted
                    // after the sweep.
                    const double i_meas = -i_out.at(tk);
                    const double i_dc = model.i_out.grid_value(idx);
                    const double ct = (i_meas - i_dc) / rate;
                    model.c_out.set_grid_value(
                        idx,
                        model.c_out.grid_value(idx) + slope_weight * ct);
                }
            }
        }
    };

    for (std::size_t r = 0; r < dim; ++r) {
        std::vector<std::vector<std::size_t>> combos;
        std::vector<std::size_t> other(dim - 1, 0);
        do {
            combos.push_back(other);
        } while (next_index(other, other_sizes));

        parallel_for(
            combos.size(),
            [&](std::size_t i, std::size_t slot) {
                measure_combo(fixtures[slot], r, combos[i]);
            },
            opt.threads);

        // Edge knots of the ramped axis: copy the nearest interior value.
        auto fill_edges = [&](lut::NdTable& t) {
            std::vector<std::size_t> o2(dim - 1, 0);
            do {
                const auto i0 = combine_index(o2, r, 0);
                const auto i1 = combine_index(o2, r, 1);
                t.set_grid_value(i0, t.grid_value(i1));
                const auto ie = combine_index(o2, r, g - 1);
                const auto ei = combine_index(o2, r, g - 2);
                t.set_grid_value(ie, t.grid_value(ei));
            } while (next_index(o2, other_sizes));
        };
        if (r < n_pins) {
            fill_edges(model.c_miller[r]);
            if (opt.internal_miller)
                for (std::size_t j = 0; j < n_int; ++j)
                    fill_edges(model.c_miller_internal[r * n_int + j]);
        } else if (r < n_pins + n_int) {
            fill_edges(model.c_internal[r - n_pins]);
        } else {
            fill_edges(model.c_out);
        }
    }

    // c_out currently holds Co + sum(Cm); subtract the Miller tables.
    model.c_out.for_each_grid_point(
        [&](std::span<const std::size_t> idx, std::span<const double>,
            double& v) {
            for (const auto& cm : model.c_miller) v -= cm.grid_value(idx);
        });
    // Likewise CN currently holds everything incident to the stack node;
    // when the pin couplings are modeled separately, take them back out.
    if (opt.internal_miller) {
        for (std::size_t j = 0; j < n_int; ++j) {
            model.c_internal[j].for_each_grid_point(
                [&](std::span<const std::size_t> idx, std::span<const double>,
                    double& v) {
                    for (std::size_t p = 0; p < n_pins; ++p)
                        v -= model.c_miller_internal[p * n_int + j].grid_value(
                            idx);
                });
        }
    }
}

// 1-D receiver input capacitance per switching pin (paper eq. (3)), into
// the model's c_in tables: ramp the pin with the output tied to a DC rail
// and the internal nodes free, then average over both rails and both
// slopes.
void extract_input_caps(CsmModel& model, const cells::CellLibrary& lib,
                        const CellType& cell,
                        const std::vector<std::string>& switching_pins,
                        const CharOptions& opt) {
    const double vdd = lib.tech().vdd;
    const double t0 = 30e-12;
    const std::vector<double> ramps{opt.cap_ramp, opt.cap_ramp2};
    const std::vector<double> out_levels{0.0, vdd};
    const double weight =
        1.0 / static_cast<double>(ramps.size() * out_levels.size());

    // Pins are independent (each runs its own fixture and writes only its
    // own table).
    parallel_for(switching_pins.size(), [&](std::size_t p) {
        lut::NdTable& table = model.c_in[p];
        const std::vector<double>& knots = table.axis(0).knots();
        const double lo = knots.front();
        const double hi = knots.back();

        Fixture fx = build_fixture(lib, cell, switching_pins,
                                   /*force_internals=*/false);
        // Park the other switching pins at their non-controlling levels.
        for (std::size_t q = 0; q < switching_pins.size(); ++q) {
            if (q == p) continue;
            fx.circuit.vsource(fx.sources[q])
                .set_spec(SourceSpec::dc(
                    cell.input(switching_pins[q]).non_controlling));
        }

        for (double out_level : out_levels) {
            fx.circuit.vsource(fx.sources.back())
                .set_spec(SourceSpec::dc(out_level));
            for (double ramp_time : ramps) {
                const double rate = (hi - lo) / ramp_time;
                fx.circuit.vsource(fx.sources[p])
                    .set_spec(SourceSpec::pwl(
                        wave::saturated_ramp(t0, ramp_time, lo, hi)));
                const spice::TranOptions topt =
                    ramp_tran_options(t0 + ramp_time + 20e-12, opt.dt);
                const obs::Span ramp_span("char.cin_ramp");
                const spice::TranResult res =
                    spice::solve_tran(fx.circuit, topt);
                const wave::Waveform i_pin =
                    res.vsource_current(fx.sources[p]);
                for (std::size_t k = 1; k + 1 < knots.size(); ++k) {
                    const double tk = t0 + (knots[k] - lo) / rate;
                    // Gate current is purely capacitive (DC part is zero).
                    const double c = -i_pin.at(tk) / rate;
                    const std::size_t idx[1] = {k};
                    table.set_grid_value(
                        std::span<const std::size_t>(idx, 1),
                        table.grid_value(std::span<const std::size_t>(idx, 1)) +
                            weight * c);
                }
            }
        }
        // Edge knots copy the nearest interior.
        const std::size_t g = knots.size();
        const std::size_t i0[1] = {0};
        const std::size_t i1[1] = {1};
        const std::size_t ie[1] = {g - 1};
        const std::size_t ei[1] = {g - 2};
        table.set_grid_value(std::span<const std::size_t>(i0, 1),
                             table.grid_value(std::span<const std::size_t>(i1, 1)));
        table.set_grid_value(std::span<const std::size_t>(ie, 1),
                             table.grid_value(std::span<const std::size_t>(ei, 1)));
    }, opt.threads);
}

}  // namespace

Characterizer::Characterizer(const cells::CellLibrary& lib) : lib_(&lib) {}

CsmModel Characterizer::characterize(
    const std::string& cell_name, ModelKind kind,
    const std::vector<std::string>& switching_pins,
    const CharOptions& options) const {
    const obs::Span span("char.characterize", cell_name);
    obs::counter("char.characterizations").add();
    const CellType& cell = lib_->get(cell_name);
    const double vdd = lib_->tech().vdd;
    const double dv = lib_->tech().dv_margin;

    require(!switching_pins.empty(), "characterize: no switching pins");
    if (kind == ModelKind::kSis)
        require(switching_pins.size() == 1, "SIS model takes one pin");
    for (const std::string& p : switching_pins)
        cell.input(p);  // validates the name

    const bool model_internals = (kind == ModelKind::kMcsm);

    CsmModel model;
    model.kind = kind;
    model.cell_name = cell_name;
    model.vdd = vdd;
    model.dv_margin = dv;
    model.temp_c = lib_->tech().temp_c;
    model.pins = switching_pins;
    for (const cells::PinInfo& pin : cell.inputs()) {
        if (std::find(switching_pins.begin(), switching_pins.end(),
                      pin.name) == switching_pins.end()) {
            model.fixed_pins.push_back(pin.name);
            model.fixed_values.push_back(pin.non_controlling);
        }
    }
    if (model_internals) model.internals = cell.internal_nodes();

    // --- axes --------------------------------------------------------------
    const std::vector<double> knots = make_knots(vdd, dv, options.grid_points);
    std::vector<lut::Axis> axes;
    for (const std::string& p : model.pins) axes.emplace_back(p, knots);
    for (const std::string& n : model.internals) axes.emplace_back(n, knots);
    axes.emplace_back("OUT", knots);
    const std::size_t dim = axes.size();

    Fixture fx = build_fixture(*lib_, cell, switching_pins, model_internals);
    SlotFixtures fixtures{
        fx,
        [&] {
            return build_fixture(*lib_, cell, switching_pins,
                                 model_internals);
        },
        std::vector<std::optional<Fixture>>(parallel_slots(options.threads))};

    // --- tables: the model's table list, zero-filled ----------------------
    // Cin tables are 1-D over their pin on `cin_points` knots; every other
    // table spans the grid axes.
    const std::vector<double> cin_knots =
        make_knots(vdd, dv, options.cin_points);
    const std::vector<TableRole> roles = model.roles();
    const std::vector<lut::NdTable*> tables = model.reset_tables();
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const TableRole& r = roles[i];
        *tables[i] = r.kind == TableRole::Kind::kInputCap
                         ? lut::NdTable({lut::Axis(model.pins[r.a], cin_knots)},
                                        model.table_name(r))
                         : lut::NdTable(axes, model.table_name(r));
    }

    const std::size_t g_knots = knots.size();

    // Cap rules of the model-linearization shortcut. Node ids come from
    // the main fixture; every slot fixture of the cell numbers them alike.
    // Pin->internal Millers get rules only with internal_miller (else their
    // tables stay zero); a grounded cap skips the nodes its node has a
    // coupling rule with, so Co skips the pins and CN skips them only with
    // internal_miller (else it absorbs all the stack node's caps, as in the
    // paper).
    std::vector<CapRule> cap_rules;
    if (!options.transient_caps) {
        // Ground maps to b < 0: "any node but a and skip" (see CapRule).
        const auto node = [&](std::size_t d) {
            return d == TableRole::kGround ? -1 : fx.nodes[d];
        };
        const auto coupling = [&](const TableRole& r) {
            return r.kind == TableRole::Kind::kCap &&
                   r.b != TableRole::kGround &&
                   (r.b == model.out_axis() || options.internal_miller);
        };
        for (std::size_t i = 0; i < tables.size(); ++i) {
            const TableRole& r = roles[i];
            if (!coupling(r) && !r.grounded()) continue;
            CapRule rule{tables[i], node(r.a), node(r.b), {}};
            for (const TableRole& c : roles)
                if (r.grounded() && coupling(c) && c.b == r.a)
                    rule.skip.push_back(node(c.a));
            cap_rules.push_back(std::move(rule));
        }
    }

    // Records one solved grid point (x: DcResult layout) into the tables.
    auto record_point = [&](Fixture& bfx, const std::vector<std::size_t>& idx,
                            const std::vector<double>& x) {
        const std::size_t nn =
            static_cast<std::size_t>(bfx.circuit.node_count());
        // Current INTO the cell = -(branch current of the forcing source).
        for (std::size_t i = 0; i < tables.size(); ++i) {
            if (roles[i].kind != TableRole::Kind::kCurrent) continue;
            const auto branch =
                static_cast<std::size_t>(bfx.branches[roles[i].a]);
            tables[i]->set_grid_value(idx, -x[nn + branch]);
        }

        // Model-linearization shortcut: each DUT MOSFET's caps at this bias,
        // evaluated once, feed every cap table.
        if (options.transient_caps) return;
        const auto v = [&](int node) {
            return x[static_cast<std::size_t>(node)];
        };
        for (std::size_t k = 0; k < bfx.dut_mosfets.size(); ++k) {
            const Mosfet& m = *bfx.dut_mosfets[k];
            bfx.caps[k] = m.evaluate_caps(v(m.drain()), v(m.gate()),
                                          v(m.source()), v(m.bulk()));
        }
        for (const CapRule& rule : cap_rules)
            rule.table->set_grid_value(idx, rule.sum(bfx));
    };

    // One slice: every grid point with first-axis knot i0, next_index
    // odometer over the remaining axes, solved as blocked bias sweeps
    // (solve_dc_sweep shares one Jacobian factorization per Newton round
    // across a block and updates it with one multi-RHS substitution). Grid
    // writes are disjoint across slices and each slice starts from its own
    // cold warm-start chain with a fresh pivot order, so the tables come
    // out bitwise identical for any worker count or claim order.
    auto sweep_slice = [&](Fixture& bfx, std::size_t i0) {
        const obs::Span slice_span("char.dc_slice");
        std::vector<spice::VSource*> swept;
        swept.reserve(dim);
        for (const std::string& src : bfx.sources)
            swept.push_back(&bfx.circuit.vsource(src));

        // Bounded chunks keep the value/index staging small on the 5-axis
        // slices of 3-pin MCSM models; the chunk size is fixed so chunk
        // boundaries (and results) never depend on scheduling.
        constexpr std::size_t kChunk = 4096;
        std::vector<std::size_t> rest(dim - 1, 0);
        const std::vector<std::size_t> rest_sizes(dim - 1, g_knots);
        std::vector<double> vals;
        std::vector<std::vector<std::size_t>> idxs;
        std::vector<double> warm;
        bool more = true;
        while (more) {
            vals.clear();
            idxs.clear();
            while (idxs.size() < kChunk) {
                std::vector<std::size_t> idx(dim);
                idx[0] = i0;
                std::copy(rest.begin(), rest.end(), idx.begin() + 1);
                for (std::size_t d = 0; d < dim; ++d)
                    vals.push_back(knots[idx[d]]);
                idxs.push_back(std::move(idx));
                if (!next_index(rest, rest_sizes)) {
                    more = false;
                    break;
                }
            }
            spice::solve_dc_sweep(
                bfx.circuit, swept, vals, idxs.size(), {},
                warm.empty() ? nullptr : &warm,
                [&](std::size_t p, const std::vector<double>& x) {
                    record_point(bfx, idxs[p], x);
                    warm = x;
                });
        }
    };

    parallel_for(
        g_knots,
        [&](std::size_t i0, std::size_t slot) {
            sweep_slice(fixtures[slot], i0);
        },
        options.threads);

    // --- capacitances: transient ramp extraction -----------------------------
    if (options.transient_caps) {
        extract_caps_transient(model, fixtures, knots, options);
    }

    // --- input (receiver) capacitances ---------------------------------------
    extract_input_caps(model, *lib_, cell, switching_pins, options);

    // Numerical floors keep capacitances physical: a cap to ground floors
    // at 1e-18 F, a coupling or input cap at zero.
    for (std::size_t i = 0; i < tables.size(); ++i) {
        if (roles[i].kind == TableRole::Kind::kCurrent) continue;
        const double lo = roles[i].grounded() ? 1e-18 : 0.0;
        tables[i]->for_each_grid_point([&](std::span<const std::size_t>,
                                           std::span<const double>,
                                           double& v) {
            if (v < lo) v = lo;
        });
    }

    model.check_consistent();
    return model;
}

}  // namespace mcsm::core
