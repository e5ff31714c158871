#include "core/characterizer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
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
using spice::DcOptions;
using spice::Mosfet;
using spice::SourceSpec;

// Characterization testbench: the cell with forcing voltage sources on
// every modeled node (switching pins, OUT, and - for MCSM - the internal
// stack nodes). Fixed pins sit at their non-controlling levels.
struct Fixture {
    Circuit circuit;
    std::vector<int> pin_nodes;
    std::vector<std::string> pin_sources;
    std::vector<int> internal_nodes;
    std::vector<std::string> internal_sources;
    int out_node = -1;
    std::string out_source = "VOUT";
    std::vector<const Mosfet*> dut_mosfets;

    // Node id of the forcing source for table axis d.
    const std::string& source_of_axis(std::size_t d,
                                      std::size_t n_pins) const {
        if (d < n_pins) return pin_sources[d];
        if (d < n_pins + internal_sources.size())
            return internal_sources[d - n_pins];
        return out_source;
    }
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

Fixture build_fixture(const cells::CellLibrary& lib, const CellType& cell,
                      const std::vector<std::string>& switching_pins,
                      bool force_internals, bool force_out, double out_level) {
    Fixture f;
    const double vdd = lib.tech().vdd;
    const int vdd_node = f.circuit.node("vdd");
    f.circuit.add_vsource("VDD", vdd_node, Circuit::kGround,
                          SourceSpec::dc(vdd));

    std::unordered_map<std::string, int> conn;
    conn[cells::kVdd] = vdd_node;
    conn[cells::kGnd] = Circuit::kGround;
    f.out_node = f.circuit.node("out");
    conn[cells::kOut] = f.out_node;

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
        if (switching) {
            // keep pin order as given in switching_pins
        }
    }
    // Record switching pins in the requested order.
    for (const std::string& p : switching_pins) {
        f.pin_nodes.push_back(conn.at(p));
        f.pin_sources.push_back("VP_" + p);
    }

    if (force_internals) {
        for (const std::string& formal : cell.internal_nodes()) {
            const int n = f.circuit.node("int_" + formal);
            conn[formal] = n;
            const std::string src = "VN_" + formal;
            f.circuit.add_vsource(src, n, Circuit::kGround, SourceSpec::dc(0.0));
            f.internal_nodes.push_back(n);
            f.internal_sources.push_back(src);
        }
    }

    if (force_out) {
        f.circuit.add_vsource(f.out_source, f.out_node, Circuit::kGround,
                              SourceSpec::dc(out_level));
    }

    const cells::CellInstance inst = cell.instantiate(f.circuit, "DUT", conn);
    (void)inst;
    for (const auto& dev : f.circuit.devices()) {
        if (const auto* m = dynamic_cast<const Mosfet*>(dev.get()))
            f.dut_mosfets.push_back(m);
    }
    f.circuit.prepare();
    return f;
}

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

// Sums the small-signal MOSFET capacitance between two circuit nodes at the
// bias in `x` (node voltages indexed by node id).
double pair_cap(const std::vector<const Mosfet*>& mosfets,
                const std::vector<double>& x, int a, int b) {
    double total = 0.0;
    for (const Mosfet* m : mosfets) {
        const spice::MosCaps c = m->evaluate_caps(
            x[static_cast<std::size_t>(m->drain())],
            x[static_cast<std::size_t>(m->gate())],
            x[static_cast<std::size_t>(m->source())],
            x[static_cast<std::size_t>(m->bulk())]);
        const struct {
            int u, v;
            double cap;
        } pairs[5] = {{m->gate(), m->source(), c.cgs},
                      {m->gate(), m->drain(), c.cgd},
                      {m->gate(), m->bulk(), c.cgb},
                      {m->drain(), m->bulk(), c.cdb},
                      {m->source(), m->bulk(), c.csb}};
        for (const auto& p : pairs) {
            if ((p.u == a && p.v == b) || (p.u == b && p.v == a))
                total += p.cap;
        }
    }
    return total;
}

// Sums all MOSFET capacitance incident to node `a`, excluding couplings to
// nodes in `excluded`.
double incident_cap(const std::vector<const Mosfet*>& mosfets,
                    const std::vector<double>& x, int a,
                    const std::vector<int>& excluded) {
    double total = 0.0;
    for (const Mosfet* m : mosfets) {
        const spice::MosCaps c = m->evaluate_caps(
            x[static_cast<std::size_t>(m->drain())],
            x[static_cast<std::size_t>(m->gate())],
            x[static_cast<std::size_t>(m->source())],
            x[static_cast<std::size_t>(m->bulk())]);
        const struct {
            int u, v;
            double cap;
        } pairs[5] = {{m->gate(), m->source(), c.cgs},
                      {m->gate(), m->drain(), c.cgd},
                      {m->gate(), m->bulk(), c.cgb},
                      {m->drain(), m->bulk(), c.cdb},
                      {m->source(), m->bulk(), c.csb}};
        for (const auto& p : pairs) {
            int other = -1;
            if (p.u == a) other = p.v;
            else if (p.v == a) other = p.u;
            else continue;
            if (other == a) continue;  // no self terms
            if (std::find(excluded.begin(), excluded.end(), other) !=
                excluded.end())
                continue;
            total += p.cap;
        }
    }
    return total;
}

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
// over per-worker fixtures; results are reproducible to solver tolerance
// for any thread count (each worker's LU freezes its pivot order at its
// first combo, so bitwise equality across schedules is not guaranteed).
void extract_caps_transient(CsmModel& model, const cells::CellLibrary& lib,
                            const CellType& cell,
                            const std::vector<std::string>& switching_pins,
                            bool force_internals, Fixture& fx,
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
                "Characterizer: dv margin too small for cap ramps; "
                "reduce dt or increase dv");
    }

    const std::vector<std::size_t> other_sizes(dim - 1, g);

    // One measurement: axis r ramped, the remaining axes parked at `other`;
    // accumulates both ramp slopes into the (r, other) table slots.
    auto measure_combo = [&](Fixture& cfx, std::size_t r,
                             const std::vector<std::size_t>& other) {
        // Program the non-ramped sources.
        for (std::size_t d = 0, o = 0; d < dim; ++d) {
            if (d == r) continue;
            cfx.circuit.vsource(cfx.source_of_axis(d, n_pins))
                .set_spec(SourceSpec::dc(knots[other[o]]));
            ++o;
        }
        for (double ramp_time : ramps) {
            const double rate = (hi - lo) / ramp_time;
            cfx.circuit.vsource(cfx.source_of_axis(r, n_pins))
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
                res.vsource_current(cfx.out_source);

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
                                cfx.internal_sources[j]);
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
                        res.vsource_current(cfx.internal_sources[j]);
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

    // Inside a pool worker the fan-out would run inline anyway; take the
    // sequential path directly so no per-worker fixtures are built just to
    // find the work cursor drained. Worker fixtures are lazily built once
    // and reused across all ramped axes (fixture construction repeats the
    // pattern analysis and pivot search).
    const std::size_t max_workers =
        ThreadPool::on_worker_thread() ? 1 : resolve_threads(opt.threads);
    std::vector<std::optional<Fixture>> worker_fx(max_workers);

    for (std::size_t r = 0; r < dim; ++r) {
        std::vector<std::vector<std::size_t>> combos;
        std::vector<std::size_t> other(dim - 1, 0);
        do {
            combos.push_back(other);
        } while (next_index(other, other_sizes));

        const std::size_t n_workers = std::min(max_workers, combos.size());
        if (n_workers <= 1) {
            for (const auto& c : combos) measure_combo(fx, r, c);
        } else {
            std::atomic<std::size_t> next{0};
            parallel_workers(n_workers, [&](std::size_t w) {
                // Claim work before paying for a fixture: a worker queued
                // behind a drained cursor exits for free.
                std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                if (i >= combos.size()) return;
                if (!worker_fx[w]) {
                    worker_fx[w].emplace(
                        build_fixture(lib, cell, switching_pins,
                                      force_internals,
                                      /*force_out=*/true, 0.0));
                }
                Fixture& wfx = *worker_fx[w];
                for (; i < combos.size();
                     i = next.fetch_add(1, std::memory_order_relaxed))
                    measure_combo(wfx, r, combos[i]);
            });
        }

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

// 1-D receiver input capacitance per switching pin (paper eq. (3)): ramp the
// pin with the output tied to a DC rail and the internal nodes free, then
// average over both rails and both slopes.
void extract_input_caps(CsmModel& model, const cells::CellLibrary& lib,
                        const CellType& cell,
                        const std::vector<std::string>& switching_pins,
                        const CharOptions& opt) {
    const double vdd = lib.tech().vdd;
    const double dv = model.dv_margin;
    const std::vector<double> knots = make_knots(vdd, dv, opt.cin_points);
    const double lo = knots.front();
    const double hi = knots.back();
    const double t0 = 30e-12;
    const std::vector<double> ramps{opt.cap_ramp, opt.cap_ramp2};
    const std::vector<double> out_levels{0.0, vdd};
    const double weight =
        1.0 / static_cast<double>(ramps.size() * out_levels.size());

    // Pins are independent (each runs its own fixture and writes only its
    // own table); fan them out and append in pin order afterwards.
    std::vector<lut::NdTable> tables(switching_pins.size());
    parallel_for(switching_pins.size(), [&](std::size_t p) {
        lut::NdTable table({lut::Axis(switching_pins[p], knots)},
                           "Cin_" + switching_pins[p]);

        Fixture fx = build_fixture(lib, cell, switching_pins,
                                   /*force_internals=*/false,
                                   /*force_out=*/true, 0.0);
        // Park the other switching pins at their non-controlling levels.
        for (std::size_t q = 0; q < switching_pins.size(); ++q) {
            if (q == p) continue;
            fx.circuit.vsource(fx.pin_sources[q])
                .set_spec(SourceSpec::dc(
                    cell.input(switching_pins[q]).non_controlling));
        }
        const int pin_branch = fx.circuit.branch_of(fx.pin_sources[p]);
        (void)pin_branch;

        for (double out_level : out_levels) {
            fx.circuit.vsource(fx.out_source)
                .set_spec(SourceSpec::dc(out_level));
            for (double ramp_time : ramps) {
                const double rate = (hi - lo) / ramp_time;
                fx.circuit.vsource(fx.pin_sources[p])
                    .set_spec(SourceSpec::pwl(
                        wave::saturated_ramp(t0, ramp_time, lo, hi)));
                const spice::TranOptions topt =
                    ramp_tran_options(t0 + ramp_time + 20e-12, opt.dt);
                const obs::Span ramp_span("char.cin_ramp");
                const spice::TranResult res =
                    spice::solve_tran(fx.circuit, topt);
                const wave::Waveform i_pin =
                    res.vsource_current(fx.pin_sources[p]);
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
        // Edge knots copy the nearest interior; floor at zero.
        const std::size_t g = knots.size();
        const std::size_t i0[1] = {0};
        const std::size_t i1[1] = {1};
        const std::size_t ie[1] = {g - 1};
        const std::size_t ei[1] = {g - 2};
        table.set_grid_value(std::span<const std::size_t>(i0, 1),
                             table.grid_value(std::span<const std::size_t>(i1, 1)));
        table.set_grid_value(std::span<const std::size_t>(ie, 1),
                             table.grid_value(std::span<const std::size_t>(ei, 1)));
        table.for_each_grid_point([](std::span<const std::size_t>,
                                     std::span<const double>, double& v) {
            if (v < 0.0) v = 0.0;
        });
        tables[p] = std::move(table);
    }, opt.threads);
    for (lut::NdTable& t : tables) model.c_in.push_back(std::move(t));
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
    const double dv = options.dv > 0.0 ? options.dv : lib_->tech().dv_margin;

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
    const std::size_t n_pins = model.pins.size();
    const std::size_t n_int = model.internals.size();

    Fixture fx = build_fixture(*lib_, cell, switching_pins, model_internals,
                               /*force_out=*/true, 0.0);

    // --- current sources: DC sweep ------------------------------------------
    model.i_out = lut::NdTable(axes, "Io");
    for (const std::string& n : model.internals)
        model.i_internal.emplace_back(axes, "I_" + n);
    for (const std::string& p : model.pins)
        model.c_miller.emplace_back(axes, "Cm_" + p);
    model.c_out = lut::NdTable(axes, "Co");
    for (const std::string& n : model.internals)
        model.c_internal.emplace_back(axes, "C_" + n);
    for (const std::string& p : model.pins)
        for (const std::string& n : model.internals)
            model.c_miller_internal.emplace_back(axes, "Cm_" + p + "_" + n);

    const std::vector<std::size_t> sizes(dim, knots.size());
    const std::size_t g_knots = knots.size();
    DcOptions dc_opt;

    // Per-worker sweep bench: a private testbench fixture with its own
    // solver workspace.
    struct SweepBench {
        Fixture* fx;
        int out_branch = -1;
        std::vector<int> int_branches;
    };
    auto make_bench = [&](Fixture* f) {
        SweepBench b;
        b.fx = f;
        b.out_branch = f->circuit.branch_of(f->out_source);
        for (const std::string& s : f->internal_sources)
            b.int_branches.push_back(f->circuit.branch_of(s));
        return b;
    };

    // Records one solved grid point (x: DcResult layout) into the tables.
    auto record_point = [&](SweepBench& b, const std::vector<std::size_t>& idx,
                            const std::vector<double>& x) {
        Fixture& bfx = *b.fx;
        const std::size_t nn =
            static_cast<std::size_t>(bfx.circuit.node_count());
        // Current INTO the cell = -(branch current of the forcing source).
        model.i_out.set_grid_value(
            idx, -x[nn + static_cast<std::size_t>(b.out_branch)]);
        for (std::size_t j = 0; j < n_int; ++j)
            model.i_internal[j].set_grid_value(
                idx, -x[nn + static_cast<std::size_t>(b.int_branches[j])]);

        if (!options.transient_caps) {
            // Model-linearization shortcut: sum device caps at this bias.
            for (std::size_t p = 0; p < n_pins; ++p)
                model.c_miller[p].set_grid_value(
                    idx, pair_cap(bfx.dut_mosfets, x, bfx.pin_nodes[p],
                                  bfx.out_node));
            model.c_out.set_grid_value(
                idx, incident_cap(bfx.dut_mosfets, x, bfx.out_node,
                                  bfx.pin_nodes));
            // When pin->internal Millers are modeled, CN excludes the pin
            // couplings (they get their own tables); otherwise CN absorbs
            // everything incident to the stack node (the paper's choice).
            const std::vector<int> excluded =
                options.internal_miller ? bfx.pin_nodes : std::vector<int>{};
            for (std::size_t j = 0; j < n_int; ++j)
                model.c_internal[j].set_grid_value(
                    idx, incident_cap(bfx.dut_mosfets, x,
                                      bfx.internal_nodes[j], excluded));
            if (options.internal_miller) {
                for (std::size_t p = 0; p < n_pins; ++p)
                    for (std::size_t j = 0; j < n_int; ++j)
                        model.c_miller_internal[p * n_int + j].set_grid_value(
                            idx, pair_cap(bfx.dut_mosfets, x,
                                          bfx.pin_nodes[p],
                                          bfx.internal_nodes[j]));
            }
        }
    };

    // One slice: every grid point with first-axis knot i0, next_index
    // odometer over the remaining axes, solved as blocked bias sweeps
    // (solve_dc_sweep shares one Jacobian factorization per Newton round
    // across a block and updates it with one multi-RHS substitution). Grid
    // writes are disjoint across slices and each slice starts from its own
    // cold warm-start chain with a fresh pivot order, so the tables come
    // out bitwise identical for any worker count or claim order.
    auto sweep_slice = [&](SweepBench& b, std::size_t i0) {
        const obs::Span slice_span("char.dc_slice");
        Fixture& bfx = *b.fx;
        std::vector<spice::VSource*> swept;
        swept.reserve(dim);
        for (std::size_t p = 0; p < n_pins; ++p)
            swept.push_back(&bfx.circuit.vsource(bfx.pin_sources[p]));
        for (std::size_t j = 0; j < n_int; ++j)
            swept.push_back(&bfx.circuit.vsource(bfx.internal_sources[j]));
        swept.push_back(&bfx.circuit.vsource(bfx.out_source));

        spice::DcSweepOptions sopt;
        sopt.dc = dc_opt;

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
                bfx.circuit, swept, vals, idxs.size(), sopt,
                warm.empty() ? nullptr : &warm,
                [&](std::size_t p, const std::vector<double>& x) {
                    record_point(b, idxs[p], x);
                    warm = x;
                });
        }
    };

    // As in extract_caps_transient: run inline without spare fixtures when
    // this characterize() is itself a pool-worker job.
    const std::size_t sweep_workers =
        ThreadPool::on_worker_thread()
            ? 1
            : std::min(resolve_threads(options.threads), g_knots);
    if (sweep_workers <= 1) {
        SweepBench bench = make_bench(&fx);
        for (std::size_t i0 = 0; i0 < g_knots; ++i0) sweep_slice(bench, i0);
    } else {
        std::atomic<std::size_t> next{0};
        parallel_workers(sweep_workers, [&](std::size_t) {
            // Claim a slice before paying for a fixture (see the cap
            // extraction fan-out).
            std::size_t i0 = next.fetch_add(1, std::memory_order_relaxed);
            if (i0 >= g_knots) return;
            Fixture wfx = build_fixture(*lib_, cell, switching_pins,
                                        model_internals,
                                        /*force_out=*/true, 0.0);
            SweepBench bench = make_bench(&wfx);
            for (; i0 < g_knots;
                 i0 = next.fetch_add(1, std::memory_order_relaxed))
                sweep_slice(bench, i0);
        });
    }

    // --- capacitances: transient ramp extraction -----------------------------
    if (options.transient_caps) {
        extract_caps_transient(model, *lib_, cell, switching_pins,
                               model_internals, fx, knots, options);
    }

    // Numerical floors: keep capacitances physical.
    auto clamp_table = [](lut::NdTable& t, double lo) {
        t.for_each_grid_point([&](std::span<const std::size_t>,
                                  std::span<const double>, double& v) {
            if (v < lo) v = lo;
        });
    };
    for (auto& t : model.c_miller) clamp_table(t, 0.0);
    clamp_table(model.c_out, 1e-18);
    for (auto& t : model.c_internal) clamp_table(t, 1e-18);
    for (auto& t : model.c_miller_internal) clamp_table(t, 0.0);

    // --- input (receiver) capacitances ---------------------------------------
    extract_input_caps(model, *lib_, cell, switching_pins, options);

    model.check_consistent();
    return model;
}

}  // namespace mcsm::core
