#include "layers.h"

#include <algorithm>
#include <random>
#include <unordered_map>

#include "cells/cell_type.h"
#include "common/numeric.h"
#include "core/characterizer.h"
#include "core/model_scenarios.h"
#include "engine/scenarios.h"
#include "net/query_text.h"
#include "obs/metrics.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "wave/edges.h"

namespace servebench {

using mcsm::serve::TimingQuery;
using mcsm::serve::TimingResult;

namespace {

constexpr double kFf = 1e-15;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Keeps timed pure calls from being optimized away.
volatile double g_sink = 0.0;

mcsm::serve::ModelKey nominal_key(const std::string& cell,
                                  std::vector<std::string> pins) {
    return mcsm::serve::ModelKey::arc(cell, std::move(pins));
}

// The NOR2 MIS scenario the core and spice probes share: both inputs fall
// 80 ps ramps, B 20 ps after A, into 5 fF.
struct MisScenario {
    std::unordered_map<std::string, mcsm::wave::Waveform> inputs;
    double load = 5 * kFf;
    mcsm::spice::TranOptions tran;

    explicit MisScenario(double vdd) {
        inputs["A"] = mcsm::wave::saturated_ramp(100e-12, 80e-12, vdd, 0.0);
        inputs["B"] = mcsm::wave::saturated_ramp(120e-12, 80e-12, vdd, 0.0);
        tran = mcsm::spice::fast_tran_options(1.5e-9, 4e-12);
    }
};

}  // namespace

ObsPoint ObsPoint::take() {
    ObsPoint p;
    const mcsm::obs::Snapshot snap = mcsm::obs::snapshot();
    for (const auto& c : snap.counters)
        p.counters[c.name] = static_cast<double>(c.value);
    for (const auto& h : snap.histograms)
        p.histograms[h.name] = {static_cast<double>(h.stats.count),
                                h.stats.sum};
    return p;
}

double ObsPoint::delta(const ObsPoint& before, const std::string& name) const {
    const auto a = counters.find(name);
    const auto b = before.counters.find(name);
    return (a == counters.end() ? 0.0 : a->second) -
           (b == before.counters.end() ? 0.0 : b->second);
}

std::pair<double, double> ObsPoint::hist_delta(const ObsPoint& before,
                                               const std::string& name) const {
    const auto a = histograms.find(name);
    if (a == histograms.end()) return {0.0, 0.0};
    const auto b = before.histograms.find(name);
    if (b == before.histograms.end()) return a->second;
    return {a->second.first - b->second.first,
            a->second.second - b->second.second};
}

void probe_net(const std::vector<Line>& lines,
               const std::vector<TimingResult>& answers, Report& out) {
    const auto n = static_cast<double>(lines.size());
    TimingQuery q;
    const double parse_s = seconds_per_call(
        [&] {
            for (const Line& l : lines) mcsm::net::parse_query_line(l.text, q);
        },
        1, 0.2);
    std::string rendered;
    const double render_s = seconds_per_call(
        [&] {
            rendered.clear();
            for (std::size_t i = 0; i < answers.size(); ++i) {
                mcsm::net::append_result_line(rendered, i + 1, answers[i]);
                rendered += '\n';
            }
        },
        1, 0.2);
    out.add("net.parse_ns", 1e9 * parse_s / n, "ns");
    out.add("net.render_ns",
            1e9 * render_s / static_cast<double>(answers.size()), "ns");
}

void probe_serve(Stack& stack, QueryGen& gen, Report& out, Attribution& attr) {
    mcsm::serve::ModelRepository& repo = *stack.served.repo;
    // Serial service over the served pack: per-query costs without the
    // batch fan-out.
    mcsm::serve::TimingService serial(
        repo, serve_options("", stack.served.pack, 1));

    const auto lut_ns = [&](std::size_t pins, bool pi) {
        std::vector<TimingQuery> batch;
        for (int i = 0; i < 2048; ++i) batch.push_back(gen.warm_of(pins, pi));
        serial.run_batch(batch);  // resolve the surfaces once
        return 1e9 * seconds_per_call([&] { serial.run_batch(batch); }, 1,
                                      0.15) /
               static_cast<double>(batch.size());
    };
    out.add("serve.lut_ns.pin1", lut_ns(1, false), "ns");
    out.add("serve.lut_ns.pin2", lut_ns(2, false), "ns");
    out.add("serve.lut_ns.pin3", lut_ns(3, false), "ns");
    out.add("serve.lut_ns.pi", lut_ns(0, true), "ns");

    // Exact queries of the warm mix; the first pass also yields the solver
    // stepping ratios per exact query.
    std::vector<TimingQuery> exact;
    for (std::size_t i = 0; i < 28; ++i) {
        exact.push_back(gen.warm(i));
        exact.back().exact = true;
    }
    const ObsPoint e0 = ObsPoint::take();
    serial.run_batch(exact);
    const ObsPoint e1 = ObsPoint::take();
    const double exact_ms =
        1e3 * seconds_per_call([&] { serial.run_batch(exact); }, 1, 0.4, 3) /
        static_cast<double>(exact.size());
    out.add("serve.exact_ms", exact_ms, "ms");
    const double steps = e1.delta(e0, "solver.tran.steps_accepted");
    out.add("spice.steps_per_query",
            ratio(steps, static_cast<double>(exact.size())), "steps");
    out.add("spice.newton_per_step",
            ratio(e1.delta(e0, "solver.tran.newton_iters"), steps), "iters");
    out.add("spice.jacobian_reuse_rate",
            ratio(e1.delta(e0, "solver.tran.jacobian_reuse_steps"), steps),
            "ratio");
    out.add("spice.lte_reject_rate",
            ratio(e1.delta(e0, "solver.tran.lte_rejections"),
                  steps + e1.delta(e0, "solver.tran.steps_rejected")),
            "ratio");

    // One NOR2 exact query end to end against the core transient it runs:
    // the same model, stimulus, load and stepping as
    // TimingService::eval_transient builds for it.
    TimingQuery nor;
    do {
        nor = gen.warm_of(2, false);
    } while (nor.cell != "NOR2" || nor.corner.vdd > 0.0);
    nor.exact = true;
    const auto model = repo.get(nominal_key(nor.cell, nor.pins));
    const mcsm::serve::ServeOptions sopt = serve_options("", nullptr, 1);
    const auto core_run = [&] {
        const double vdd = model->vdd;
        const double v0 = nor.inputs_rise ? 0.0 : vdd;
        double min_skew = 0.0, max_skew = 0.0, max_slew = 0.0;
        for (std::size_t p = 0; p < nor.pins.size(); ++p) {
            min_skew = std::min(min_skew, nor.skews[p]);
            max_skew = std::max(max_skew, nor.skews[p]);
            max_slew = std::max(max_slew, nor.slews[p]);
        }
        const double t_edge = 100e-12 - min_skew;
        std::unordered_map<std::string, mcsm::wave::Waveform> inputs;
        for (std::size_t p = 0; p < nor.pins.size(); ++p)
            inputs[nor.pins[p]] = mcsm::wave::saturated_ramp(
                t_edge + nor.skews[p], nor.slews[p], v0, vdd - v0);
        mcsm::core::ModelLoadSpec load;
        load.cap = nor.load_cap;
        mcsm::core::ModelCell cell(*model, inputs, load);
        cell.run(mcsm::spice::fast_tran_options(
            t_edge + max_skew + max_slew + sopt.settle, sopt.dt));
    };
    attr.exact_wall_ms =
        1e3 * seconds_per_call([&] { serial.run_one(nor); }, 4, 0.2);
    attr.exact_core_ms = 1e3 * seconds_per_call(core_run, 4, 0.2);

    // Cold work at corners nothing else in the run uses: characterize on a
    // miss (ModelRepository::get), then a surface build on the cached
    // model (run_one on a fresh service without store or pack); for 2-pin
    // arcs also both together, as one cold answer, at another fresh corner.
    std::size_t fresh = 900;
    const auto cold_query = [&](std::size_t pins) {
        TimingQuery q = gen.cold(pins == 3 ? 15 : 0);
        q.corner = gen.fresh_corner(fresh++);
        return q;
    };
    const auto answer_ms = [&](const TimingQuery& q) {
        mcsm::serve::TimingService fresh_service(
            repo, serve_options("", nullptr, kPoolThreads));
        const double t0 = now_s();
        const TimingResult r = fresh_service.run_one(q);
        if (!r.valid) throw std::runtime_error("cold probe: " + r.error);
        return 1e3 * (now_s() - t0);
    };
    // Split samples alternate with whole cold answers (2-pin), so drift
    // hits both sides of the unattributed share alike.
    const auto cold_parts = [&](std::size_t pins, int samples,
                                std::vector<double>* wall_ms) {
        std::vector<double> char_ms, build_ms;
        for (int i = 0; i < samples; ++i) {
            const TimingQuery q = cold_query(pins);
            const double t0 = now_s();
            repo.get(mcsm::serve::ModelKey::arc(q.cell, q.pins, q.corner));
            char_ms.push_back(1e3 * (now_s() - t0));
            build_ms.push_back(answer_ms(q));
            if (wall_ms) wall_ms->push_back(answer_ms(cold_query(pins)));
        }
        return std::pair<double, double>{median(char_ms), median(build_ms)};
    };
    std::vector<double> wall_ms;
    const auto [char2, build2] = cold_parts(2, 7, &wall_ms);
    const auto [char3, build3] = cold_parts(3, 2, nullptr);
    out.add("serve.characterize_ms.pin2", char2, "ms");
    out.add("serve.characterize_ms.pin3", char3, "ms");
    out.add("serve.surface_build_ms.pin2", build2, "ms");
    out.add("serve.surface_build_ms.pin3", build3, "ms");
    attr.cold_wall_ms = median(wall_ms);
    attr.cold_parts_ms = char2 + build2;

    // Store load: a restarted server opening the set-up's pack.
    std::vector<double> load_ms;
    for (int i = 0; i < 3; ++i) {
        const double t0 = now_s();
        const Served reopened = open_served(stack.lib, stack.pack_path);
        load_ms.push_back(1e3 * (now_s() - t0));
    }
    out.add("serve.store_load_ms", median(load_ms), "ms");
}

void probe_kernels(Stack& stack, std::uint64_t seed, Report& out) {
    mcsm::serve::ModelRepository& repo = *stack.served.repo;
    const auto nor = repo.get(nominal_key("NOR2", {"A", "B"}));
    const auto nand3 = repo.get(nominal_key("NAND3", {"A", "B", "C"}));

    // lut: multilinear evaluation on the models' output-current tables.
    std::mt19937_64 gen(seed);
    const auto points = [&](const mcsm::core::CsmModel& m) {
        std::uniform_real_distribution<double> v(-0.1, m.vdd + 0.1);
        std::vector<std::vector<double>> pts(256);
        for (auto& p : pts) {
            p.resize(m.dim());
            for (double& x : p) x = v(gen);
        }
        return pts;
    };
    const auto lut_ns = [&](const mcsm::core::CsmModel& m, bool grad) {
        const auto pts = points(m);
        std::vector<double> g(m.dim());
        double sink = 0.0;
        const double s = seconds_per_call(
            [&] {
                for (const auto& p : pts)
                    sink += grad ? m.i_out.at_with_gradient(p, g)
                                 : m.i_out.at(p);
            },
            1, 0.1);
        g_sink = sink;
        return 1e9 * s / static_cast<double>(pts.size());
    };
    out.add("lut.at_ns.d4", lut_ns(*nor, false), "ns");
    out.add("lut.at_ns.d6", lut_ns(*nand3, false), "ns");
    out.add("lut.at_grad_ns.d4", lut_ns(*nor, true), "ns");
    out.add("lut.at_grad_ns.d6", lut_ns(*nand3, true), "ns");

    // core: the model transient against the transistor-level transient it
    // replaces, on the same MIS scenario.
    const MisScenario mis(nor->vdd);
    std::vector<double> csm_ms, golden_ms;
    const double t_stop = now_s() + 0.6;
    while (csm_ms.size() < 5 || now_s() < t_stop) {
        mcsm::core::ModelLoadSpec load;
        load.cap = mis.load;
        mcsm::core::ModelCell cell(*nor, mis.inputs, load);
        double t0 = now_s();
        cell.run(mis.tran);
        csm_ms.push_back(1e3 * (now_s() - t0));
        mcsm::engine::LoadSpec gload;
        gload.cap = mis.load;
        mcsm::engine::GoldenCell golden(stack.lib, "NOR2", mis.inputs, gload);
        t0 = now_s();
        golden.run(mis.tran);
        golden_ms.push_back(1e3 * (now_s() - t0));
    }
    const double csm = median(csm_ms);
    const double gold = median(golden_ms);
    out.add("core.csm_tran_ms", csm, "ms");
    out.add("core.golden_tran_ms", gold, "ms");
    out.add("core.model_vs_golden", ratio(csm, gold), "ratio");
    const std::vector<std::vector<double>> pins{
        {0.0, 0.0}, {nor->vdd, 0.0}, {0.0, nor->vdd}, {nor->vdd, nor->vdd}};
    std::size_t next_pin = 0;
    out.add("core.dc_state_us",
            1e6 * seconds_per_call(
                      [&] { nor->dc_state(pins[next_pin++ % pins.size()]); },
                      4, 0.1),
            "us");
    const mcsm::core::Characterizer chr(stack.lib);
    const mcsm::core::CharOptions copt =
        repository_options("", nullptr).char_options;
    out.add("core.characterize_ms",
            1e3 * seconds_per_call(
                      [&] {
                          chr.characterize("NOR2", mcsm::core::ModelKind::kMcsm,
                                           {"A", "B"}, copt);
                      },
                      1, 0.2, 3),
            "ms");

    // spice: one assemble / factor / solve on the circuit of the exact
    // query, linearized at the end state of its transient.
    {
        mcsm::core::ModelLoadSpec load;
        load.cap = mis.load;
        mcsm::core::ModelCell cell(*nor, mis.inputs, load);
        const mcsm::spice::TranResult tran = cell.run(mis.tran);
        mcsm::spice::Circuit& c = cell.circuit();
        std::vector<double> x(static_cast<std::size_t>(c.node_count() +
                                                       c.branch_total()),
                              0.0);
        for (int node = 1; node < c.node_count(); ++node)
            x[static_cast<std::size_t>(node)] = tran.final_node_voltage(node);
        const std::vector<double> state(
            static_cast<std::size_t>(c.state_total()), 0.0);
        mcsm::spice::SimContext ctx;
        ctx.mode = mcsm::spice::SimContext::Mode::kTran;
        ctx.time = mis.tran.tstop;
        ctx.dt = mis.tran.dt;
        ctx.x = &x;
        ctx.x_prev = &x;
        ctx.state = &state;
        mcsm::spice::SolverWorkspace& ws = c.workspace();
        out.add("spice.assemble_us",
                1e6 * seconds_per_call([&] { ws.assemble(ctx); }, 64, 0.1),
                "us");
        ws.assemble(ctx).add_gmin_everywhere(mis.tran.gmin);
        out.add("spice.factor_us",
                1e6 * seconds_per_call([&] { ws.factor(); }, 64, 0.1), "us");
        const std::vector<double> rhs(ws.system_size(), 1e-6);
        std::vector<double> sol(ws.system_size());
        out.add("spice.solve_us",
                1e6 * seconds_per_call(
                          [&] { ws.solve_block(rhs.data(), sol.data(), 1); },
                          64, 0.1),
                "us");
    }

    // spice: a blocked DC sweep over the transistor-level NOR2 with every
    // node forced, the characterizer's fixture shape (6 knots per axis).
    {
        const mcsm::cells::CellType& type = stack.lib.get("NOR2");
        mcsm::spice::Circuit c;
        std::unordered_map<std::string, int> conn;
        const int vdd = c.node("vdd");
        c.add_vsource("VDD", vdd, mcsm::spice::Circuit::kGround,
                      mcsm::spice::SourceSpec::dc(nor->vdd));
        conn[mcsm::cells::kVdd] = vdd;
        conn[mcsm::cells::kGnd] = mcsm::spice::Circuit::kGround;
        std::vector<std::string> forced;
        const auto force = [&](const std::string& formal) {
            const int n = c.node("n_" + formal);
            conn[formal] = n;
            c.add_vsource("V_" + formal, n, mcsm::spice::Circuit::kGround,
                          mcsm::spice::SourceSpec::dc(0.0));
            forced.push_back("V_" + formal);
        };
        for (const auto& pin : type.inputs()) force(pin.name);
        for (const auto& internal : type.internal_nodes()) force(internal);
        force(mcsm::cells::kOut);
        type.instantiate(c, "DUT", conn);
        c.prepare();
        std::vector<mcsm::spice::VSource*> swept;
        for (const std::string& name : forced) swept.push_back(&c.vsource(name));
        const std::vector<double> knots =
            mcsm::linspace(-0.1, nor->vdd + 0.1, 6);
        std::vector<double> values;
        std::vector<std::size_t> idx(swept.size(), 0);
        std::size_t n_points = 0;
        for (bool more = true; more; ++n_points) {
            for (std::size_t k : idx) values.push_back(knots[k]);
            std::size_t d = idx.size();
            more = false;
            while (d-- > 0) {
                if (++idx[d] < knots.size()) {
                    more = true;
                    break;
                }
                idx[d] = 0;
            }
        }
        const mcsm::spice::DcSweepOptions sopt;
        out.add("spice.dc_sweep_ms",
                1e3 * seconds_per_call(
                          [&] {
                              mcsm::spice::solve_dc_sweep(
                                  c, swept, values, n_points, sopt, nullptr,
                                  [](std::size_t, const std::vector<double>&) {});
                          },
                          1, 0.2, 3),
                "ms");
    }
}

}  // namespace servebench
