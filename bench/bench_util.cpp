#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <unordered_map>

#include "spice/dc_solver.h"
#include "spice/device_batch.h"
#include "spice/solver_workspace.h"
#include "spice/tran_solver.h"
#include "wave/edges.h"

namespace mcsm::bench {

Context::Context() : tech_(tech::make_tech130()), lib_(tech_), chr_(lib_) {
    const char* faithful = std::getenv("MCSM_FAITHFUL_CAPS");
    faithful_caps_ = (faithful != nullptr && faithful[0] == '1');
    if (const char* grid = std::getenv("MCSM_GRID"))
        grid_override_ = static_cast<std::size_t>(std::atoi(grid));
    if (faithful_caps_)
        std::printf(
            "# characterization: paper-faithful transient capacitance "
            "extraction enabled\n");
}

Context& Context::get() {
    static Context ctx;
    return ctx;
}

core::CharOptions Context::char_options(std::size_t grid_points) const {
    core::CharOptions opt;
    opt.grid_points = grid_override_ ? grid_override_ : grid_points;
    opt.transient_caps = faithful_caps_;
    return opt;
}

const core::CsmModel& Context::inv_sis() {
    if (!inv_sis_) {
        inv_sis_ = chr_.characterize("INV_X1", core::ModelKind::kSis, {"A"},
                                     char_options(13));
    }
    return *inv_sis_;
}

const core::CsmModel& Context::nor_mcsm() {
    if (!nor_mcsm_) {
        // 4-D tables: keep the default grid moderate.
        auto opt = char_options(faithful_caps_ ? 7 : 11);
        nor_mcsm_ =
            chr_.characterize("NOR2", core::ModelKind::kMcsm, {"A", "B"}, opt);
    }
    return *nor_mcsm_;
}

const core::CsmModel& Context::nor_mis_baseline() {
    if (!nor_mis_) {
        auto opt = char_options(faithful_caps_ ? 9 : 11);
        nor_mis_ = chr_.characterize("NOR2", core::ModelKind::kMisBaseline,
                                     {"A", "B"}, opt);
    }
    return *nor_mis_;
}

const core::CsmModel& Context::nor_sis_a() {
    if (!nor_sis_a_) {
        nor_sis_a_ = chr_.characterize("NOR2", core::ModelKind::kSis, {"A"},
                                       char_options(13));
    }
    return *nor_sis_a_;
}

BenchTiming time_reps_ms(int reps, const std::function<void()>& body) {
    using Clock = std::chrono::steady_clock;
    BenchTiming t;
    t.reps = reps;
    t.min_ms = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        body();
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        t.min_ms = std::min(t.min_ms, ms);
        t.mean_ms += ms;
    }
    t.mean_ms /= static_cast<double>(reps > 0 ? reps : 1);
    if (reps == 0) t.min_ms = 0.0;
    return t;
}

void Checker::check(bool ok, const std::string& message) {
    std::printf("[%s] %s\n", ok ? "PASS" : "FAIL", message.c_str());
    if (!ok) failed_ = true;
}

void print_waveform_header(const std::vector<std::string>& labels) {
    std::printf("t_ns");
    for (const auto& l : labels) std::printf(",%s", l.c_str());
    std::printf("\n");
}

void print_waveform_rows(const std::vector<const wave::Waveform*>& waves,
                         double t0, double t1, double step) {
    for (double t = t0; t <= t1 + 0.5 * step; t += step) {
        std::printf("%.4f", t * 1e9);
        for (const wave::Waveform* w : waves) std::printf(",%.4f", w->at(t));
        std::printf("\n");
    }
}

spice::Circuit make_chain_circuit(const cells::CellLibrary& lib, int stages) {
    using spice::Circuit;
    using spice::SourceSpec;
    const double vdd_v = lib.tech().vdd;
    Circuit c;
    const int vdd = c.node("vdd");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(vdd_v));
    c.add_vsource("VIN", c.node("n0"), Circuit::kGround,
                  SourceSpec::pwl(wave::piecewise_edges(
                      0.0, {{0.2e-9, 80e-12, vdd_v}})));
    c.add_vsource("VB", c.node("b"), Circuit::kGround, SourceSpec::dc(0.0));
    for (int s = 0; s < stages; ++s) {
        const cells::CellType& cell = lib.get(s % 2 == 0 ? "NOR2" : "INV_X1");
        // Built with += to dodge GCC 12 -Wrestrict false positives on
        // `const char* + std::string&&` (see test_sta_scale.cpp).
        std::string net_in = "n";
        net_in += std::to_string(s);
        std::string net_out = "n";
        net_out += std::to_string(s + 1);
        std::string name = "U";
        name += std::to_string(s);
        std::unordered_map<std::string, int> conn;
        conn[cells::kVdd] = vdd;
        conn[cells::kGnd] = Circuit::kGround;
        conn["A"] = c.node_id(net_in);
        if (s % 2 == 0) conn["B"] = c.node_id("b");
        conn[cells::kOut] = c.node(net_out);
        cell.instantiate(c, name, conn);
    }
    return c;
}

double time_newton_cycle_us(const cells::CellLibrary& lib, int stages) {
    using Clock = std::chrono::steady_clock;
    spice::Circuit c = make_chain_circuit(lib, stages);
    const spice::DcResult op = spice::solve_dc(c);
    spice::SolverWorkspace& ws = c.workspace();

    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &op.x;
    const int reps = 2000;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
        spice::Stamper& st = ws.assemble(ctx);
        st.add_gmin_everywhere(1e-12);
        (void)ws.solve();
    }
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
               .count() /
           reps;
}

double time_device_eval_us(const cells::CellLibrary& lib, int stages,
                           bool batched) {
    using Clock = std::chrono::steady_clock;
    spice::Circuit c = make_chain_circuit(lib, stages);
    const spice::DcResult op = spice::solve_dc(c);
    spice::SolverWorkspace& ws = c.workspace();

    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &op.x;
    const int reps = 4000;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
        if (batched) {
            (void)ws.assemble(ctx);
        } else {
            spice::Stamper& st = ws.begin_assembly();
            for (const auto& dev : c.devices()) dev->stamp(st, ctx);
        }
    }
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
               .count() /
           reps;
}

double time_ekv_kernel_us(const cells::CellLibrary& lib, int stages,
                          bool lanes) {
    using Clock = std::chrono::steady_clock;
    spice::Circuit c = make_chain_circuit(lib, stages);
    const spice::DcResult op = spice::solve_dc(c);
    const spice::MosfetBatch& batch = c.workspace().mosfet_batch();
    std::vector<spice::MosCurrent> out(batch.size());

    const int reps = 20000;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
        if (lanes)
            batch.evaluate_lanes(op.x, out.data());
        else
            batch.evaluate(op.x, out.data(), /*fast=*/true);
    }
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
               .count() /
           reps;
}

double time_multi_rhs_us(const cells::CellLibrary& lib, int stages,
                         std::size_t nrhs, bool blocked) {
    using Clock = std::chrono::steady_clock;
    spice::Circuit c = make_chain_circuit(lib, stages);
    const spice::DcResult op = spice::solve_dc(c);
    spice::SolverWorkspace& ws = c.workspace();

    // Leave a representative assembly in the workspace storage.
    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &op.x;
    spice::Stamper& st = ws.assemble(ctx);
    st.add_gmin_everywhere(1e-12);

    const std::size_t n = ws.system_size();
    std::vector<double> b(n * nrhs);
    std::vector<double> x(n * nrhs);
    for (std::size_t i = 0; i < b.size(); ++i)
        b[i] = 1e-6 * static_cast<double>(i % 23);

    const int reps = 500;
    const auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
        if (blocked) {
            ws.factor();
            ws.solve_block(b.data(), x.data(), nrhs);
        } else {
            for (std::size_t k = 0; k < nrhs; ++k) {
                ws.factor();
                ws.solve_block(b.data() + k * n, x.data() + k * n, 1);
            }
        }
    }
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
               .count() /
           reps;
}

double time_dc_sweep_ms(const cells::CellLibrary& lib, BenchTiming* timing) {
    using spice::Circuit;
    using spice::SourceSpec;
    const double vdd_v = lib.tech().vdd;

    // NOR2 with every modeled node forced, like the MCSM characterization
    // fixture: pins A/B, the internal stack node, and OUT.
    Circuit c;
    const int vdd = c.node("vdd");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(vdd_v));
    const int a = c.node("a");
    const int b = c.node("b");
    const int out = c.node("out");
    c.add_vsource("VA", a, Circuit::kGround, SourceSpec::dc(0.0));
    c.add_vsource("VB", b, Circuit::kGround, SourceSpec::dc(0.0));
    c.add_vsource("VOUT", out, Circuit::kGround, SourceSpec::dc(0.0));
    const cells::CellType& nor = lib.get("NOR2");
    std::unordered_map<std::string, int> conn{{cells::kVdd, vdd},
                                              {cells::kGnd, 0},
                                              {"A", a},
                                              {"B", b},
                                              {cells::kOut, out}};
    std::vector<spice::VSource*> swept;
    for (const std::string& formal : nor.internal_nodes()) {
        const int n = c.node("int_" + formal);
        conn[formal] = n;
        c.add_vsource("VN_" + formal, n, Circuit::kGround,
                      SourceSpec::dc(0.0));
    }
    nor.instantiate(c, "DUT", conn);
    c.prepare();
    swept.push_back(&c.vsource("VA"));
    swept.push_back(&c.vsource("VB"));
    for (const std::string& formal : nor.internal_nodes())
        swept.push_back(&c.vsource("VN_" + formal));
    swept.push_back(&c.vsource("VOUT"));

    const std::vector<double> knots{-0.2, 0.0, 0.4, 0.8, 1.2, 1.4};
    const std::size_t dim = swept.size();
    std::vector<double> values;
    std::vector<std::size_t> idx(dim, 0);
    bool more = true;
    while (more) {
        for (std::size_t d = 0; d < dim; ++d)
            values.push_back(knots[idx[d]]);
        more = false;
        for (std::size_t d = dim; d-- > 0;) {
            if (++idx[d] < knots.size()) {
                more = true;
                break;
            }
            idx[d] = 0;
        }
    }
    const std::size_t n_points = values.size() / dim;

    const BenchTiming t = time_reps_ms(2, [&] {
        double sink = 0.0;
        spice::solve_dc_sweep(
            c, swept, values, n_points, {}, nullptr,
            [&](std::size_t, const std::vector<double>& x) {
                sink += x.back();
            });
        if (sink == 1e300) std::printf("#");  // keep the sweep observable
    });
    if (timing != nullptr) *timing = t;
    return t.min_ms;
}

double time_chain_transient_ms(const cells::CellLibrary& lib, int stages,
                               wave::Waveform* far_out, BenchTiming* timing) {
    spice::TranOptions topt;
    topt.tstop = 2.5e-9;
    topt.dt = 2e-12;
    // Circuit construction stays outside the timed window (it is setup, not
    // solver work); only the solve_tran call itself is measured per rep.
    using Clock = std::chrono::steady_clock;
    BenchTiming t;
    t.reps = 3;
    t.min_ms = 1e300;
    for (int rep = 0; rep < t.reps; ++rep) {
        spice::Circuit c = make_chain_circuit(lib, stages);
        const auto t0 = Clock::now();
        const spice::TranResult res = spice::solve_tran(c, topt);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        t.min_ms = std::min(t.min_ms, ms);
        t.mean_ms += ms;
        if (far_out != nullptr) {
            std::string far_net = "n";
            far_net += std::to_string(stages);
            *far_out = res.node_waveform(c.node_id(far_net));
        }
    }
    t.mean_ms /= static_cast<double>(t.reps);
    if (timing != nullptr) *timing = t;
    return t.min_ms;
}

double time_chain_transient_fast_ms(const cells::CellLibrary& lib, int stages,
                                    bool reuse_jacobian, double* reuse_rate,
                                    wave::Waveform* far_out,
                                    BenchTiming* timing) {
    using Clock = std::chrono::steady_clock;
    spice::TranOptions topt = spice::fast_tran_options(2.5e-9, 2e-12);
    topt.reuse_jacobian = reuse_jacobian;
    BenchTiming t;
    t.reps = 3;
    t.min_ms = 1e300;
    for (int rep = 0; rep < t.reps; ++rep) {
        spice::Circuit c = make_chain_circuit(lib, stages);
        const auto t0 = Clock::now();
        const spice::TranResult res = spice::solve_tran(c, topt);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        t.min_ms = std::min(t.min_ms, ms);
        t.mean_ms += ms;
        if (reuse_rate != nullptr) {
            const spice::TranStats& st = res.stats();
            *reuse_rate =
                st.steps_accepted > 0
                    ? static_cast<double>(st.jacobian_reuse_steps) /
                          static_cast<double>(st.steps_accepted)
                    : 0.0;
        }
        if (far_out != nullptr) {
            std::string far_net = "n";
            far_net += std::to_string(stages);
            *far_out = res.node_waveform(c.node_id(far_net));
        }
    }
    t.mean_ms /= static_cast<double>(t.reps);
    if (timing != nullptr) *timing = t;
    return t.min_ms;
}

double time_characterize_nor2_ms(const cells::CellLibrary& lib,
                                 const core::CharOptions& opt,
                                 BenchTiming* timing) {
    const core::Characterizer chr(lib);
    const BenchTiming t = time_reps_ms(2, [&] {
        const core::CsmModel model = chr.characterize(
            "NOR2", core::ModelKind::kMcsm, {"A", "B"}, opt);
        (void)model;
    });
    if (timing != nullptr) *timing = t;
    return t.min_ms;
}

}  // namespace mcsm::bench
