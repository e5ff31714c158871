// Solver-internals tests: gmin stepping on hard DC problems, transient step
// subdivision, breakpoint handling (trapezoidal ringing suppression), source
// alteration between runs, and circuit introspection.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"
#include "wave/edges.h"

namespace mcsm::spice {
namespace {

using tech::make_tech130;

TEST(DcSolver, CrossCoupledLatchConverges) {
    // A bistable pair is the classic hard DC case; gmin stepping must land
    // on *a* consistent solution (either stable state).
    const tech::Technology t = make_tech130();
    Circuit c;
    const int vdd = c.node("vdd");
    const int q = c.node("q");
    const int qb = c.node("qb");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
    c.add_mosfet("MN1", q, qb, Circuit::kGround, Circuit::kGround, t.nmos,
                 t.wn_unit, t.lmin);
    c.add_mosfet("MP1", q, qb, vdd, vdd, t.pmos, t.wp_unit, t.lmin);
    c.add_mosfet("MN2", qb, q, Circuit::kGround, Circuit::kGround, t.nmos,
                 t.wn_unit, t.lmin);
    c.add_mosfet("MP2", qb, q, vdd, vdd, t.pmos, t.wp_unit, t.lmin);

    const DcResult r = solve_dc(c);
    const double vq = r.node_voltage(q);
    const double vqb = r.node_voltage(qb);
    // Outputs must be complementary-consistent: vqb ~ inverter(vq).
    EXPECT_NEAR(vq + vqb, t.vdd, 0.65);
    EXPECT_TRUE(std::isfinite(vq));
    EXPECT_TRUE(std::isfinite(vqb));
}

TEST(DcSolver, WarmStartReusesSolution) {
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", in, Circuit::kGround, 1e3);
    DcResult r1 = solve_dc(c);
    // Warm-started solve of the identical system converges in one step.
    const DcResult r2 = solve_dc(c, {}, &r1.x);
    EXPECT_LE(r2.iterations, 2);
}

TEST(DcSolver, SolveRejectsBadInitialSize) {
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", in, Circuit::kGround, 1e3);
    std::vector<double> wrong(1, 0.0);
    EXPECT_THROW(solve_dc(c, {}, &wrong), ModelError);
}

TEST(DcSolver, SweepRejectsBadInitialSize) {
    // Same contract as solve_dc: a seed of the wrong layout is an error,
    // not a silent cold start.
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", in, Circuit::kGround, 1e3);
    std::vector<double> wrong(1, 0.0);
    const std::vector<VSource*> swept{&c.vsource("V1")};
    const std::vector<double> values{0.5, 1.0};
    EXPECT_THROW(solve_dc_sweep(c, swept, values, values.size(), {}, &wrong,
                                [](std::size_t, const std::vector<double>&) {}),
                 ModelError);
}

TEST(TranSolver, BreakpointsSuppressTrapezoidalRinging) {
    // A pure capacitor across a ramped source: without breakpoint handling,
    // trapezoidal integration rings at the ramp corners (alternating branch
    // currents); with it, the current settles to C*dV/dt immediately.
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround,
                  SourceSpec::pwl(wave::saturated_ramp(0.5e-9, 1e-9, 0.0,
                                                       1.0)));
    c.add_capacitor("C1", in, Circuit::kGround, 1e-12);
    TranOptions opt;
    opt.tstop = 2e-9;
    opt.dt = 1e-12;
    const TranResult r = solve_tran(c, opt);
    const wave::Waveform i = r.vsource_current("V1");
    // Mid-ramp: exactly 1 mA into the cap at every recorded sample (no
    // alternation), i.e. successive samples agree.
    for (double t = 0.7e-9; t < 1.3e-9; t += 10e-12) {
        EXPECT_NEAR(i.at(t), -1e-3, 2e-5) << t;
        EXPECT_NEAR(i.at(t), i.at(t + 1e-12), 4e-5) << t;
    }
}

TEST(TranSolver, StepSubdivisionRescuesCoarseGrids) {
    // An inverter driven by an edge much faster than the recording step:
    // the solver must subdivide internally rather than fail or corrupt the
    // result.
    const tech::Technology t = make_tech130();
    Circuit c;
    const int vdd = c.node("vdd");
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
    c.add_vsource("VIN", in, Circuit::kGround,
                  SourceSpec::pwl(wave::saturated_ramp(1e-9, 5e-12, 0.0,
                                                       t.vdd)));
    c.add_mosfet("MN", out, in, Circuit::kGround, Circuit::kGround, t.nmos,
                 t.wn_unit, t.lmin);
    c.add_mosfet("MP", out, in, vdd, vdd, t.pmos, t.wp_unit, t.lmin);
    c.add_capacitor("CL", out, Circuit::kGround, 5e-15);

    TranOptions opt;
    opt.tstop = 3e-9;
    opt.dt = 50e-12;  // 10x coarser than the input edge
    const TranResult r = solve_tran(c, opt);
    const wave::Waveform vout = r.node_waveform(out);
    EXPECT_NEAR(vout.at(0.5e-9), t.vdd, 0.05);
    EXPECT_NEAR(vout.last_value(), 0.0, 0.05);
}

TEST(TranSolver, SourceAlterationBetweenRuns) {
    // Characterization-style reuse: same circuit, new source spec per run.
    Circuit c;
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(0.0));
    c.add_resistor("R1", in, out, 1e3);
    c.add_capacitor("C1", out, Circuit::kGround, 1e-12);

    TranOptions opt;
    opt.tstop = 6e-9;
    opt.dt = 10e-12;
    for (const double level : {0.3, 0.7, 1.1}) {
        c.vsource("V1").set_spec(SourceSpec::pwl(
            wave::saturated_ramp(0.1e-9, 1e-12, 0.0, level)));
        const TranResult r = solve_tran(c, opt);
        EXPECT_NEAR(r.final_node_voltage(out), level, 0.01) << level;
    }
}

TEST(TranSolver, ResultLookupsValidateNames) {
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", in, Circuit::kGround, 1e3);
    TranOptions opt;
    opt.tstop = 0.1e-9;
    opt.dt = 0.05e-9;
    const TranResult r = solve_tran(c, opt);
    EXPECT_NO_THROW(r.node_waveform("in"));
    EXPECT_THROW(r.node_waveform("nonexistent"), ModelError);
    EXPECT_NO_THROW(r.vsource_current("V1"));
    EXPECT_THROW(r.vsource_current("R1"), ModelError);
}

TEST(Circuit, IntrospectionAndGroundAliases) {
    Circuit c;
    EXPECT_EQ(c.node("gnd"), Circuit::kGround);
    EXPECT_EQ(c.node("0"), Circuit::kGround);
    const int a = c.node("a");
    EXPECT_TRUE(c.has_node("a"));
    EXPECT_FALSE(c.has_node("b"));
    EXPECT_EQ(c.node_id("a"), a);
    EXPECT_THROW(c.node_id("b"), ModelError);
    EXPECT_EQ(c.node_name(a), "a");
    EXPECT_THROW(c.node_name(99), ModelError);

    c.add_resistor("R1", a, Circuit::kGround, 1e3);
    EXPECT_NE(c.find_device("R1"), nullptr);
    EXPECT_EQ(c.find_device("R2"), nullptr);
    EXPECT_THROW(c.vsource("R1"), ModelError);
    EXPECT_THROW(c.branch_of("R1"), ModelError);
}

TEST(Circuit, PrepareAssignsBranchesAfterLateAdd) {
    Circuit c;
    const int a = c.node("a");
    c.add_vsource("V1", a, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", a, Circuit::kGround, 1e3);
    (void)solve_dc(c);
    // Adding a device invalidates and re-runs preparation transparently.
    const int b = c.node("b");
    c.add_vsource("V2", b, Circuit::kGround, SourceSpec::dc(2.0));
    const DcResult r = solve_dc(c);
    EXPECT_NEAR(r.node_voltage(b), 2.0, 1e-8);
    EXPECT_EQ(c.branch_total(), 2);
}

TEST(Isource, WaveformDrivenCurrentIntoRc) {
    Circuit c;
    const int n = c.node("n");
    c.add_isource("I1", Circuit::kGround, n,
                  SourceSpec::pwl(wave::saturated_ramp(0.2e-9, 0.2e-9, 0.0,
                                                       1e-3)));
    c.add_resistor("R1", n, Circuit::kGround, 1e3);
    TranOptions opt;
    opt.tstop = 1e-9;
    opt.dt = 1e-12;
    const TranResult r = solve_tran(c, opt);
    EXPECT_NEAR(r.final_node_voltage(n), 1.0, 1e-6);
}

}  // namespace
}  // namespace mcsm::spice
