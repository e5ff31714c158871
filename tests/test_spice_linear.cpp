// Tests for the MNA solver on linear circuits with analytic solutions, and
// for the circuit preconditions every solve passes through.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>

#include "common/error.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "wave/edges.h"

namespace mcsm::spice {
namespace {

TEST(Dc, ResistorDivider) {
    Circuit c;
    const int in = c.node("in");
    const int mid = c.node("mid");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(3.0));
    c.add_resistor("R1", in, mid, 1e3);
    c.add_resistor("R2", mid, Circuit::kGround, 2e3);
    const DcResult r = solve_dc(c);
    EXPECT_NEAR(r.node_voltage(mid), 2.0, 1e-8);
}

TEST(Dc, VsourceBranchCurrentSign) {
    // 1V across 1k: 1mA flows from the + terminal through the resistor.
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", in, Circuit::kGround, 1e3);
    const DcResult r = solve_dc(c);
    // Branch current = current out of the + node into the source; the source
    // delivers +1mA into the node, so the branch current is -1mA.
    const double i_branch = r.x[static_cast<std::size_t>(c.node_count())];
    EXPECT_NEAR(i_branch, -1e-3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
    Circuit c;
    const int n1 = c.node("n1");
    // 2mA flows from ground through the source into n1.
    c.add_isource("I1", Circuit::kGround, n1, SourceSpec::dc(2e-3));
    c.add_resistor("R1", n1, Circuit::kGround, 500.0);
    const DcResult r = solve_dc(c);
    EXPECT_NEAR(r.node_voltage(n1), 1.0, 1e-9);
}

TEST(Dc, FloatingNodeHeldByGmin) {
    Circuit c;
    const int a = c.node("a");
    const int b = c.node("b");
    c.add_vsource("V1", a, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_capacitor("C1", a, b, 1e-15);  // open in DC
    const DcResult r = solve_dc(c);
    // b floats; gmin ties it to ground.
    EXPECT_NEAR(r.node_voltage(b), 0.0, 1e-6);
}

TEST(Tran, RcChargeMatchesAnalytic) {
    // Step 1V into R=1k, C=1pF: tau = 1ns.
    Circuit c;
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("V1", in, Circuit::kGround,
                  SourceSpec::pwl(wave::saturated_ramp(0.1e-9, 1e-12, 0.0, 1.0)));
    c.add_resistor("R1", in, out, 1e3);
    c.add_capacitor("C1", out, Circuit::kGround, 1e-12);

    TranOptions opt;
    opt.tstop = 6e-9;
    opt.dt = 5e-12;
    const TranResult r = solve_tran(c, opt);
    const wave::Waveform v = r.node_waveform(out);

    const double t0 = 0.1e-9 + 1e-12;  // after the (fast) input edge
    for (double t = 0.3e-9; t < 5.5e-9; t += 0.5e-9) {
        const double expected = 1.0 - std::exp(-(t - t0) / 1e-9);
        EXPECT_NEAR(v.at(t), expected, 5e-3) << "t=" << t;
    }
}

TEST(Tran, RcChargeBackwardEulerAlsoConverges) {
    Circuit c;
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("V1", in, Circuit::kGround,
                  SourceSpec::pwl(wave::saturated_ramp(0.1e-9, 1e-12, 0.0, 1.0)));
    c.add_resistor("R1", in, out, 1e3);
    c.add_capacitor("C1", out, Circuit::kGround, 1e-12);

    TranOptions opt;
    opt.tstop = 4e-9;
    opt.dt = 2e-12;
    opt.integrator = Integrator::kBackwardEuler;
    const TranResult r = solve_tran(c, opt);
    const double v_end = r.final_node_voltage(out);
    EXPECT_NEAR(v_end, 1.0 - std::exp(-3.899), 1e-2);
}

TEST(Tran, CapacitiveDividerCouplesEdge) {
    // A fast edge couples through C1 into a floating node loaded by C2:
    // dV(out) = dV(in) * C1/(C1+C2).
    Circuit c;
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("V1", in, Circuit::kGround,
                  SourceSpec::pwl(wave::saturated_ramp(1e-9, 0.1e-9, 0.0, 1.0)));
    c.add_capacitor("C1", in, out, 1e-15);
    c.add_capacitor("C2", out, Circuit::kGround, 3e-15);
    TranOptions opt;
    opt.tstop = 2e-9;
    opt.dt = 1e-12;
    const TranResult r = solve_tran(c, opt);
    EXPECT_NEAR(r.final_node_voltage(out), 0.25, 1e-3);
}

TEST(Tran, VsourceCurrentThroughCapacitor) {
    // Ramp of slope 1 V/ns across 1pF draws i = C dV/dt = 1 mA.
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround,
                  SourceSpec::pwl(wave::saturated_ramp(1e-9, 1e-9, 0.0, 1.0)));
    c.add_capacitor("C1", in, Circuit::kGround, 1e-12);
    TranOptions opt;
    opt.tstop = 3e-9;
    opt.dt = 1e-12;
    const TranResult r = solve_tran(c, opt);
    const wave::Waveform i = r.vsource_current("V1");
    // Mid-ramp the source supplies 1mA into the cap: branch current is -1mA
    // (positive branch current = out of + terminal into the source).
    EXPECT_NEAR(i.at(1.5e-9), -1e-3, 2e-5);
    // Before and long after the edge, no current flows.
    EXPECT_NEAR(i.at(0.5e-9), 0.0, 1e-6);
    EXPECT_NEAR(i.at(2.9e-9), 0.0, 1e-6);
}

TEST(Tran, RecordsUniformGrid) {
    Circuit c;
    const int in = c.node("in");
    c.add_vsource("V1", in, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", in, Circuit::kGround, 1e3);
    TranOptions opt;
    opt.tstop = 1e-9;
    opt.dt = 0.1e-9;
    const TranResult r = solve_tran(c, opt);
    ASSERT_EQ(r.sample_count(), 11u);
    EXPECT_DOUBLE_EQ(r.times().front(), 0.0);
    EXPECT_NEAR(r.times().back(), 1e-9, 1e-18);
}

// --- preconditions -----------------------------------------------------------

// The ModelError message `fn` throws; "" when it does not throw.
std::string error_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const ModelError& e) {
        return e.what();
    }
    return "";
}

TEST(CircuitPreconditions, PrepareRejectsTerminalPastTheLastNode) {
    Circuit c;
    const int a = c.node("a");
    c.add_vsource("V1", a, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("R1", a, Circuit::kGround, 1e3);
    c.add_isource("Ifar", 99, Circuit::kGround,  // node 99 was never created
                  SourceSpec::dc(1e-6));
    const std::string what = error_of([&] { c.prepare(); });
    EXPECT_NE(what.find("'Ifar'"), std::string::npos) << what;
    EXPECT_NE(what.find("99"), std::string::npos) << what;
    // Every solve prepares first, so none reaches the stamps.
    EXPECT_THROW(solve_dc(c), ModelError);
}

TEST(CircuitPreconditions, PrepareRejectsNegativeNodeId) {
    Circuit c;
    const int a = c.node("a");
    c.add_vsource("V1", a, Circuit::kGround, SourceSpec::dc(1.0));
    c.add_resistor("Rneg", a, -1, 1e3);
    const std::string what = error_of([&] { c.prepare(); });
    EXPECT_NE(what.find("'Rneg'"), std::string::npos) << what;
    EXPECT_NE(what.find("-1"), std::string::npos) << what;
}

TEST(CircuitPreconditions, RejectsNegativeOrInfiniteElementValues) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    Circuit c;
    const int a = c.node("a");
    for (const double r : {-50.0, kInf})
        EXPECT_THROW(c.add_resistor("Rbad", a, Circuit::kGround, r),
                     ModelError)
            << r;
    for (const double cap : {-1e-15, kInf})
        EXPECT_THROW(c.add_capacitor("Cbad", a, Circuit::kGround, cap),
                     ModelError)
            << cap;
    // A zero capacitance stamps nothing and stays legal.
    EXPECT_NO_THROW(c.add_capacitor("Czero", a, Circuit::kGround, 0.0));
}

}  // namespace
}  // namespace mcsm::spice
