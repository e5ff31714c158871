// Validates the paper-faithful transient capacitance extraction (Section
// 3.3: ramp analyses, slope averaging, DC-current subtraction) against the
// model-linearization shortcut, and checks the paper's claim that the
// extracted capacitance is insensitive to the ramp slope. The shortcut's
// own cap tables are pinned bit for bit against a per-table oracle
// (cap_oracle.h) at every grid point.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <unordered_map>
#include <vector>

#include "cap_oracle.h"
#include "core/characterizer.h"
#include "engine/scenarios.h"
#include "core/model_scenarios.h"
#include "spice/circuit.h"
#include "tech/tech130.h"
#include "wave/metrics.h"

namespace mcsm::core {
namespace {

class TransientChar : public ::testing::Test {
protected:
    TransientChar() : tech_(tech::make_tech130()), lib_(tech_) {}

    tech::Technology tech_;
    cells::CellLibrary lib_;
};

TEST_F(TransientChar, InvCapsAgreeWithModelLinearization) {
    const Characterizer chr(lib_);
    CharOptions tran_opt;
    tran_opt.grid_points = 9;
    tran_opt.transient_caps = true;
    CharOptions fast_opt = tran_opt;
    fast_opt.transient_caps = false;

    const CsmModel a = chr.characterize("INV_X1", ModelKind::kSis, {"A"},
                                        tran_opt);
    const CsmModel b = chr.characterize("INV_X1", ModelKind::kSis, {"A"},
                                        fast_opt);

    // Compare Cm and Co at interior biases: transient extraction sees the
    // same physics the linearization sums, within the slope-averaging and
    // region-blending tolerance.
    double worst_rel = 0.0;
    for (double vin = 0.0; vin <= 1.2; vin += 0.3) {
        for (double vo = 0.0; vo <= 1.2; vo += 0.3) {
            const std::array<double, 2> q{vin, vo};
            const double cm_t = a.cm(0, q);
            const double cm_s = b.cm(0, q);
            const double co_t = a.co(q);
            const double co_s = b.co(q);
            worst_rel = std::max(worst_rel,
                                 std::fabs(cm_t - cm_s) / std::max(cm_s, 1e-16));
            worst_rel = std::max(worst_rel,
                                 std::fabs(co_t - co_s) / std::max(co_s, 1e-16));
            // Same order of magnitude, always.
            EXPECT_LT(cm_t, 10.0 * cm_s + 1e-16);
            EXPECT_GT(cm_t, 0.05 * cm_s);
            EXPECT_LT(co_t, 10.0 * co_s + 1e-16);
            EXPECT_GT(co_t, 0.05 * co_s);
        }
    }
    // Agreement within 40% everywhere (Meyer linearization vs finite-ramp
    // extraction differ most in the blending regions).
    EXPECT_LT(worst_rel, 0.4);
}

TEST_F(TransientChar, ExtractedCapacitanceInsensitiveToSlope) {
    // The paper: "changing the slope of the ramp ... has a very small
    // effect on the pre-characterized capacitance values."
    const Characterizer chr(lib_);
    CharOptions o1;
    o1.grid_points = 7;
    o1.transient_caps = true;
    o1.cap_ramp = 120e-12;
    o1.cap_ramp2 = 120e-12;  // single slope
    CharOptions o2 = o1;
    o2.cap_ramp = 400e-12;
    o2.cap_ramp2 = 400e-12;  // single (much slower) slope

    const CsmModel fast_slope =
        chr.characterize("INV_X1", ModelKind::kSis, {"A"}, o1);
    const CsmModel slow_slope =
        chr.characterize("INV_X1", ModelKind::kSis, {"A"}, o2);

    for (double vin = 0.0; vin <= 1.2; vin += 0.4) {
        for (double vo = 0.0; vo <= 1.2; vo += 0.4) {
            const std::array<double, 2> q{vin, vo};
            EXPECT_NEAR(fast_slope.co(q), slow_slope.co(q),
                        0.25 * std::fabs(slow_slope.co(q)) + 0.2e-15)
                << "vin=" << vin << " vo=" << vo;
        }
    }
}

TEST_F(TransientChar, Nor2TransientModelIsAccurate) {
    // Full paper-faithful characterization on a reduced grid, then the
    // history experiment: MCSM must stay within a few percent of golden.
    const Characterizer chr(lib_);
    CharOptions opt;
    opt.grid_points = 6;  // keep the 4-D ramp sweep tractable in a test
    opt.transient_caps = true;
    opt.dt = 2e-12;
    const CsmModel nor =
        chr.characterize("NOR2", ModelKind::kMcsm, {"A", "B"}, opt);

    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;
    for (const auto hc :
         {engine::HistoryCase::kFast10, engine::HistoryCase::kSlow01}) {
        const engine::HistoryStimulus stim =
            engine::nor2_history(hc, tech_.vdd);
        engine::GoldenCell golden(lib_, "NOR2",
                                  {{"A", stim.a}, {"B", stim.b}},
                                  engine::LoadSpec{5e-15, 0, ""});
        const wave::Waveform gw =
            golden.run(topt).node_waveform(golden.out_node());
        ModelLoadSpec load;
        load.cap = 5e-15;
        ModelCell cell(nor, {{"A", stim.a}, {"B", stim.b}}, load);
        const wave::Waveform mw = cell.run(topt).node_waveform(cell.out_node());

        const auto dg = wave::delay_50(stim.a, false, gw, true, tech_.vdd,
                                       stim.t_final - 0.2e-9);
        const auto dm = wave::delay_50(stim.a, false, mw, true, tech_.vdd,
                                       stim.t_final - 0.2e-9);
        ASSERT_TRUE(dg.has_value());
        ASSERT_TRUE(dm.has_value());
        EXPECT_LT(std::fabs(*dm - *dg) / *dg, 0.08)
            << "case=" << static_cast<int>(hc);
        // Waveform shape agreement (paper's RMSE metric).
        const double nrmse = wave::rmse_normalized(
            gw, mw, stim.t_final - 0.1e-9, stim.t_final + 0.6e-9, tech_.vdd);
        EXPECT_LT(nrmse, 0.05);
    }
}

// --- model-linearization cap tables vs the per-table oracle -------------

// Characterizes `cell` as an MCSM model on the shortcut at grid 4 and
// compares every cap table, at every grid point, with the oracle evaluated
// at the exact knot voltages. MCSM fixtures force every node of the cell,
// so the bias of each grid point is known without a DC solve.
void expect_shortcut_caps_match_oracle(const cells::CellLibrary& lib,
                                       const std::string& cell,
                                       const std::vector<std::string>& pins,
                                       bool internal_miller) {
    CharOptions opt;
    opt.grid_points = 4;
    opt.transient_caps = false;
    opt.cin_points = 5;
    opt.internal_miller = internal_miller;
    const CsmModel m =
        Characterizer(lib).characterize(cell, ModelKind::kMcsm, pins, opt);

    // The cell with a node per formal name, built through the cells API.
    spice::Circuit c;
    std::unordered_map<std::string, int> node;
    node[cells::kVdd] = c.node("vdd");
    node[cells::kGnd] = spice::Circuit::kGround;
    node[cells::kOut] = c.node("out");
    const cells::CellType& type = lib.get(cell);
    for (const cells::PinInfo& pin : type.inputs())
        node[pin.name] = c.node("in_" + pin.name);
    for (const std::string& formal : type.internal_nodes())
        node[formal] = c.node("int_" + formal);
    type.instantiate(c, "DUT", node);
    std::vector<const spice::Mosfet*> mosfets;
    for (const auto& dev : c.devices())
        if (const auto* mos = dynamic_cast<const spice::Mosfet*>(dev.get()))
            mosfets.push_back(mos);

    std::vector<int> pin_nodes;
    for (const std::string& p : m.pins) pin_nodes.push_back(node.at(p));
    std::vector<int> internal_nodes;
    for (const std::string& n : m.internals)
        internal_nodes.push_back(node.at(n));
    const int out = node.at(cells::kOut);
    std::vector<int> axis_nodes = pin_nodes;
    axis_nodes.insert(axis_nodes.end(), internal_nodes.begin(),
                      internal_nodes.end());
    axis_nodes.push_back(out);

    std::vector<double> x(static_cast<std::size_t>(c.node_count()), 0.0);
    x[static_cast<std::size_t>(node.at(cells::kVdd))] = m.vdd;
    for (std::size_t f = 0; f < m.fixed_pins.size(); ++f)
        x[static_cast<std::size_t>(node.at(m.fixed_pins[f]))] =
            m.fixed_values[f];

    const std::size_t n_int = m.internal_count();
    const std::vector<int> cn_skip =
        internal_miller ? pin_nodes : std::vector<int>{};
    std::vector<std::size_t> idx(m.dim(), 0);
    std::size_t points = 0;
    for (bool more = true; more; ++points) {
        for (std::size_t d = 0; d < m.dim(); ++d)
            x[static_cast<std::size_t>(axis_nodes[d])] =
                m.i_out.axis(d).knots()[idx[d]];
        // The characterizer's capacitance floors.
        for (std::size_t p = 0; p < pin_nodes.size(); ++p)
            EXPECT_EQ(m.c_miller[p].grid_value(idx),
                      std::max(pair_cap(mosfets, x, pin_nodes[p], out), 0.0))
                << m.c_miller[p].name() << " point " << points;
        EXPECT_EQ(m.c_out.grid_value(idx),
                  std::max(incident_cap(mosfets, x, out, pin_nodes), 1e-18))
            << "Co point " << points;
        for (std::size_t j = 0; j < n_int; ++j)
            EXPECT_EQ(m.c_internal[j].grid_value(idx),
                      std::max(incident_cap(mosfets, x, internal_nodes[j],
                                            cn_skip),
                               1e-18))
                << m.c_internal[j].name() << " point " << points;
        for (std::size_t p = 0; p < pin_nodes.size(); ++p)
            for (std::size_t j = 0; j < n_int; ++j)
                EXPECT_EQ(m.c_miller_internal[p * n_int + j].grid_value(idx),
                          internal_miller
                              ? std::max(pair_cap(mosfets, x, pin_nodes[p],
                                                  internal_nodes[j]),
                                         0.0)
                              : 0.0)
                    << m.c_miller_internal[p * n_int + j].name() << " point "
                    << points;
        if (::testing::Test::HasFailure()) return;  // one point's worth
        std::size_t d = idx.size();
        more = false;
        while (d-- > 0) {
            if (++idx[d] < m.i_out.axis(d).size()) {
                more = true;
                break;
            }
            idx[d] = 0;
        }
    }
    EXPECT_EQ(points, m.i_out.value_count());
}

TEST_F(TransientChar, ShortcutCapsMatchOracleNor2) {
    for (const bool internal_miller : {true, false})
        expect_shortcut_caps_match_oracle(lib_, "NOR2", {"A", "B"},
                                          internal_miller);
}

TEST_F(TransientChar, ShortcutCapsMatchOracleNand2FixedPin) {
    for (const bool internal_miller : {true, false})
        expect_shortcut_caps_match_oracle(lib_, "NAND2", {"A"},
                                          internal_miller);
}

TEST_F(TransientChar, ShortcutCapsMatchOracleNand3) {
    for (const bool internal_miller : {true, false})
        expect_shortcut_caps_match_oracle(lib_, "NAND3", {"A", "B", "C"},
                                          internal_miller);
}

}  // namespace
}  // namespace mcsm::core
