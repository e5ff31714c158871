// Engine scenario-builder tests: stimulus invariants, load construction
// (including pi loads), and crosstalk variants.
#include <gtest/gtest.h>

#include <cmath>

#include "engine/crosstalk.h"
#include "wave/edges.h"
#include "engine/scenarios.h"
#include "spice/dc_solver.h"
#include "tech/tech130.h"
#include "wave/metrics.h"

namespace mcsm::engine {
namespace {

class EngineFixture : public ::testing::Test {
protected:
    EngineFixture() : tech_(tech::make_tech130()), lib_(tech_) {}
    tech::Technology tech_;
    cells::CellLibrary lib_;
};

TEST_F(EngineFixture, HistoryStimulusLevelsAndOrdering) {
    for (const auto hc : {HistoryCase::kFast10, HistoryCase::kSlow01}) {
        const HistoryStimulus s = nor2_history(hc, tech_.vdd, 1e-9, 2e-9);
        // Mid-state is '11' for both cases; final state is '00'.
        EXPECT_NEAR(s.a.at(1.5e-9), tech_.vdd, 1e-12);
        EXPECT_NEAR(s.b.at(1.5e-9), tech_.vdd, 1e-12);
        EXPECT_NEAR(s.a.at(3e-9), 0.0, 1e-12);
        EXPECT_NEAR(s.b.at(3e-9), 0.0, 1e-12);
        // Initial state differs: '10' vs '01'.
        const double a0 = s.a.at(0.0);
        const double b0 = s.b.at(0.0);
        if (hc == HistoryCase::kFast10) {
            EXPECT_NEAR(a0, tech_.vdd, 1e-12);
            EXPECT_NEAR(b0, 0.0, 1e-12);
        } else {
            EXPECT_NEAR(a0, 0.0, 1e-12);
            EXPECT_NEAR(b0, tech_.vdd, 1e-12);
        }
    }
    EXPECT_THROW(nor2_history(HistoryCase::kFast10, 1.2, 2e-9, 1e-9),
                 ModelError);
}

TEST_F(EngineFixture, MisStimulusSkewShiftsOnlyB) {
    const MisStimulus s0 = nor2_simultaneous_fall(tech_.vdd, 2e-9, 80e-12, 0.0);
    const MisStimulus s1 =
        nor2_simultaneous_fall(tech_.vdd, 2e-9, 80e-12, 50e-12);
    EXPECT_NEAR(s0.a.at(2.04e-9), s1.a.at(2.04e-9), 1e-12);
    // B is delayed: at the A midpoint, skewed B is still higher.
    EXPECT_GT(s1.b.at(2.04e-9), s0.b.at(2.04e-9) + 0.1);
}

TEST_F(EngineFixture, GoldenCellParksUnspecifiedPinsAtNonControlling) {
    // NAND2 with only pin A driven: B must park at Vdd (non-controlling),
    // so the cell still responds to A.
    const auto a = wave::piecewise_edges(tech_.vdd, {{1e-9, 80e-12, 0.0}});
    GoldenCell bench(lib_, "NAND2", {{"A", a}}, LoadSpec{2e-15, 0, ""});
    spice::TranOptions topt;
    topt.tstop = 2e-9;
    topt.dt = 1e-12;
    const spice::TranResult r = bench.run(topt);
    const wave::Waveform out = r.node_waveform(bench.out_node());
    EXPECT_LT(out.at(0.5e-9), 0.1);            // '11' -> out low
    EXPECT_GT(out.last_value(), 0.9 * tech_.vdd);  // A low -> out high
}

TEST_F(EngineFixture, PiLoadCreatesFarNode) {
    const auto a = wave::piecewise_edges(tech_.vdd, {{1e-9, 80e-12, 0.0}});
    LoadSpec load;
    load.pi_c1 = 2e-15;
    load.pi_r = 1e3;
    load.pi_c2 = 4e-15;
    GoldenCell bench(lib_, "INV_X1", {{"A", a}}, load);
    EXPECT_GE(bench.far_node(), 0);
    spice::TranOptions topt;
    topt.tstop = 2.5e-9;
    topt.dt = 1e-12;
    const spice::TranResult r = bench.run(topt);
    const wave::Waveform near = r.node_waveform(bench.out_node());
    const wave::Waveform far = r.node_waveform(bench.far_node());
    // The far end lags the near end but reaches the same rail.
    const auto tn = near.cross_time(0.6, true, 0.9e-9);
    const auto tf = far.cross_time(0.6, true, 0.9e-9);
    ASSERT_TRUE(tn && tf);
    EXPECT_GT(*tf, *tn);
    EXPECT_NEAR(far.last_value(), tech_.vdd, 0.02);
}

TEST_F(EngineFixture, NoPiLoadMeansNoFarNode) {
    const auto a = wave::piecewise_edges(tech_.vdd, {{1e-9, 80e-12, 0.0}});
    GoldenCell bench(lib_, "INV_X1", {{"A", a}}, LoadSpec{2e-15, 0, ""});
    EXPECT_EQ(bench.far_node(), -1);
}

// --- crosstalk builder variants -----------------------------------------------

TEST_F(EngineFixture, AggressorDirectionControlsBumpPolarity) {
    CrosstalkConfig cfg;
    cfg.t_victim = 10e-9;  // quiet victim
    spice::TranOptions topt;
    topt.tstop = 3e-9;
    topt.dt = 2e-12;

    cfg.aggressor_input_rising = false;  // aggressor output rises
    GoldenCrosstalk up(lib_, cfg, 1.5e-9);
    const double bump_up =
        up.run(topt).node_waveform(up.victim_net()).max_value();

    cfg.aggressor_input_rising = true;  // aggressor output falls
    GoldenCrosstalk down(lib_, cfg, 1.5e-9);
    const double bump_down =
        down.run(topt).node_waveform(down.victim_net()).min_value();

    EXPECT_GT(bump_up, 0.05);
    EXPECT_LT(bump_down, -0.05);
}

TEST_F(EngineFixture, CouplingCapScalesNoiseBump) {
    spice::TranOptions topt;
    topt.tstop = 3e-9;
    topt.dt = 2e-12;
    double prev_bump = 0.0;
    for (const double cc : {10e-15, 25e-15, 50e-15}) {
        CrosstalkConfig cfg;
        cfg.t_victim = 10e-9;
        cfg.coupling_cap = cc;
        cfg.aggressor_input_rising = false;
        GoldenCrosstalk bench(lib_, cfg, 1.5e-9);
        const double bump =
            bench.run(topt).node_waveform(bench.victim_net()).max_value();
        EXPECT_GT(bump, prev_bump);
        prev_bump = bump;
    }
}

}  // namespace
}  // namespace mcsm::engine
