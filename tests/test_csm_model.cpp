// End-to-end model tests: characterize CSM models of INV and NOR2 (fast
// model-linearization capacitance mode) and check the model structure, DC
// consistency, and accuracy against the transistor-level golden runs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "core/characterizer.h"
#include "core/csm_device.h"
#include "core/explicit_sim.h"
#include "core/model_scenarios.h"
#include "core/selective.h"
#include "engine/scenarios.h"
#include "tech/tech130.h"
#include "wave/metrics.h"

namespace mcsm::core {
namespace {

using engine::GoldenCell;
using engine::HistoryCase;
using engine::LoadSpec;

// Shared, lazily-characterized models (characterization is the slow part).
class ModelSuite {
public:
    static const ModelSuite& get() {
        static ModelSuite suite;
        return suite;
    }

    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    CsmModel inv_sis;
    CsmModel nor_mcsm;
    CsmModel nor_baseline;

private:
    ModelSuite() {
        const Characterizer chr(lib);
        CharOptions fast;
        fast.transient_caps = false;
        fast.grid_points = 11;
        inv_sis = chr.characterize("INV_X1", ModelKind::kSis, {"A"}, fast);
        CharOptions nor_opt = fast;
        nor_opt.grid_points = 9;
        nor_mcsm =
            chr.characterize("NOR2", ModelKind::kMcsm, {"A", "B"}, nor_opt);
        nor_baseline = chr.characterize("NOR2", ModelKind::kMisBaseline,
                                        {"A", "B"}, nor_opt);
    }
};

TEST(CsmCharacterize, InvSisStructure) {
    const auto& s = ModelSuite::get();
    const CsmModel& m = s.inv_sis;
    EXPECT_EQ(m.kind, ModelKind::kSis);
    EXPECT_EQ(m.dim(), 2u);
    EXPECT_TRUE(m.internals.empty());
    ASSERT_EQ(m.c_in.size(), 1u);

    // Stable points: input low, output high -> no current.
    const std::array<double, 2> stable{0.0, s.tech.vdd};
    EXPECT_NEAR(m.io(stable), 0.0, 1e-7);
    // Input high, output still high: strong pull-down, current INTO cell.
    const std::array<double, 2> pulling{s.tech.vdd, s.tech.vdd};
    EXPECT_GT(m.io(pulling), 1e-5);
    // Input low, output low: pull-up delivers current (negative by our
    // convention).
    const std::array<double, 2> charging{0.0, 0.0};
    EXPECT_LT(m.io(charging), -1e-5);

    // Input cap is fF-scale and positive everywhere.
    for (double vin = 0.0; vin <= s.tech.vdd; vin += 0.1) {
        const double c = m.cin(0, vin);
        EXPECT_GT(c, 0.1e-15);
        EXPECT_LT(c, 20e-15);
    }
}

TEST(CsmCharacterize, NorMcsmStructure) {
    const auto& s = ModelSuite::get();
    const CsmModel& m = s.nor_mcsm;
    EXPECT_EQ(m.kind, ModelKind::kMcsm);
    EXPECT_EQ(m.dim(), 4u);
    ASSERT_EQ(m.internals.size(), 1u);
    EXPECT_EQ(m.internals[0], "N");
    ASSERT_EQ(m.i_internal.size(), 1u);
    ASSERT_EQ(m.c_miller.size(), 2u);

    // '00', out=vdd, N=vdd: stable - both currents vanish.
    const double vdd = s.tech.vdd;
    const std::array<double, 4> stable{0.0, 0.0, vdd, vdd};
    EXPECT_NEAR(m.io(stable), 0.0, 1e-7);
    EXPECT_NEAR(m.in(0, stable), 0.0, 1e-7);

    // '00' with out=0: pull-up charges the load through the stack
    // (current flows out of the cell at OUT: negative Io).
    const std::array<double, 4> rising{0.0, 0.0, vdd, 0.0};
    EXPECT_LT(m.io(rising), -1e-5);

    // '00' with N=0: the stack node must charge up (negative IN).
    const std::array<double, 4> n_charges{0.0, 0.0, 0.0, 0.0};
    EXPECT_LT(m.in(0, n_charges), -1e-5);

    // Capacitances positive at a mid bias.
    const std::array<double, 4> mid{0.6, 0.6, 0.6, 0.6};
    EXPECT_GT(m.co(mid), 0.1e-15);
    EXPECT_GT(m.cn(0, mid), 0.1e-15);
    EXPECT_GT(m.cm(0, mid), 0.0);
    EXPECT_GT(m.cm(1, mid), 0.0);
}

TEST(CsmCharacterize, ModelDcStateMatchesPhysics) {
    const auto& s = ModelSuite::get();
    const double vdd = s.tech.vdd;

    // '00': out high, N high.
    const std::array<double, 2> in00{0.0, 0.0};
    auto st = s.nor_mcsm.dc_state(in00);
    ASSERT_EQ(st.size(), 2u);  // [N, out]
    EXPECT_NEAR(st[0], vdd, 0.06);
    EXPECT_NEAR(st[1], vdd, 0.06);

    // '10' (A=1): out low, N connected to VDD via M4.
    const std::array<double, 2> in10{vdd, 0.0};
    st = s.nor_mcsm.dc_state(in10);
    EXPECT_NEAR(st[0], vdd, 0.06);
    EXPECT_NEAR(st[1], 0.0, 0.06);

    // '01' (B=1): out low, N discharged to the body-affected |Vt,p|.
    const std::array<double, 2> in01{0.0, vdd};
    st = s.nor_mcsm.dc_state(in01);
    EXPECT_GT(st[0], 0.05);
    EXPECT_LT(st[0], 0.7);
    EXPECT_NEAR(st[1], 0.0, 0.06);
}

// Golden vs model delay for one history case; returns {golden, model} 50%
// delays of the final rising output transition.
std::pair<double, double> history_delays(const CsmModel& nor_model,
                                         HistoryCase hc, int fanout) {
    const auto& s = ModelSuite::get();
    const engine::HistoryStimulus stim = engine::nor2_history(hc, s.tech.vdd);

    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;

    GoldenCell golden(s.lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                      LoadSpec{0.0, fanout, "INV_X1"});
    const wave::Waveform g_out = golden.run(topt).node_waveform(golden.out_node());

    ModelLoadSpec mload;
    mload.fanout_count = fanout;
    mload.receiver = &s.inv_sis;
    ModelCell model(nor_model, {{"A", stim.a}, {"B", stim.b}}, mload);
    const wave::Waveform m_out = model.run(topt).node_waveform(model.out_node());

    const auto dg = wave::delay_50(stim.a, false, g_out, true, s.tech.vdd,
                                   stim.t_final - 0.2e-9);
    const auto dm = wave::delay_50(stim.a, false, m_out, true, s.tech.vdd,
                                   stim.t_final - 0.2e-9);
    EXPECT_TRUE(dg.has_value());
    EXPECT_TRUE(dm.has_value());
    return {dg.value_or(0.0), dm.value_or(0.0)};
}

TEST(CsmAccuracy, McsmTracksBothHistories) {
    const auto& s = ModelSuite::get();
    for (const HistoryCase hc : {HistoryCase::kFast10, HistoryCase::kSlow01}) {
        const auto [dg, dm] = history_delays(s.nor_mcsm, hc, 2);
        const double err = std::fabs(dm - dg) / dg;
        // The paper reports a 4% worst case for MCSM (Fig. 9).
        EXPECT_LT(err, 0.05) << "case=" << static_cast<int>(hc)
                             << " golden=" << dg << " model=" << dm;
    }
}

TEST(CsmAccuracy, BaselineMissesTheHistoryEffect) {
    const auto& s = ModelSuite::get();
    // The baseline model predicts (nearly) the same delay for both
    // histories, so it must err significantly on at least one of them.
    const auto [dg_fast, dm_fast] =
        history_delays(s.nor_baseline, HistoryCase::kFast10, 2);
    const auto [dg_slow, dm_slow] =
        history_delays(s.nor_baseline, HistoryCase::kSlow01, 2);
    const double err_fast = std::fabs(dm_fast - dg_fast) / dg_fast;
    const double err_slow = std::fabs(dm_slow - dg_slow) / dg_slow;
    EXPECT_GT(std::max(err_fast, err_slow), 0.08);
    // And the baseline cannot separate the two cases the way SPICE does.
    const double golden_split = std::fabs(dg_slow - dg_fast) / dg_slow;
    const double model_split = std::fabs(dm_slow - dm_fast) / dm_slow;
    EXPECT_LT(model_split, 0.6 * golden_split);
}

TEST(CsmAccuracy, McsmBeatsBaselineOnWorstCase) {
    const auto& s = ModelSuite::get();
    double worst_mcsm = 0.0;
    double worst_base = 0.0;
    for (const HistoryCase hc : {HistoryCase::kFast10, HistoryCase::kSlow01}) {
        const auto [dg_m, dm_m] = history_delays(s.nor_mcsm, hc, 1);
        const auto [dg_b, dm_b] = history_delays(s.nor_baseline, hc, 1);
        worst_mcsm = std::max(worst_mcsm, std::fabs(dm_m - dg_m) / dg_m);
        worst_base = std::max(worst_base, std::fabs(dm_b - dg_b) / dg_b);
    }
    EXPECT_LT(worst_mcsm, worst_base);
}

TEST(CsmExplicit, MatchesImplicitEngineOnCapLoad) {
    const auto& s = ModelSuite::get();
    const engine::MisStimulus stim =
        engine::nor2_simultaneous_fall(s.tech.vdd, 1.0e-9);

    const double cl = 5e-15;
    ExplicitOptions eopt;
    eopt.tstop = 2.5e-9;
    eopt.dt = 0.25e-12;
    eopt.load_cap = cl;
    const ExplicitResult er =
        simulate_explicit(s.nor_mcsm, {stim.a, stim.b}, eopt);

    ModelLoadSpec load;
    load.cap = cl;
    ModelCell cell(s.nor_mcsm, {{"A", stim.a}, {"B", stim.b}}, load);
    spice::TranOptions topt;
    topt.tstop = 2.5e-9;
    topt.dt = 1e-12;
    const wave::Waveform imp =
        cell.run(topt).node_waveform(cell.out_node());

    const double nrmse = wave::rmse_normalized(er.out, imp, 0.5e-9, 2.5e-9,
                                               s.tech.vdd);
    EXPECT_LT(nrmse, 0.03);
}

TEST(CsmSelective, PolicyPrefersCompleteModelForLightLoads) {
    const auto& s = ModelSuite::get();
    const double sig_light = internal_node_significance(s.nor_mcsm, 1e-15);
    const double sig_heavy = internal_node_significance(s.nor_mcsm, 100e-15);
    EXPECT_GT(sig_light, sig_heavy);
    EXPECT_GT(sig_light, 0.0);

    SelectivePolicy policy;
    policy.threshold = 0.5 * (sig_light + sig_heavy);
    EXPECT_EQ(&select_model(s.nor_mcsm, s.nor_baseline, 1e-15, policy),
              &s.nor_mcsm);
    EXPECT_EQ(&select_model(s.nor_mcsm, s.nor_baseline, 100e-15, policy),
              &s.nor_baseline);
}

}  // namespace
}  // namespace mcsm::core
