// Failure-injection and validation tests: malformed models, bad device
// wiring, and bad solver/characterizer options must fail loudly, not
// corrupt results.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "analysis/model_audit.h"
#include "core/characterizer.h"
#include "core/csm_device.h"
#include "core/explicit_sim.h"
#include "core/model_scenarios.h"
#include "core/selective.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"
#include "wave/edges.h"

namespace mcsm::core {
namespace {

struct Shared {
    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    CsmModel inv;
    CsmModel nor;

    static const Shared& get() {
        static Shared s;
        return s;
    }

private:
    Shared() {
        const Characterizer chr(lib);
        CharOptions fast;
        fast.transient_caps = false;
        fast.grid_points = 7;
        inv = chr.characterize("INV_X1", ModelKind::kSis, {"A"}, fast);
        nor = chr.characterize("NOR2", ModelKind::kMcsm, {"A", "B"}, fast);
    }
};

// --- characterizer option validation ---------------------------------------

TEST(CharacterizerValidation, RejectsUnknownCell) {
    const Shared& s = Shared::get();
    const Characterizer chr(s.lib);
    EXPECT_THROW(chr.characterize("XOR9", ModelKind::kSis, {"A"}), ModelError);
}

TEST(CharacterizerValidation, RejectsUnknownPin) {
    const Shared& s = Shared::get();
    const Characterizer chr(s.lib);
    EXPECT_THROW(chr.characterize("NOR2", ModelKind::kMcsm, {"A", "Z"}),
                 ModelError);
}

TEST(CharacterizerValidation, RejectsSisWithTwoPins) {
    const Shared& s = Shared::get();
    const Characterizer chr(s.lib);
    EXPECT_THROW(chr.characterize("NOR2", ModelKind::kSis, {"A", "B"}),
                 ModelError);
}

TEST(CharacterizerValidation, RejectsEmptyPinList) {
    const Shared& s = Shared::get();
    const Characterizer chr(s.lib);
    EXPECT_THROW(chr.characterize("NOR2", ModelKind::kMcsm, {}), ModelError);
}

TEST(CharacterizerValidation, RejectsTinyGrid) {
    const Shared& s = Shared::get();
    const Characterizer chr(s.lib);
    CharOptions opt;
    opt.grid_points = 3;
    EXPECT_THROW(chr.characterize("INV_X1", ModelKind::kSis, {"A"}, opt),
                 ModelError);
}

// --- the model's table list -------------------------------------------------

TEST(ModelTableList, CanonicalOrderRolesAndNames) {
    const CsmModel& m = Shared::get().nor;  // pins A, B; stack node N
    const std::vector<std::string> names = {
        "Io", "I_N", "Cm_A", "Cm_B", "Co", "C_N", "Cm_A_N", "Cm_B_N",
        "Cin_A", "Cin_B"};
    const std::vector<TableRole> roles = m.roles();
    const std::vector<const lut::NdTable*> tables = m.tables();
    ASSERT_EQ(roles.size(), names.size());
    ASSERT_EQ(tables.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        EXPECT_EQ(m.table_name(roles[i]), names[i]);
        EXPECT_EQ(tables[i]->name(), names[i]);  // the characterizer's
    }
    // Axes: A = 0, B = 1, N = 2, out = 3.
    EXPECT_EQ(roles[1].kind, TableRole::Kind::kCurrent);
    EXPECT_EQ(roles[1].a, 2u);
    EXPECT_TRUE(roles[4].grounded());
    EXPECT_EQ(roles[4].a, 3u);
    EXPECT_EQ(roles[7].kind, TableRole::Kind::kCap);
    EXPECT_EQ(roles[7].a, 1u);
    EXPECT_EQ(roles[7].b, 2u);
    EXPECT_EQ(roles[9].kind, TableRole::Kind::kInputCap);
    EXPECT_EQ(roles[9].a, 1u);
}

TEST(ModelTableList, CountOnlyFormBoundsTheRank) {
    EXPECT_EQ(table_roles(3, 2).size(), 18u);  // NAND3 A-B-C
    // Rank 9 is past what a table view evaluates: rejected before any
    // list is sized from the counts.
    EXPECT_THROW(table_roles(5, 3), ModelError);
    CsmModel m = Shared::get().inv;
    m.pins.resize(9);
    EXPECT_THROW(m.reset_tables(), ModelError);
}

// --- model structural validation --------------------------------------------

TEST(ModelValidation, DetectsRankMismatch) {
    const Shared& s = Shared::get();
    CsmModel broken = s.nor;
    broken.i_out = s.inv.i_out;  // 2-D table in a 4-D model
    EXPECT_THROW(broken.check_consistent(), ModelError);
}

TEST(ModelValidation, DetectsMissingInternalTables) {
    const Shared& s = Shared::get();
    CsmModel broken = s.nor;
    broken.i_internal.clear();
    EXPECT_THROW(broken.check_consistent(), ModelError);
}

TEST(ModelValidation, DetectsNonMcsmWithInternals) {
    const Shared& s = Shared::get();
    CsmModel broken = s.nor;
    broken.kind = ModelKind::kMisBaseline;  // still carries internals
    EXPECT_THROW(broken.check_consistent(), ModelError);
}

TEST(ModelValidation, DetectsWrongCinCount) {
    const Shared& s = Shared::get();
    CsmModel broken = s.nor;
    broken.c_in.pop_back();
    EXPECT_THROW(broken.check_consistent(), ModelError);
}

std::string error_of(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const ModelError& e) {
        return e.what();
    }
    return {};
}

TEST(ModelValidation, DetectsTableOffTheSharedAxes) {
    // Co's third OUT knot moved by 50 mV: ranks and counts still agree,
    // only the axes every D-dimensional table must share do not.
    const Shared& s = Shared::get();
    CsmModel broken = s.inv;
    std::vector<lut::Axis> axes = broken.c_out.axes();
    std::vector<double> out_knots = axes.back().knots();
    out_knots[2] += 0.05;
    ASSERT_LT(out_knots[2], out_knots[3]);
    axes.back() = lut::Axis(axes.back().name(), out_knots);
    broken.c_out = lut::NdTable(axes, broken.c_out.name());

    const std::string what = error_of([&] { broken.check_consistent(); });
    EXPECT_NE(what.find("'Co'"), std::string::npos) << what;
    EXPECT_TRUE(analysis::audit_model(broken).fired(
        "model.inconsistent-shape"));
}

// --- device wiring validation ------------------------------------------------

TEST(DeviceValidation, RejectsWrongPinNodeCount) {
    const Shared& s = Shared::get();
    spice::Circuit c;
    const int n1 = c.node("n1");
    EXPECT_THROW(CsmCellDevice("X", s.nor, {n1}, {c.node("int")},
                               c.node("out")),
                 ModelError);
}

TEST(DeviceValidation, RejectsWrongInternalNodeCount) {
    const Shared& s = Shared::get();
    spice::Circuit c;
    EXPECT_THROW(CsmCellDevice("X", s.nor, {c.node("a"), c.node("b")}, {},
                               c.node("out")),
                 ModelError);
}

TEST(DeviceValidation, LutCapRejectsNon1DTable) {
    const Shared& s = Shared::get();
    spice::Circuit c;
    EXPECT_THROW(LutCapDevice("C", s.nor.i_out, c.node("n")), ModelError);
}

TEST(DeviceValidation, CircuitRejectsDuplicateDeviceNames) {
    spice::Circuit c;
    const int n = c.node("n");
    c.add_resistor("R1", n, spice::Circuit::kGround, 1e3);
    EXPECT_THROW(c.add_resistor("R1", n, spice::Circuit::kGround, 2e3),
                 ModelError);
}

// --- scenario / simulator validation -----------------------------------------

TEST(ScenarioValidation, ModelCellRequiresAllPinWaveforms) {
    const Shared& s = Shared::get();
    ModelLoadSpec load;
    load.cap = 1e-15;
    const auto a = wave::saturated_ramp(1e-9, 0.1e-9, s.tech.vdd, 0.0);
    EXPECT_THROW(ModelCell(s.nor, {{"A", a}}, load), ModelError);
}

TEST(ScenarioValidation, FanoutLoadNeedsReceiver) {
    const Shared& s = Shared::get();
    ModelLoadSpec load;
    load.fanout_count = 2;  // receiver left null
    const auto a = wave::saturated_ramp(1e-9, 0.1e-9, s.tech.vdd, 0.0);
    const auto b = wave::Waveform::constant(0.0);
    EXPECT_THROW(ModelCell(s.nor, {{"A", a}, {"B", b}}, load), ModelError);
}

TEST(ScenarioValidation, ExplicitSimRejectsBadArguments) {
    const Shared& s = Shared::get();
    ExplicitOptions opt;
    const auto a = wave::saturated_ramp(1e-9, 0.1e-9, s.tech.vdd, 0.0);
    // Wrong input count.
    EXPECT_THROW(simulate_explicit(s.nor, {a}, opt), ModelError);
    // Bad time grid.
    opt.dt = -1.0;
    const auto b = wave::Waveform::constant(0.0);
    EXPECT_THROW(simulate_explicit(s.nor, {a, b}, opt), ModelError);
    // Wrong initial-state arity.
    ExplicitOptions opt2;
    opt2.initial_state = {0.0};  // needs internals + out = 2 entries
    EXPECT_THROW(simulate_explicit(s.nor, {a, b}, opt2), ModelError);
}

TEST(ScenarioValidation, TranRejectsBadTimeGrid) {
    spice::Circuit c;
    c.add_resistor("R", c.node("n"), spice::Circuit::kGround, 1e3);
    spice::TranOptions opt;
    opt.tstop = -1.0;
    EXPECT_THROW(spice::solve_tran(c, opt), ModelError);
}

TEST(ScenarioValidation, SelectiveRequiresMcsmComplete) {
    const Shared& s = Shared::get();
    EXPECT_THROW(select_model(s.inv, s.inv, 1e-15), ModelError);
}

// --- characterizer ramp-margin guard ------------------------------------------

TEST(CharacterizerValidation, TransientCapsGuardAgainstCoarseDt) {
    const Shared& s = Shared::get();
    const Characterizer chr(s.lib);
    CharOptions opt;
    opt.grid_points = 5;
    opt.transient_caps = true;
    opt.dt = 40e-12;  // far too coarse: knot samples land on ramp corners
    EXPECT_THROW(chr.characterize("INV_X1", ModelKind::kSis, {"A"}, opt),
                 ModelError);
}

}  // namespace
}  // namespace mcsm::core
