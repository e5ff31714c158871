// Cross-cell model validation: for every multi-input cell in the library,
// characterize an MCSM over a pin pair and check that the model's own DC
// fixed point (dc_state) reproduces the golden transistor-level DC solution
// at every consistent input corner. This is the strongest cheap invariant a
// CSM must satisfy: the current tables' zero set encodes the cell's static
// behaviour. The same corners also pin dc_state (the explicit integrator's
// starting point) to the t=0 operating point of the exact path's transient.
#include <gtest/gtest.h>

#include <cmath>

#include "cells/cell_type.h"
#include "core/characterizer.h"
#include "core/model_scenarios.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"
#include "wave/waveform.h"

namespace mcsm::core {
namespace {

struct CellCase {
    const char* cell;
    const char* pin_a;
    const char* pin_b;
};

class CellModelDc : public ::testing::TestWithParam<CellCase> {
protected:
    CellModelDc() : tech_(tech::make_tech130()), lib_(tech_) {}

    // Golden DC output voltage with the switching pins at (va, vb) and the
    // remaining pins at their non-controlling values.
    double golden_out(const cells::CellType& cell, const std::string& pa,
                      const std::string& pb, double va, double vb) {
        spice::Circuit c;
        const int vdd = c.node("vdd");
        c.add_vsource("VDD", vdd, spice::Circuit::kGround,
                      spice::SourceSpec::dc(tech_.vdd));
        std::unordered_map<std::string, int> conn;
        conn[cells::kVdd] = vdd;
        conn[cells::kGnd] = spice::Circuit::kGround;
        const int out = c.node("out");
        conn[cells::kOut] = out;
        for (const cells::PinInfo& pin : cell.inputs()) {
            const int n = c.node("in_" + pin.name);
            conn[pin.name] = n;
            double v = pin.non_controlling;
            if (pin.name == pa) v = va;
            if (pin.name == pb) v = vb;
            c.add_vsource("V" + pin.name, n, spice::Circuit::kGround,
                          spice::SourceSpec::dc(v));
        }
        cell.instantiate(c, "DUT", conn);
        return spice::solve_dc(c).node_voltage(out);
    }

    tech::Technology tech_;
    cells::CellLibrary lib_;
};

TEST_P(CellModelDc, DcStateMatchesGoldenAtEveryCorner) {
    const CellCase& cc = GetParam();
    const cells::CellType& cell = lib_.get(cc.cell);
    const Characterizer chr(lib_);
    CharOptions opt;
    opt.transient_caps = false;
    // 5-D models (two internals) get a smaller grid to stay test-fast.
    opt.grid_points = cell.internal_nodes().size() >= 2 ? 6 : 9;
    const CsmModel model = chr.characterize(
        cc.cell, ModelKind::kMcsm, {cc.pin_a, cc.pin_b}, opt);
    // The DC settings of the exact path's t=0 solve.
    const spice::DcOptions exact_dc =
        spice::fast_tran_options(1e-9, 4e-12).dc;

    for (const double va : {0.0, tech_.vdd}) {
        for (const double vb : {0.0, tech_.vdd}) {
            const double golden =
                golden_out(cell, cc.pin_a, cc.pin_b, va, vb);
            const double pins[2] = {va, vb};
            const auto state =
                model.dc_state(std::span<const double>(pins, 2));
            const double model_out = state.back();
            EXPECT_NEAR(model_out, golden, 0.08)
                << cc.cell << " corner (" << va << "," << vb << ")";

            // The explicit integrator starts where the exact path starts:
            // a ModelCell transient of the same model at the same corner.
            ModelCell exact(model,
                            {{cc.pin_a, wave::Waveform::constant(va)},
                             {cc.pin_b, wave::Waveform::constant(vb)}},
                            ModelLoadSpec{5e-15});
            const spice::DcResult op =
                spice::solve_dc(exact.circuit(), exact_dc);
            for (std::size_t j = 0; j < model.internal_count(); ++j)
                EXPECT_NEAR(state[j], op.node_voltage(exact.internal_node(j)),
                            1e-6)
                    << cc.cell << " corner (" << va << "," << vb
                    << ") internal " << j;
            EXPECT_NEAR(model_out, op.node_voltage(exact.out_node()), 1e-6)
                << cc.cell << " corner (" << va << "," << vb << ")";
        }
    }
}

TEST_P(CellModelDc, StableCornersCarryNoCurrent) {
    const CellCase& cc = GetParam();
    const cells::CellType& cell = lib_.get(cc.cell);
    const Characterizer chr(lib_);
    CharOptions opt;
    opt.transient_caps = false;
    opt.grid_points = cell.internal_nodes().size() >= 2 ? 6 : 9;
    const CsmModel model = chr.characterize(
        cc.cell, ModelKind::kMcsm, {cc.pin_a, cc.pin_b}, opt);

    // At the model's own DC fixed point the residual currents must be
    // negligible compared to the drive currents in the tables.
    const double unit = model.i_out.max_abs();
    for (const double va : {0.0, tech_.vdd}) {
        for (const double vb : {0.0, tech_.vdd}) {
            const double pins[2] = {va, vb};
            const auto state =
                model.dc_state(std::span<const double>(pins, 2));
            std::vector<double> v{va, vb};
            v.insert(v.end(), state.begin(), state.end());
            EXPECT_LT(std::fabs(model.io(v)), 2e-5 * unit)
                << cc.cell << " corner (" << va << "," << vb << ")";
            for (std::size_t j = 0; j < model.internal_count(); ++j)
                EXPECT_LT(std::fabs(model.in(j, v)), 2e-5 * unit);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCells, CellModelDc,
    ::testing::Values(CellCase{"NOR2", "A", "B"},
                      CellCase{"NAND2", "A", "B"},
                      CellCase{"NOR3", "A", "B"},
                      CellCase{"NAND3", "A", "B"},
                      CellCase{"AOI21", "A", "C"},
                      CellCase{"OAI21", "A", "C"}),
    [](const ::testing::TestParamInfo<CellCase>& info) {
        return std::string(info.param.cell) + "_" + info.param.pin_a +
               info.param.pin_b;
    });

}  // namespace
}  // namespace mcsm::core
