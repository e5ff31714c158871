// Quickstart: characterize an MCSM model for a NOR2 cell, simulate a
// multiple-input-switching event with it, and compare against the
// transistor-level reference — the core loop of the library in ~80 lines.
//
//   $ ./quickstart
//
#include <cmath>
#include <cstdio>

#include "cells/library.h"
#include "core/characterizer.h"
#include "core/model_scenarios.h"
#include "engine/scenarios.h"
#include "serve/mapped_store.h"
#include "tech/tech130.h"
#include "wave/metrics.h"

using namespace mcsm;

int main() {
    // 1. Technology and transistor-level cell library (the HSPICE-substitute
    //    substrate everything is validated against).
    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);

    // 2. Characterize the paper's model: Io/IN current-source tables by DC
    //    sweeps, capacitances by the fast model-linearization (pass
    //    transient_caps=true for the paper-faithful ramp extraction).
    const core::Characterizer characterizer(lib);
    core::CharOptions options;
    options.transient_caps = false;
    options.grid_points = 11;
    const core::CsmModel nor2 = characterizer.characterize(
        "NOR2", core::ModelKind::kMcsm, {"A", "B"}, options);
    std::printf("characterized %s (%s): %zu switching pins, %zu internal "
                "node(s), %zu-D tables with %zu entries each\n",
                nor2.cell_name.c_str(), core::to_string(nor2.kind),
                nor2.pin_count(), nor2.internal_count(), nor2.dim(),
                nor2.i_out.value_count());

    // Models are checksummed packs on disk - cache them across runs.
    serve::PackWriter writer;
    writer.add_model("NOR2", nor2);
    writer.write("nor2_mcsm.mcsmpack");
    const core::CsmModel reloaded =
        serve::MappedPack::map("nor2_mcsm.mcsmpack")->materialize_model("NOR2");

    // 3. Build a MIS stimulus: the paper's worst case, where the input
    //    history ('10' vs '01') decides the initial stack-node charge.
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kSlow01, tech.vdd);

    // 4. Simulate the model (implicit engine) and the golden circuit.
    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;

    core::ModelLoadSpec load;
    load.cap = 5e-15;
    core::ModelCell model_bench(reloaded, {{"A", stim.a}, {"B", stim.b}},
                                load);
    const wave::Waveform model_out =
        model_bench.run(topt).node_waveform(model_bench.out_node());

    engine::GoldenCell golden_bench(lib, "NOR2",
                                    {{"A", stim.a}, {"B", stim.b}},
                                    engine::LoadSpec{5e-15, 0, ""});
    const wave::Waveform golden_out =
        golden_bench.run(topt).node_waveform(golden_bench.out_node());

    // 5. Compare: 50% delay and waveform RMSE (paper eq. (6)).
    const double t_from = stim.t_final - 0.2e-9;
    const double d_model =
        wave::delay_50(stim.a, false, model_out, true, tech.vdd, t_from)
            .value_or(-1);
    const double d_golden =
        wave::delay_50(stim.a, false, golden_out, true, tech.vdd, t_from)
            .value_or(-1);
    const double nrmse = wave::rmse_normalized(
        golden_out, model_out, t_from, t_from + 0.7e-9, tech.vdd);

    std::printf("golden delay: %.2f ps\n", d_golden * 1e12);
    std::printf("MCSM delay:   %.2f ps  (error %.2f%%)\n", d_model * 1e12,
                100.0 * std::fabs(d_model - d_golden) / d_golden);
    std::printf("waveform RMSE: %.2f%% of Vdd\n", 100.0 * nrmse);
    return 0;
}
