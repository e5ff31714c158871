// Observability demo/dump CLI: runs a small representative workload (one
// SIS characterization plus a transistor-level transient) so the obs
// registry has something to show, then prints the process-wide snapshot --
// counters, gauges and latency histograms with p50/p95/p99.
//
//   $ ./mcsm_obs_dump              human-readable table
//   $ ./mcsm_obs_dump --json       the same snapshot as JSON
//   $ ./mcsm_obs_dump --trace t.json
//                                  also capture a Chrome trace-event JSON
//                                  of the workload (load in Perfetto)
//
// Long-running tools surface the same data differently: timing_serverd
// answers a "stats" protocol line with it, and in any binary MCSM_OBS_JSON
// writes it as JSON at exit and MCSM_TRACE captures a trace, without any
// code changes.
#include <cstdio>
#include <string>

#include "cells/library.h"
#include "core/characterizer.h"
#include "engine/scenarios.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tech/tech130.h"

using namespace mcsm;

int main(int argc, char** argv) {
    bool json = false;
    std::string trace_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: mcsm_obs_dump [--json] [--trace <path>]\n");
            return arg == "--help" ? 0 : 1;
        }
    }

    if (!trace_path.empty()) {
        obs::TraceOptions topt;
        topt.path = trace_path;
        obs::start_trace(topt);
    }

    // Small workload: a coarse-grid SIS characterization (DC sweeps + cap
    // ramps) and one golden transient, touching the char.*, solver.* and
    // lint.* instrumentation.
    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);
    const core::Characterizer characterizer(lib);
    core::CharOptions options;
    options.transient_caps = false;
    options.grid_points = 5;
    const core::CsmModel inv = characterizer.characterize(
        "INV_X1", core::ModelKind::kSis, {"A"}, options);
    std::fprintf(stderr, "# characterized %s: %zu-D tables\n",
                 inv.cell_name.c_str(), inv.dim());

    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, tech.vdd);
    engine::GoldenCell golden(lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                              engine::LoadSpec{5e-15, 0, ""});
    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 1e-12;
    (void)golden.run(topt);

    if (!trace_path.empty()) {
        if (obs::stop_trace())
            std::fprintf(stderr, "# wrote trace %s\n", trace_path.c_str());
        else
            std::fprintf(stderr, "# cannot write trace %s\n",
                         trace_path.c_str());
    }

    const obs::Snapshot snap = obs::snapshot();
    std::fputs(json ? snap.to_json().c_str() : snap.format_human().c_str(),
               stdout);
    return 0;
}
