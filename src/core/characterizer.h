// Model characterization (paper Section 3.3).
//
// Current sources Io / IN: DC sweeps of every modeled node over a grid
// spanning [-dv, Vdd+dv] (the paper's safety margin, the technology's
// dv_margin), measuring the current each forcing source delivers into the
// cell.
//
// Capacitances Cm/Co/CN: SPICE-style transient analyses -- one node is
// driven with a saturated ramp while the others are held at DC grid values;
// the capacitive component of each measured source current (total minus the
// DC current at the instantaneous bias) divided by the ramp slope gives the
// capacitance, averaged over two ramp slopes as the paper prescribes.
// A fast "model linearization" mode (transient_caps = false) computes the
// same quantities directly from the MOSFET small-signal capacitances: each
// DUT MOSFET's caps are evaluated once per grid point and every cap table
// sums the terminal pairs its node rule takes. Every serve-tier
// characterize-on-miss uses it (3-pin arcs always); an ablation bench shows
// the two modes agree.
//
// Input (receiver) capacitances: 1-D in the input voltage, extracted with
// the output tied to DC (paper's eq. (3) discussion), averaged over the two
// output rails and two slopes.
#ifndef MCSM_CORE_CHARACTERIZER_H
#define MCSM_CORE_CHARACTERIZER_H

#include <cstddef>
#include <string>
#include <vector>

#include "cells/library.h"
#include "core/model.h"

namespace mcsm::core {

struct CharOptions {
    std::size_t grid_points = 11;  // knots per voltage axis (>= 4)
    bool transient_caps = true;    // paper-faithful ramp extraction
    double cap_ramp = 150e-12;     // primary ramp duration (0-100%) [s]
    double cap_ramp2 = 300e-12;    // second slope averaged in [s]
    // Base transient step for cap extraction [s]. The ramps run LTE-adaptive
    // with Jacobian reuse (spice::fast_tran_options), with dt_max = 8 * dt
    // so the current samples stay dense enough to interpolate.
    double dt = 1.5e-12;
    std::size_t cin_points = 13;   // knots of the 1-D input-cap tables
    // Extract pin -> internal-node Miller caps (extension; the paper
    // neglects them). When false the tables are zero and CN absorbs all
    // capacitance incident to the stack node, exactly as in the paper.
    bool internal_miller = true;
    // Worker threads for the grid sweeps (0: all cores, see MCSM_THREADS).
    // Every parallel_for slot runs its own testbench fixture and solver
    // workspace and writes disjoint table slots. The DC sweep is bitwise
    // identical for any thread count or claim order: each first-axis slice
    // runs its own blocked solve_dc_sweep with a fresh pivot order and a
    // slice-local warm-start chain (so shortcut characterizations —
    // transient_caps false — are fully deterministic; the transient cap
    // extraction remains reproducible to solver tolerance, its slot
    // fixtures reuse frozen pivot orders across combos).
    std::size_t threads = 0;
};

class Characterizer {
public:
    explicit Characterizer(const cells::CellLibrary& lib);

    // Characterizes `cell_name` with the given switching pins.
    //  kSis:         switching_pins must name exactly one input.
    //  kMisBaseline: two inputs, internal nodes left free (not modeled).
    //  kMcsm:        one or two inputs; every internal node of the cell is
    //                modeled (forced during characterization).
    // Remaining inputs are held at their non-controlling values.
    CsmModel characterize(const std::string& cell_name, ModelKind kind,
                          const std::vector<std::string>& switching_pins,
                          const CharOptions& options = {}) const;

private:
    const cells::CellLibrary* lib_;
};

}  // namespace mcsm::core

#endif  // MCSM_CORE_CHARACTERIZER_H
