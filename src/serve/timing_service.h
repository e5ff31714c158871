// Batched timing query service over cached CSM models.
//
// Callers submit vectors of TimingQuery{cell, switching pins, input slews,
// per-pin skews, load, corner} and get TimingResult{delay, slew, optional
// waveform} back. The query schema covers the paper's full scenario space:
//  * MIS skew is a first-class query axis: two-pin arcs are served from
//    delay/slew surfaces over [slew_a, slew_b, skew_b, load] and three-pin
//    arcs over [slew_a, slew_b, slew_c, skew_b, skew_c, load], so near-
//    simultaneous and skewed input combinations interpolate through the MIS
//    valley instead of collapsing onto a single-input model.
//  * Loads are either a lumped cap or an RC pi network (c_near - r_wire -
//    c_far). Pi loads are served from the same linear-load surfaces through
//    an effective-capacitance iteration (resistive shielding of the far
//    cap, converged against the surface's own output slew); the exact path
//    attaches the real pi network. Delay/slew are always measured at the
//    cell output (the drive point).
//  * Queries carry a Vdd/temperature corner; corner models characterize on
//    miss against a derated technology card and cache like any other model
//    (see serve/repository.h), and every corner gets its own surfaces.
//
// Two evaluation paths:
//  * LUT fast path - multilinear interpolation into per-arc delay/slew
//    surfaces, built on first use by running the CSM transient at every
//    surface knot (fanned over the shared thread pool) and cached for the
//    service lifetime. Surface builds are single-flight: concurrent misses
//    on one arc build it once. With ServeOptions::surface_dir set, built
//    surfaces persist as single-entry packs <dir>/<arc>.mcsmpack and later
//    services map them (bit-identical, zero-parse) instead of re-running
//    the knot transients -- worth it for 3-pin arcs, whose default grid
//    costs ~2k transients.
//  * Transient exact path (query.exact / query.want_waveform) - one CSM
//    transient per query, returning the measured delay/slew and the output
//    waveform.
// Models come from a ModelRepository (memory -> served pack -> store ->
// on-demand characterization). Batch results are deterministic for any
// thread count: every query is an independent, single-threaded evaluation
// of immutable tables.
#ifndef MCSM_SERVE_TIMING_SERVICE_H
#define MCSM_SERVE_TIMING_SERVICE_H

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/single_flight.h"
#include "lut/ndtable.h"
#include "lut/table_view.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "wave/waveform.h"

namespace mcsm::serve {

struct TimingQuery {
    std::string cell;
    // 1 switching pin (SIS model) or 2-3 (MCSM model, skewed MIS).
    std::vector<std::string> pins;
    // Edge direction of the switching inputs; every library cell is
    // inverting, so the output edge is the opposite direction.
    bool inputs_rise = false;
    std::vector<double> slews;  // per-pin 0-100% input ramp [s]
    // Per-pin edge offsets [s] relative to the common edge time; empty
    // means all zero (simultaneous switching).
    std::vector<double> skews;
    double load_cap = 5e-15;  // linear output load [F]
    // Optional RC pi load (near cap - series R - far cap), active when
    // r_wire > 0; stacks on top of load_cap at the output node.
    double c_near = 0.0;  // [F]
    double r_wire = 0.0;  // [Ohm]
    double c_far = 0.0;   // [F]
    // Vdd/temperature operating point; default-constructed = nominal.
    Corner corner;
    bool exact = false;          // force the transient path
    bool want_waveform = false;  // implies the transient path

    bool has_pi_load() const { return r_wire > 0.0; }
};

enum class ResultPath { kLut, kTransient };

struct TimingResult {
    bool valid = false;
    // 50% crossing of the LATEST switching input to 50% crossing of the
    // output (the standard MIS delay reference), measured at the cell
    // output node (the drive point, for pi loads too).
    double delay = 0.0;
    double slew = 0.0;  // output 10-90% transition [s]
    ResultPath path = ResultPath::kLut;
    wave::Waveform waveform;  // output waveform (want_waveform only)
    std::string error;        // set when !valid
};

struct ServeOptions {
    // Surface knots for 1- and 2-pin arcs. Slew knots [s] parameterize
    // every switching pin; skew knots are DIMENSIONLESS normalized edge
    // offsets u (see ArcSurface above; u = +-1 means the edges' 50%
    // crossings are one mean-slew apart) and must bracket 0 so the
    // simultaneous-switching valley is a grid point.
    std::vector<double> slew_knots{20e-12, 80e-12, 200e-12, 400e-12};
    std::vector<double> skew_knots{-3.0, -1.2, -0.5, 0.0, 0.5, 1.2, 3.0};
    std::vector<double> load_knots{1e-15, 4e-15, 16e-15, 32e-15};
    // Surface knots for 3-pin arcs ([slew_a, slew_b, slew_c, skew_max,
    // skew_diff, load]; skew_knots_mis3 parameterizes the max of the two
    // normalized edge offsets, skew_pair_knots_mis3 their difference --
    // see ArcSurface). Deliberately coarser: the knot count multiplies as
    // slews^3 * skew_max * skew_diff * loads, one CSM transient per knot
    // -- the defaults below already cost 27 * 25 * 3 = 2025 transients per
    // arc (vs 448 for a 2-pin arc). Widen them only with surface_dir
    // persistence on.
    std::vector<double> slew_knots_mis3{30e-12, 120e-12, 400e-12};
    std::vector<double> skew_knots_mis3{-2.5, -1.0, 0.0, 1.0, 2.5};
    std::vector<double> skew_pair_knots_mis3{-2.0, -0.6, 0.0, 0.6, 2.0};
    std::vector<double> load_knots_mis3{1e-15, 8e-15, 32e-15};
    // Base transient step of the evaluators [s]. Every evaluator transient
    // (surface knot builds and exact queries share the path, so LUT and
    // exact answers stay consistent) runs LTE-adaptive with Jacobian reuse
    // (spice::fast_tran_options) from this step.
    double dt = 2e-12;
    double settle = 2e-9;   // post-edge simulation window [s]
    std::size_t threads = 0;  // batch fan-out (0: all cores)
    // Directory of persisted arc surfaces, one single-entry pack per arc
    // (empty: in-memory only). Loaded surfaces are served zero-parse off
    // their own mapping; stale files (different knots/dt/settle/model) are
    // rebuilt and replaced, never served.
    std::string surface_dir;
    // Optional mmap'd pack (serve/mapped_store) consulted BEFORE
    // surface_dir: a matching packed surface is served zero-parse straight
    // off the mapping (TableViews into the mapped bytes, no copy, no
    // transients), validated against the pack's own model entry so a stale
    // model/surface pairing is rebuilt, never served. The pack is
    // hot-reloadable: PackHost::refresh() swaps mappings, and the surface
    // cache is keyed by the pack generation so post-reload queries re-
    // resolve while in-flight batches finish on the retired mapping.
    std::shared_ptr<PackHost> pack;
};

class TimingService {
public:
    // Validates `options` up front (monotone knot vectors, skew knots
    // bracketing 0, positive dt/settle); throws ModelError on a bad
    // configuration rather than serving garbage later.
    TimingService(ModelRepository& repo, ServeOptions options = {});

    TimingService(const TimingService&) = delete;
    TimingService& operator=(const TimingService&) = delete;

    // Executes the batch over the shared thread pool; results come back in
    // query order. Per-query failures land in TimingResult::error instead
    // of aborting the batch. Characterizes models and builds surfaces on
    // miss, so a cold arc can block for seconds.
    std::vector<TimingResult> run_batch(std::span<const TimingQuery> queries);

    // Non-blocking counterpart of run_batch, sharing its two phases: looks
    // up each distinct arc once without producing it (no characterization,
    // no surface build, no store file read, no wait on a production),
    // answers every invalid query and every query whose surface (LUT) or
    // model (exact) is already resident, and returns the ascending indices
    // of the queries it left unanswered. A LUT surface the served pack
    // holds counts as resident: it is adopted on the spot, which counts
    // serve.surface.pack_loads; no other serve.surface.* or serve.model.*
    // counter moves. A model the pack holds but nobody fetched yet is not
    // resident (materializing copies and audits its tables). `results` is
    // resized to the batch; the entries at the returned indices stay
    // default. Answers equal run_batch's bit for bit.
    std::vector<std::size_t> run_resident(std::span<const TimingQuery> queries,
                                          std::vector<TimingResult>& results);

    TimingResult run_one(const TimingQuery& query);

    // Delay/slew surfaces built or loaded so far.
    std::size_t surface_count() const;
    // Surfaces served from the pack or surface_dir instead of being
    // rebuilt.
    std::size_t surface_load_count() const { return surface_loads_; }

    const ServeOptions& options() const { return options_; }

private:
    // Immutable per-arc delay/slew surfaces: axes [slew, load] for one-pin
    // arcs, [slew_a, slew_b, skew_b, load] for two-pin arcs, and
    // [slew_a, slew_b, slew_c, skew_max, skew_diff, load] for three-pin
    // arcs.
    //
    // Two parameterization choices keep the interpolated functions smooth
    // where multilinear interpolation would otherwise break the 5%-class
    // accuracy budget:
    //  * The skew axes hold the NORMALIZED 50%-CROSSING OFFSET of pin p's
    //    edge relative to pin 0's,
    //        u_p = delta_p / ((slew_0 + slew_p)/2),
    //        delta_p = skew_p - skew_0 + (slew_p - slew_0)/2,
    //    not the raw edge-start skew. Two reasons: the MIS valley and the
    //    which-edge-dominates ridge live at delta ~ 0 for every slew
    //    combination (so they align with a grid plane instead of cutting
    //    diagonally through cells), and the WIDTH of that transition
    //    region scales with the ramp overlap, i.e. with the slews -- in u
    //    the transition occupies |u| <~ 1 for every slew combination, so a
    //    single knot vector is dense where the curvature lives. Beyond the
    //    transition the delay is (bi)linear in u and slews, which
    //    multilinear interpolation reproduces exactly.
    //  * The delay table stores the output 50% crossing referenced to PIN
    //    0's input edge, not to the latest edge: the latest-edge reference
    //    has a slope discontinuity wherever the latest input changes
    //    identity (delta crossing 0), which interpolation tracks poorly.
    //    The pin-0 reference is smooth there; eval_lut converts to the
    //    standard latest-edge delay with the exact analytic shift
    //    max_p(delta_p, 0).
    //  * Queries whose normalized offsets fall OUTSIDE the skew-knot hull
    //    are served by linear extrapolation along the skew axes (the
    //    tails are linear by construction), so a far-skewed MIS query
    //    degrades to the single-late-input answer instead of a
    //    clamped-coordinate artifact.
    //  * Three-pin arcs do NOT use (u_b, u_c) directly: the which-of-B/C-
    //    fires-last transition is a DIAGONAL ridge (u_b ~ u_c) that
    //    axis-aligned knots cannot track. The axes are instead
    //    skew_max = max(u_b, u_c) and skew_diff = u_b - u_c, which
    //    rotate both that ridge (skew_diff = 0) and the pin-0 transition
    //    (skew_max = 0) onto grid planes; the late-edge tail is linear in
    //    skew_max and flat in skew_diff, which multilinear interpolation
    //    reproduces exactly. The mapping is bijective: given (m, d),
    //    u_b = m, u_c = m - d for d >= 0, else u_c = m, u_b = m + d.
    struct ArcSurface {
        // Owned tables, populated when the surface was built in this
        // process; left empty for surfaces served off a mapping.
        lut::NdTable delay_owned;
        lut::NdTable slew_owned;
        // The evaluation handles: views over the owned tables or straight
        // into a mapping. Every eval goes through lut::TableView's single
        // interpolation kernel, so owned and mapped serving are
        // bitwise-identical by construction.
        lut::TableView delay;
        lut::TableView slew;
        // Pins the mapping the views borrow from (the served pack or a
        // surface_dir file; null for owned surfaces): a hot reload or a
        // rebuilt file cannot munmap a mapping this surface still
        // references.
        std::shared_ptr<const MappedPack> pack;
    };
    using SurfacePtr = std::shared_ptr<const ArcSurface>;

    // run_batch (`produce`) and run_resident: phase 1 produces (or only
    // looks up) each distinct arc once, phase 2 evaluates every query whose
    // arc is resident. Returns the indices of the queries left unanswered
    // (never any with `produce`).
    std::vector<std::size_t> run_phases(std::span<const TimingQuery> queries,
                                        std::vector<TimingResult>& results,
                                        bool produce);

    static void validate(const TimingQuery& query);
    static std::string arc_id(const TimingQuery& query);
    std::string surface_path(const std::string& arc_id) const;

    std::vector<lut::Axis> surface_axes(std::size_t pin_count) const;

    // Single-flight lookup/build of the arc surface for `query`.
    SurfacePtr surface_for(const TimingQuery& query);
    SurfacePtr build_surface(const TimingQuery& query);
    // The surface for `query` when it is cached or the served pack holds
    // it (adopted and cached on the spot); null otherwise. Never builds,
    // characterizes, reads a store file or waits on a production.
    SurfacePtr resident_surface(const TimingQuery& query);
    // The served pack's surface `id` for model `key`, when the pack holds
    // a valid one (serve.surface.pack_loads); null otherwise.
    SurfacePtr pack_surface(const std::string& id, const ModelKey& key,
                            const std::vector<lut::Axis>& axes);
    // The one acceptance check for persisted surfaces (served pack or
    // surface_dir): serves `pack`'s entry `id` when its arc id, dt,
    // settle, axes and source-model checksum all match; nullptr otherwise.
    SurfacePtr adopt_surface(std::shared_ptr<const MappedPack> pack,
                             const std::string& id,
                             std::uint64_t model_check,
                             const std::vector<lut::Axis>& axes);

    // Effective lumped capacitance of the query's load as seen from the
    // cell output around the 50% crossing: load_cap for lumped loads, the
    // converged shielded cap for pi loads (iterates against the surface's
    // slew table through `coords`, whose cap slot it clobbers). Feeds the
    // delay lookup; the slew lookup uses the full lumped cap (see
    // eval_lut).
    double effective_cap(const ArcSurface& surface,
                         const TimingQuery& query,
                         std::vector<double>& coords) const;

    TimingResult eval_lut(const ArcSurface& surface,
                          const TimingQuery& query) const;
    // `ref_pin0` switches the delay reference from the latest input edge
    // (the query contract) to pin 0's edge (the surface-build contract, see
    // ArcSurface).
    TimingResult eval_transient(const core::CsmModel& model,
                                const TimingQuery& query,
                                bool ref_pin0 = false) const;

    // Cache key of `arc` under the current pack generation (plain arc id
    // without a pack); detects generation changes and evicts surfaces of
    // retired generations so old mappings can actually munmap.
    std::string surface_cache_key(const std::string& arc);

    ModelRepository* repo_;
    ServeOptions options_;

    SingleFlightCache<ArcSurface> surfaces_;
    std::atomic<std::size_t> surface_loads_{0};
    std::atomic<std::uint64_t> surface_generation_{0};
};

}  // namespace mcsm::serve

#endif  // MCSM_SERVE_TIMING_SERVICE_H
