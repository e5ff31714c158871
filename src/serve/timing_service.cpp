#include "serve/timing_service.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "core/model_scenarios.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/tran_solver.h"
#include "wave/edges.h"
#include "wave/metrics.h"

namespace mcsm::serve {

namespace {

namespace fs = std::filesystem;

// Quiet interval before the earliest input edge, so the t=0 operating
// point settles on the pre-transition state.
constexpr double kEdgePad = 100e-12;

constexpr std::size_t kMaxPins = 3;

double skew_of(const TimingQuery& q, std::size_t p) {
    return q.skews.empty() ? 0.0 : q.skews[p];
}

// 50%-crossing offset of pin p's edge relative to pin 0's. Only
// DIFFERENCES relative to pin 0 matter; absolute skews shift the whole
// experiment.
double edge_offset(const TimingQuery& q, std::size_t p) {
    return (skew_of(q, p) - skew_of(q, 0)) +
           0.5 * (q.slews[p] - q.slews[0]);
}

// Slew scale the skew axis is normalized by (see ArcSurface in the
// header): the mean of the two ramp durations involved.
double slew_scale(double slew_0, double slew_p) {
    return 0.5 * (slew_0 + slew_p);
}

// Normalized edge offset of pin p (the u coordinate).
double u_of(const TimingQuery& q, std::size_t p) {
    return edge_offset(q, p) / slew_scale(q.slews[0], q.slews[p]);
}

// Surface coordinates of `q` with the load axis pinned to `cap` (the
// effective lumped load). Two-pin arcs use u_b directly; three-pin arcs
// use the rotated (max, diff) coordinates -- see ArcSurface in the header.
std::vector<double> lut_coords(const TimingQuery& q, double cap) {
    std::vector<double> x;
    x.reserve(2 * q.pins.size());
    for (double s : q.slews) x.push_back(s);
    if (q.pins.size() == 2) {
        x.push_back(u_of(q, 1));
    } else if (q.pins.size() == 3) {
        const double u_b = u_of(q, 1);
        const double u_c = u_of(q, 2);
        x.push_back(std::max(u_b, u_c));
        x.push_back(u_b - u_c);
    }
    x.push_back(cap);
    return x;
}

void check_knots(const std::string& name, const std::vector<double>& knots,
                 bool positive) {
    // lut::Axis needs at least two knots; reject here so a degenerate
    // configuration fails at construction, not per-query at build time.
    require(knots.size() >= 2,
            "ServeOptions: " + name + " knot vector needs >= 2 knots");
    for (std::size_t i = 0; i < knots.size(); ++i) {
        require(std::isfinite(knots[i]),
                "ServeOptions: non-finite " + name + " knot");
        require(!positive || knots[i] > 0.0,
                "ServeOptions: " + name + " knots must be positive");
        require(i == 0 || knots[i] > knots[i - 1],
                "ServeOptions: " + name +
                    " knots must be strictly increasing");
    }
}

void check_skew_knots(const std::string& name,
                      const std::vector<double>& knots) {
    check_knots(name, knots, /*positive=*/false);
    require(knots.front() <= 0.0 && knots.back() >= 0.0,
            "ServeOptions: " + name +
                " knots must bracket 0 (the simultaneous-switching valley)");
    // Skew knots are normalized edge offsets (order 1): an axis spanning
    // less than a milli-slew is almost certainly raw seconds from the
    // pre-normalized schema, and one tens of mean-slews wide is garbage.
    require(knots.back() - knots.front() >= 1e-3 &&
                std::fabs(knots.front()) <= 20.0 && knots.back() <= 20.0,
            "ServeOptions: " + name +
                " knots are normalized edge offsets (dimensionless, order "
                "1), not seconds");
}

void validate_options(const ServeOptions& o) {
    check_knots("slew", o.slew_knots, /*positive=*/true);
    check_skew_knots("skew", o.skew_knots);
    check_knots("load", o.load_knots, /*positive=*/false);
    check_knots("3-pin slew", o.slew_knots_mis3, /*positive=*/true);
    check_skew_knots("3-pin skew", o.skew_knots_mis3);
    check_skew_knots("3-pin skew-pair", o.skew_pair_knots_mis3);
    check_knots("3-pin load", o.load_knots_mis3, /*positive=*/false);
    require(o.load_knots.front() >= 0.0 && o.load_knots_mis3.front() >= 0.0,
            "ServeOptions: load knots must be non-negative");
    require(std::isfinite(o.dt) && o.dt > 0.0,
            "ServeOptions: dt must be positive");
    require(std::isfinite(o.settle) && o.settle > 0.0,
            "ServeOptions: settle must be positive");
}

}  // namespace

TimingService::TimingService(ModelRepository& repo, ServeOptions options)
    : repo_(&repo), options_(std::move(options)) {
    validate_options(options_);
    // Same orphan policy as the model repository: sweep "*.tmp.*"
    // droppings a dead writer left in the surface store, but never a
    // potentially live writer's in-flight temp.
    if (!options_.surface_dir.empty())
        clean_orphan_temps(options_.surface_dir, 3600);
}

void TimingService::validate(const TimingQuery& q) {
    // Messages that carry query values are built only on failure: a valid
    // query allocates nothing here.
    require(!q.cell.empty(), "TimingQuery: empty cell name");
    if (q.pins.size() < 1 || q.pins.size() > kMaxPins)
        throw ModelError("TimingQuery: need 1 to 3 switching pins, got " +
                         std::to_string(q.pins.size()));
    for (std::size_t p = 0; p < q.pins.size(); ++p) {
        require(!q.pins[p].empty(), "TimingQuery: empty pin name");
        for (std::size_t r = p + 1; r < q.pins.size(); ++r)
            if (q.pins[p] == q.pins[r])
                throw ModelError("TimingQuery: duplicate switching pin " +
                                 q.pins[p]);
    }
    if (q.slews.size() != q.pins.size())
        throw ModelError(
            "TimingQuery: need one input slew per switching pin (" +
            std::to_string(q.pins.size()) + " pins, " +
            std::to_string(q.slews.size()) + " slews)");
    if (!q.skews.empty() && q.skews.size() != q.pins.size())
        throw ModelError(
            "TimingQuery: skews must be empty or one per switching pin (" +
            std::to_string(q.pins.size()) + " pins, " +
            std::to_string(q.skews.size()) + " skews)");
    for (double s : q.slews)
        require(std::isfinite(s) && s > 0.0,
                "TimingQuery: input slews must be positive and finite");
    for (double s : q.skews)
        require(std::isfinite(s), "TimingQuery: non-finite input skew");
    require(std::isfinite(q.load_cap) && q.load_cap >= 0.0,
            "TimingQuery: negative load capacitance");
    require(std::isfinite(q.c_near) && q.c_near >= 0.0 &&
                std::isfinite(q.c_far) && q.c_far >= 0.0,
            "TimingQuery: negative pi-load capacitance");
    require(std::isfinite(q.r_wire) && q.r_wire >= 0.0,
            "TimingQuery: negative pi-load wire resistance");
    require(q.r_wire > 0.0 || (q.c_near == 0.0 && q.c_far == 0.0),
            "TimingQuery: pi-load caps given without r_wire > 0 (fold them "
            "into load_cap or set r_wire)");
    require(std::isfinite(q.corner.vdd) &&
                (q.corner.vdd <= 0.0 ||
                 (q.corner.vdd >= 0.3 && q.corner.vdd <= 5.0)),
            "TimingQuery: corner vdd outside [0.3, 5] V (0 = nominal)");
    require(std::isfinite(q.corner.temp_c) && q.corner.temp_c >= -100.0 &&
                q.corner.temp_c <= 300.0,
            "TimingQuery: corner temperature outside [-100, 300] degC");
}

std::string TimingService::arc_id(const TimingQuery& q) {
    std::string id = q.cell;
    id += '|';
    for (std::size_t p = 0; p < q.pins.size(); ++p) {
        if (p) id += '-';
        id += q.pins[p];
    }
    id += '|';
    id += q.inputs_rise ? 'R' : 'F';
    const std::string tag = q.corner.tag();
    if (!tag.empty()) {
        id += '|';
        id += tag;
    }
    return id;
}

std::string TimingService::surface_path(const std::string& arc_id) const {
    if (options_.surface_dir.empty()) return {};
    std::string stem = arc_id;
    std::replace(stem.begin(), stem.end(), '|', '.');
    return options_.surface_dir + "/" + stem + kPackExt;
}

std::vector<lut::Axis> TimingService::surface_axes(
    std::size_t pin_count) const {
    const bool mis3 = pin_count >= 3;
    const std::vector<double>& slews =
        mis3 ? options_.slew_knots_mis3 : options_.slew_knots;
    const std::vector<double>& skews =
        mis3 ? options_.skew_knots_mis3 : options_.skew_knots;
    const std::vector<double>& loads =
        mis3 ? options_.load_knots_mis3 : options_.load_knots;

    static constexpr const char* kSlewNames[kMaxPins] = {"slew_a", "slew_b",
                                                         "slew_c"};
    std::vector<lut::Axis> axes;
    if (pin_count == 1) {
        axes.emplace_back("slew", slews);
    } else if (pin_count == 2) {
        axes.emplace_back(kSlewNames[0], slews);
        axes.emplace_back(kSlewNames[1], slews);
        axes.emplace_back("skew_b", skews);
    } else {
        for (std::size_t p = 0; p < pin_count; ++p)
            axes.emplace_back(kSlewNames[p], slews);
        axes.emplace_back("skew_max", skews);
        axes.emplace_back("skew_diff", options_.skew_pair_knots_mis3);
    }
    axes.emplace_back("load", loads);
    return axes;
}

TimingResult TimingService::eval_transient(const core::CsmModel& model,
                                           const TimingQuery& q,
                                           bool ref_pin0) const {
    const double vdd = model.vdd;
    const double v0 = q.inputs_rise ? 0.0 : vdd;
    const double v1 = vdd - v0;
    const bool output_rising = !q.inputs_rise;

    double min_skew = 0.0;
    double max_skew = 0.0;
    double max_slew = 0.0;
    for (std::size_t p = 0; p < q.pins.size(); ++p) {
        min_skew = std::min(min_skew, skew_of(q, p));
        max_skew = std::max(max_skew, skew_of(q, p));
        max_slew = std::max(max_slew, q.slews[p]);
    }
    const double t_edge = kEdgePad - std::min(0.0, min_skew);

    std::unordered_map<std::string, wave::Waveform> inputs;
    double ref_t50 = -1e300;  // 50% crossing of the latest input edge
    for (std::size_t p = 0; p < q.pins.size(); ++p) {
        const double t_start = t_edge + skew_of(q, p);
        inputs[q.pins[p]] =
            wave::saturated_ramp(t_start, q.slews[p], v0, v1);
        ref_t50 = std::max(ref_t50, t_start + 0.5 * q.slews[p]);
    }
    if (ref_pin0)
        ref_t50 = t_edge + skew_of(q, 0) + 0.5 * q.slews[0];

    core::ModelLoadSpec load;
    load.cap = q.load_cap;
    if (q.has_pi_load()) {
        load.pi_c1 = q.c_near;
        load.pi_r = q.r_wire;
        load.pi_c2 = q.c_far;
    }
    core::ModelCell cell(model, inputs, load);

    // The far cap charges through r_wire; give its time constant room to
    // settle inside the window.
    const double tstop = t_edge + max_skew + max_slew + options_.settle +
                         5.0 * q.r_wire * q.c_far;
    const spice::TranResult tran =
        cell.run(spice::fast_tran_options(tstop, options_.dt));
    const wave::Waveform out = tran.node_waveform(cell.out_node());

    TimingResult result;
    result.path = ResultPath::kTransient;
    const auto out_t50 = wave::crossing(out, vdd, 0.5, output_rising);
    const auto out_slew = wave::slew_10_90(out, vdd, output_rising);
    if (!out_t50 || !out_slew) {
        result.error = "output never completed the " +
                       std::string(output_rising ? "rising" : "falling") +
                       " transition within the simulation window";
        return result;
    }
    result.valid = true;
    result.delay = *out_t50 - ref_t50;
    result.slew = *out_slew;
    if (q.want_waveform) result.waveform = out;
    return result;
}

TimingService::SurfacePtr TimingService::adopt_surface(
    std::shared_ptr<const MappedPack> pack, const std::string& id,
    std::uint64_t model_check, const std::vector<lut::Axis>& axes) {
    // Accepted only when identity, evaluation parameters, axes AND the
    // source-model checksum match the current state exactly; anything
    // else (stale knots, different dt, a re-characterized model) is
    // rebuilt, never served.
    const MappedSurface* mapped = pack->find_surface(id);
    const auto axes_match = [&](const lut::TableView& t) {
        if (t.rank() != axes.size()) return false;
        for (std::size_t d = 0; d < axes.size(); ++d) {
            const lut::TableView::AxisView& ax = t.axis(d);
            const std::vector<double>& knots = axes[d].knots();
            if (ax.name != axes[d].name() ||
                !std::equal(ax.knots.begin(), ax.knots.end(), knots.begin(),
                            knots.end()))
                return false;
        }
        return true;
    };
    if (mapped == nullptr || mapped->arc_id != id ||
        mapped->dt != options_.dt || mapped->settle != options_.settle ||
        model_check == 0 || mapped->model_check != model_check ||
        !axes_match(mapped->delay) || !axes_match(mapped->slew))
        return nullptr;
    auto surface = std::make_shared<ArcSurface>();
    surface->delay = mapped->delay;
    surface->slew = mapped->slew;
    surface->pack = std::move(pack);
    ++surface_loads_;
    return surface;
}

TimingService::SurfacePtr TimingService::pack_surface(
    const std::string& id, const ModelKey& key,
    const std::vector<lut::Axis>& axes) {
    // The served pack is checked against its own model entry, so it needs
    // no model fetch (which could trigger characterization): a pack is a
    // consistent snapshot or it is ignored entry-by-entry.
    if (!options_.pack) return nullptr;
    std::shared_ptr<const MappedPack> pack = options_.pack->current();
    const std::uint64_t check = pack->model_check(key.to_string());
    SurfacePtr s = adopt_surface(std::move(pack), id, check, axes);
    if (s) obs::counter("serve.surface.pack_loads").add();
    return s;
}

TimingService::SurfacePtr TimingService::build_surface(
    const TimingQuery& q) {
    const std::string id = arc_id(q);
    const obs::Span span("serve.build_surface", id);
    const std::vector<lut::Axis> axes = surface_axes(q.pins.size());
    const ModelKey key = ModelKey::arc(q.cell, q.pins, q.corner);

    // Both persisted sources are mappings: serve TableViews pointing
    // straight into them -- no parse, no copy.
    if (SurfacePtr s = pack_surface(id, key, axes)) return s;

    const std::shared_ptr<const core::CsmModel> model = repo_->get(key);
    const std::uint64_t model_check = model_checksum(*model);

    // The store's single-entry pack is checked against the repository's
    // model; a corrupt or stale file is rebuilt and replaced below.
    const std::string path = surface_path(id);
    std::error_code ec;
    if (!path.empty() && fs::exists(path, ec)) {
        try {
            if (SurfacePtr s = adopt_surface(MappedPack::map(path), id,
                                             model_check, axes)) {
                obs::counter("serve.surface.disk_loads").add();
                return s;
            }
        } catch (const ModelError&) {
            // Corrupt file: rebuilt and replaced below.
        }
    }

    auto surface = std::make_shared<ArcSurface>();
    surface->delay_owned = lut::NdTable(axes, id + ".delay");
    surface->slew_owned = lut::NdTable(axes, id + ".slew");

    // Enumerate the grid sequentially, then fan the independent transient
    // evaluations out over the pool; every point writes disjoint slots, so
    // the tables are identical for any thread count.
    std::vector<std::vector<std::size_t>> points;
    std::vector<std::size_t> idx(axes.size(), 0);
    for (;;) {
        points.push_back(idx);
        std::size_t d = axes.size();
        while (d > 0) {
            --d;
            if (++idx[d] < axes[d].size()) break;
            idx[d] = 0;
            if (d == 0) break;
        }
        if (idx == std::vector<std::size_t>(axes.size(), 0)) break;
    }

    const std::size_t n_pins = q.pins.size();
    parallel_for(
        points.size(),
        [&](std::size_t i) {
            const std::vector<std::size_t>& at = points[i];
            TimingQuery knot;
            knot.cell = q.cell;
            knot.pins = q.pins;
            knot.inputs_rise = q.inputs_rise;
            knot.corner = q.corner;
            if (n_pins == 1) {
                knot.slews = {axes[0].knots()[at[0]]};
                knot.load_cap = axes[1].knots()[at[1]];
            } else {
                knot.slews.resize(n_pins);
                knot.skews.assign(n_pins, 0.0);
                for (std::size_t p = 0; p < n_pins; ++p)
                    knot.slews[p] = axes[p].knots()[at[p]];
                // Recover the per-pin normalized offsets from the skew
                // axes (u_b directly for 2-pin arcs; the (max, diff)
                // rotation inverted for 3-pin arcs), then denormalize and
                // convert to the edge-start skew the stimulus needs (the
                // half-slew term cancels the 50%-crossing difference of
                // unequal ramps).
                double u[kMaxPins] = {0.0, 0.0, 0.0};
                if (n_pins == 2) {
                    u[1] = axes[2].knots()[at[2]];
                } else {
                    const double m = axes[3].knots()[at[3]];
                    const double d = axes[4].knots()[at[4]];
                    u[1] = d >= 0.0 ? m : m + d;
                    u[2] = d >= 0.0 ? m - d : m;
                }
                for (std::size_t p = 1; p < n_pins; ++p) {
                    const double delta =
                        u[p] * slew_scale(knot.slews[0], knot.slews[p]);
                    knot.skews[p] =
                        delta - 0.5 * (knot.slews[p] - knot.slews[0]);
                }
                knot.load_cap = axes[2 * n_pins - 1].knots()[at[2 * n_pins - 1]];
            }
            const TimingResult r =
                eval_transient(*model, knot, /*ref_pin0=*/true);
            require(r.valid, "TimingService: surface grid point failed for " +
                                 id + ": " + r.error);
            surface->delay_owned.set_grid_value(at, r.delay);
            surface->slew_owned.set_grid_value(at, r.slew);
        },
        options_.threads);
    surface->delay = lut::TableView::of(surface->delay_owned);
    surface->slew = lut::TableView::of(surface->slew_owned);

    if (!path.empty()) {
        // Persistence is an optimization: a full-disk or unwritable
        // surface_dir must not discard the perfectly good surface just
        // built (and trigger a full-grid rebuild on every batch) -- serve
        // from memory, count the failure, and let the next service
        // instance retry the write. Publication is a rename, so a service
        // still mapping the replaced file keeps valid pages.
        try {
            fs::create_directories(options_.surface_dir);
            ArcSurfaceData data;
            data.arc_id = id;
            data.dt = options_.dt;
            data.settle = options_.settle;
            data.model_check = model_check;
            data.delay = surface->delay_owned;
            data.slew = surface->slew_owned;
            PackWriter writer;
            writer.add_surface(id, data);
            writer.write(path);
        } catch (const std::exception&) {
            obs::counter("serve.store.write_failures").add();
        }
    }

    return surface;
}

std::string TimingService::surface_cache_key(const std::string& arc) {
    if (!options_.pack) return arc;
    // Key by pack generation: after a hot reload, queries re-resolve
    // against the new mapping instead of serving stale cached surfaces.
    // On the first query of a new generation, evict every completed
    // surface of older generations -- they are the last references pinning
    // the retired mapping (in-flight batches still hold theirs until the
    // batch returns).
    const std::uint64_t gen = options_.pack->generation();
    std::uint64_t seen = surface_generation_.load(std::memory_order_acquire);
    const std::string prefix = "g" + std::to_string(gen) + "|";
    if (seen != gen &&
        surface_generation_.compare_exchange_strong(
            seen, gen, std::memory_order_acq_rel)) {
        surfaces_.erase_ready_if([&](const std::string& key) {
            return key.compare(0, prefix.size(), prefix) != 0;
        });
    }
    return prefix + arc;
}

TimingService::SurfacePtr TimingService::surface_for(const TimingQuery& q) {
    static obs::Counter& hits = obs::counter("serve.surface.hit");
    static obs::Counter& misses = obs::counter("serve.surface.miss");
    static obs::Counter& waits = obs::counter("serve.surface.wait");
    // Same single-flight contract as the repository: concurrent misses
    // build once, failures are never cached.
    CacheOutcome outcome = CacheOutcome::kHit;
    SurfacePtr surface = surfaces_.get_or_produce(
        surface_cache_key(arc_id(q)), [&] { return build_surface(q); },
        &outcome);
    switch (outcome) {
        case CacheOutcome::kHit: hits.add(); break;
        case CacheOutcome::kMiss: misses.add(); break;
        case CacheOutcome::kWait: waits.add(); break;
    }
    return surface;
}

TimingService::SurfacePtr TimingService::resident_surface(
    const TimingQuery& q) {
    const std::string id = arc_id(q);
    const std::string key = surface_cache_key(id);
    if (SurfacePtr s = surfaces_.find(key)) return s;
    // A surface the served pack holds is a lookup in a mapping, not a
    // build: adopt it here. Anything else is left to a producing caller.
    SurfacePtr s = pack_surface(id, ModelKey::arc(q.cell, q.pins, q.corner),
                                surface_axes(q.pins.size()));
    if (s) surfaces_.put(key, s);
    return s;
}

double TimingService::effective_cap(const ArcSurface& surface,
                                    const TimingQuery& q,
                                    std::vector<double>& coords) const {
    if (!q.has_pi_load()) return q.load_cap;
    const double ctot = q.load_cap + q.c_near + q.c_far;
    const double tau = q.r_wire * q.c_far;
    if (tau <= 0.0) return ctot;
    // Resistive shielding: during an output ramp of duration T the far
    // cap, charged through r_wire, draws the charge of an equivalent
    // lumped cap k * c_far with k = 1 - (tau/T) * (1 - exp(-T/tau)). The
    // delay is set by the 50% crossing, so the averaging window is the
    // FIRST HALF of the ramp (where the relative lag is largest); the ramp
    // duration depends on the load, so iterate against the surface's own
    // slew table, reusing the caller's coordinate vector (only the cap
    // slot changes between rounds).
    double ceff = ctot;
    for (int iter = 0; iter < 4; ++iter) {
        coords.back() = ceff;
        const double slew_out = std::max(surface.slew.at(coords), 1e-12);
        const double t_half = 0.5 * slew_out / 0.8;  // 10-90% -> half ramp
        const double r = tau / t_half;
        const double k = 1.0 - r * (1.0 - std::exp(-1.0 / r));
        const double next = q.load_cap + q.c_near + k * q.c_far;
        // Exact-equality early exit: further rounds would reproduce the
        // same value, so this cannot change results, only skip work.
        if (next == ceff) break;
        ceff = next;
    }
    return ceff;
}

namespace {

// Evaluates `table` at `coords`, linearly extrapolating along the SKEW
// axes when the query lies outside their hull (axes [first_skew,
// first_skew + n_skew)). The stored functions are linear in the skew
// coordinates beyond the dominance transition by construction (tail
// regions, see ArcSurface), so edge-gradient extrapolation returns the
// single-late-input answer instead of a clamped-coordinate artifact whose
// delay error would grow linearly with the excess skew. Slew/load axes
// keep the plain clamping of NdTable::at.
double eval_skew_extrapolated(const lut::TableView& table,
                              std::span<const double> coords,
                              std::size_t first_skew, std::size_t n_skew) {
    bool outside = false;
    for (std::size_t i = first_skew; i < first_skew + n_skew; ++i) {
        const lut::TableView::AxisView& ax = table.axis(i);
        outside = outside || coords[i] < ax.lo() || coords[i] > ax.hi();
    }
    if (!outside) return table.at(coords);

    std::vector<double> clamped(coords.begin(), coords.end());
    for (std::size_t i = first_skew; i < first_skew + n_skew; ++i) {
        const lut::TableView::AxisView& ax = table.axis(i);
        clamped[i] = std::clamp(clamped[i], ax.lo(), ax.hi());
    }
    std::vector<double> grad(table.rank(), 0.0);
    double v = table.at_with_gradient(clamped, grad);
    for (std::size_t i = first_skew; i < first_skew + n_skew; ++i)
        v += grad[i] * (coords[i] - clamped[i]);
    return v;
}

}  // namespace

TimingResult TimingService::eval_lut(const ArcSurface& surface,
                                     const TimingQuery& q) const {
    // One coordinate vector serves the whole evaluation: the Ceff
    // iteration, the delay lookup and the slew lookup differ only in the
    // cap slot.
    std::vector<double> x = lut_coords(q, q.load_cap);
    x.back() = effective_cap(surface, q, x);
    // The surface's delay is referenced to pin 0's edge (see ArcSurface);
    // the query contract references the LATEST edge. The difference is the
    // exact, analytic offset between the two references: the largest
    // positive edge offset.
    double ref_shift = 0.0;
    for (std::size_t p = 1; p < q.pins.size(); ++p)
        ref_shift = std::max(ref_shift, edge_offset(q, p));
    const std::size_t n_skew = q.pins.size() - 1;
    const std::size_t first_skew = q.pins.size();
    TimingResult result;
    result.valid = true;
    result.path = ResultPath::kLut;
    result.delay =
        eval_skew_extrapolated(surface.delay, x, first_skew, n_skew) -
        ref_shift;
    // The 50% crossing sees the shielded (effective) cap, but the 10-90%
    // span integrates essentially the whole far-cap charge (the resistive
    // lag collapses as dv/dt falls towards the rails), so the slew tracks
    // the full lumped load plus a first-order tail stretch: the far cap
    // keeps drawing wire current into the 90% crossing, flattening the
    // drive-point approach by roughly its RC lag weighted by its share of
    // the load. Validated for tau = r_wire * c_far small against the
    // output transition (the golden suite's sampled domain); far beyond
    // that the slew read trends pessimistic.
    if (q.has_pi_load()) {
        const double ctot = q.load_cap + q.c_near + q.c_far;
        x.back() = ctot;
        result.slew =
            eval_skew_extrapolated(surface.slew, x, first_skew, n_skew) +
            0.5 * q.r_wire * q.c_far * (q.c_far / ctot);
    } else {
        result.slew =
            eval_skew_extrapolated(surface.slew, x, first_skew, n_skew);
    }
    return result;
}

std::vector<TimingResult> TimingService::run_batch(
    std::span<const TimingQuery> queries) {
    std::vector<TimingResult> results;
    run_phases(queries, results, /*produce=*/true);
    return results;
}

std::vector<std::size_t> TimingService::run_resident(
    std::span<const TimingQuery> queries, std::vector<TimingResult>& results) {
    return run_phases(queries, results, /*produce=*/false);
}

std::vector<std::size_t> TimingService::run_phases(
    std::span<const TimingQuery> queries, std::vector<TimingResult>& results,
    bool produce) {
    static obs::Counter& batches = obs::counter("serve.batches");
    static obs::Counter& lut_queries = obs::counter("serve.query.lut");
    static obs::Counter& exact_queries = obs::counter("serve.query.exact");
    static obs::Counter& query_errors = obs::counter("serve.query.errors");
    static obs::Histogram& batch_ns = obs::histogram("serve.batch_ns");
    static obs::Histogram& lut_ns = obs::histogram("serve.query.lut_ns");
    static obs::Histogram& exact_ns = obs::histogram("serve.query.exact_ns");
    const obs::Span batch_span(produce ? "serve.run_batch"
                                       : "serve.run_resident");
    const obs::ScopedLatency batch_latency(batch_ns);
    batches.add();
    results.clear();
    results.resize(queries.size());

    // Phase 1: warm every distinct arc once (surface or model), so the
    // per-query phase interpolates instead of serializing on single-flight
    // builds. Arcs are warmed sequentially ON PURPOSE: each cold surface
    // build fans its grid transients over the whole pool, which beats
    // building arcs concurrently with one inline-running worker each.
    // A failed warm-up is recorded and short-circuits every query on that
    // arc below -- one build attempt per arc per batch, not per query (the
    // next batch retries, preserving the never-cache-failures contract).
    // Without `produce` an arc is only looked up, and one that is not
    // resident is recorded as cold: its queries are left for a caller that
    // may block.
    struct ArcState {
        bool cold = false;
        std::string error;  // failed production (produce only)
    };
    std::unordered_map<std::string, ArcState> arcs;
    const auto warm_id = [](const TimingQuery& q) {
        std::string id = q.exact || q.want_waveform ? "M|" : "S|";
        id += arc_id(q);
        return id;
    };
    for (const TimingQuery& q : queries) {
        try {
            validate(q);
        } catch (const std::exception&) {
            continue;  // phase 2 reports it on the right result
        }
        const auto [it, fresh] = arcs.try_emplace(warm_id(q));
        if (!fresh) continue;
        const bool lut = !(q.exact || q.want_waveform);
        const ModelKey key = ModelKey::arc(q.cell, q.pins, q.corner);
        try {
            if (!produce)
                it->second.cold =
                    lut ? !resident_surface(q) : !repo_->find(key);
            else if (lut)
                surface_for(q);
            else
                repo_->get(key);
        } catch (const std::exception& e) {
            it->second.error = e.what();
        }
    }

    // Phase 2: evaluate every query independently. A query left unanswered
    // (cold arc, or one evicted since phase 1) is flagged in `left`.
    std::vector<char> left(queries.size(), 0);
    parallel_for(
        queries.size(),
        [&](std::size_t i) {
            const TimingQuery& q = queries[i];
            const obs::Span query_span("serve.query", q.cell);
            const std::uint64_t t0 = obs::now_ns();
            try {
                validate(q);
                const ArcState& arc = arcs.at(warm_id(q));
                if (arc.cold) {
                    left[i] = 1;
                    return;
                }
                if (!arc.error.empty()) {
                    results[i].error = arc.error;
                    return;
                }
                if (q.exact || q.want_waveform) {
                    const ModelKey key =
                        ModelKey::arc(q.cell, q.pins, q.corner);
                    const auto model =
                        produce ? repo_->get(key) : repo_->find(key);
                    if (!model) {
                        left[i] = 1;
                        return;
                    }
                    results[i] = eval_transient(*model, q);
                    exact_queries.add();
                    exact_ns.observe(static_cast<double>(obs::now_ns() - t0));
                } else {
                    const SurfacePtr surface =
                        produce ? surface_for(q) : resident_surface(q);
                    if (!surface) {
                        left[i] = 1;
                        return;
                    }
                    results[i] = eval_lut(*surface, q);
                    lut_queries.add();
                    lut_ns.observe(static_cast<double>(obs::now_ns() - t0));
                }
            } catch (const std::exception& e) {
                results[i] = TimingResult{};
                results[i].error = e.what();
            }
            if (!results[i].error.empty()) query_errors.add();
        },
        options_.threads);
    std::vector<std::size_t> unanswered;
    for (std::size_t i = 0; i < queries.size(); ++i)
        if (left[i]) unanswered.push_back(i);
    return unanswered;
}

TimingResult TimingService::run_one(const TimingQuery& query) {
    return run_batch({&query, 1}).front();
}

std::size_t TimingService::surface_count() const {
    return surfaces_.ready_count();
}

}  // namespace mcsm::serve
