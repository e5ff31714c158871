#include "rig.h"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "stats.h"

namespace servebench {

using mcsm::serve::Corner;
using mcsm::serve::TimingQuery;

namespace fs = std::filesystem;

namespace {

constexpr double kPs = 1e-12;
constexpr double kFf = 1e-15;

// Surface knots shared by 1- and 2-pin arcs, and the 3-pin knots. Reduced
// against the stock grids (a 2-pin arc costs 225 transients instead of 448,
// a 3-pin arc 144 instead of 2025) so that set-up and cold builds fit a
// short run; interpolation accuracy on dense grids is the golden gate's
// job, not the benchmark's.
const std::vector<double> kSlewKnots{40 * kPs, 150 * kPs, 350 * kPs};
const std::vector<double> kSkewKnots{-2.5, -0.6, 0.0, 0.6, 2.5};
const std::vector<double> kLoadKnots{1 * kFf, 2.2 * kFf, 4.7 * kFf,
                                     10 * kFf, 24 * kFf};
const std::vector<double> kSlewKnots3{60 * kPs, 240 * kPs};
const std::vector<double> kSkewKnots3{-1.2, 0.0, 1.2};
const std::vector<double> kSkewPairKnots3{-1.6, 0.0, 1.6};
const std::vector<double> kLoadKnots3{1.5 * kFf, 22 * kFf};

// Converts normalized edge offsets u (the surface's skew coordinates) into
// the edge-start skews a query carries, exactly as the surface build does.
void set_skews_from_u(TimingQuery& q, const double* u) {
    q.skews.assign(q.pins.size(), 0.0);
    for (std::size_t p = 1; p < q.pins.size(); ++p) {
        const double delta = u[p] * 0.5 * (q.slews[0] + q.slews[p]);
        q.skews[p] = delta - 0.5 * (q.slews[p] - q.slews[0]);
    }
}

// The derated corner the warm mix uses next to nominal.
const Corner kDerated{1.08, 85.0};

}  // namespace

mcsm::serve::RepositoryOptions repository_options(
    const std::string& model_dir,
    std::shared_ptr<mcsm::serve::PackHost> pack) {
    mcsm::serve::RepositoryOptions o;
    o.dir = model_dir;
    o.pack = std::move(pack);
    // Model-linearized capacitances and the smallest voltage grid the
    // characterizer accepts: a 2-pin model costs 6^4 DC points, a 3-pin
    // model 6^6.
    o.char_options.transient_caps = false;
    o.char_options.grid_points = 4;
    o.char_options.cin_points = 5;
    o.char_options_mis3.transient_caps = false;
    o.char_options_mis3.grid_points = 4;
    o.char_options_mis3.cin_points = 5;
    return o;
}

mcsm::serve::ServeOptions serve_options(
    const std::string& surface_dir,
    std::shared_ptr<mcsm::serve::PackHost> pack, std::size_t threads) {
    mcsm::serve::ServeOptions o;
    o.slew_knots = kSlewKnots;
    o.skew_knots = kSkewKnots;
    o.load_knots = kLoadKnots;
    o.slew_knots_mis3 = kSlewKnots3;
    o.skew_knots_mis3 = kSkewKnots3;
    o.skew_pair_knots_mis3 = kSkewPairKnots3;
    o.load_knots_mis3 = kLoadKnots3;
    o.dt = 4e-12;
    o.settle = 1.2e-9;
    o.threads = threads;
    o.surface_dir = surface_dir;
    o.pack = std::move(pack);
    return o;
}

mcsm::net::NetServerOptions server_options(const std::string& socket_path) {
    mcsm::net::NetServerOptions o;
    o.unix_path = socket_path;
    o.batch_max = 512;
    o.linger_us = 200;
    o.max_pending = 1 << 16;
    o.max_conns = 16;
    return o;
}

const std::vector<Arc>& warm_arcs() {
    static const std::vector<Arc> arcs = [] {
        std::vector<Arc> v;
        const std::vector<std::pair<std::string, std::vector<std::string>>>
            cells{{"INV_X1", {"A"}},
                  {"NOR2", {"A", "B"}},
                  {"NAND2", {"A", "B"}},
                  {"NAND3", {"A", "B", "C"}}};
        for (const auto& [cell, pins] : cells)
            for (int corner = 0; corner < 2; ++corner) {
                // The 3-pin arc stays at nominal: its 6-D characterization
                // is the most expensive part of set-up.
                if (pins.size() == 3 && corner == 1) continue;
                for (int rise = 0; rise < 2; ++rise) {
                    Arc a;
                    a.cell = cell;
                    a.pins = pins;
                    a.rise = rise == 1;
                    if (corner == 1) a.corner = kDerated;
                    v.push_back(std::move(a));
                }
            }
        return v;
    }();
    return arcs;
}

// --- query generation ------------------------------------------------------

QueryGen::QueryGen(std::uint64_t seed)
    : seed_(seed), gen_(seed * 0x9E3779B97F4A7C15ull + 1) {}

double QueryGen::uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

std::size_t QueryGen::pick(std::size_t n) {
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(gen_);
}

void QueryGen::fill_coords(TimingQuery& q, bool knot_exact) {
    const bool mis3 = q.pins.size() == 3;
    const auto knot = [&](const std::vector<double>& k) {
        return k[pick(k.size())];
    };
    double u[3] = {0.0, 0.0, 0.0};
    q.slews.clear();
    if (mis3) {
        for (int p = 0; p < 3; ++p)
            q.slews.push_back(knot_exact ? knot(kSlewKnots3)
                                         : uniform(60 * kPs, 240 * kPs));
        // (skew_max, skew_diff) -> (u_b, u_c): the surface's rotation.
        const double m = knot_exact ? knot(kSkewKnots3) : uniform(-1.2, 1.2);
        const double d =
            knot_exact ? knot(kSkewPairKnots3) : uniform(-1.6, 1.6);
        u[1] = d >= 0.0 ? m : m + d;
        u[2] = d >= 0.0 ? m - d : m;
    } else {
        q.slews.push_back(knot_exact ? knot(kSlewKnots)
                                     : uniform(40 * kPs, 350 * kPs));
        if (q.pins.size() == 2) {
            q.slews.push_back(knot_exact ? knot(kSlewKnots)
                                         : uniform(40 * kPs, 350 * kPs));
            u[1] = knot_exact ? knot(kSkewKnots) : uniform(-2.5, 2.5);
        }
    }
    if (q.pins.size() > 1) set_skews_from_u(q, u);
}

TimingQuery QueryGen::on_arc(const Arc& arc, bool pi) {
    TimingQuery q;
    q.cell = arc.cell;
    q.pins = arc.pins;
    q.inputs_rise = arc.rise;
    q.corner = arc.corner;
    fill_coords(q, /*knot_exact=*/false);
    if (pi) {
        q.load_cap = uniform(0.5 * kFf, 3 * kFf);
        q.c_near = uniform(0.5 * kFf, 4 * kFf);
        q.c_far = uniform(1 * kFf, 10 * kFf);
        q.r_wire = uniform(150.0, 1500.0);
    } else {
        q.load_cap = q.pins.size() == 3 ? uniform(1.5 * kFf, 22 * kFf)
                                        : uniform(1 * kFf, 24 * kFf);
    }
    return q;
}

TimingQuery QueryGen::warm(std::size_t i) {
    const std::vector<Arc>& arcs = warm_arcs();
    return on_arc(arcs[i % arcs.size()], (i / arcs.size()) % 5 < 2);
}

TimingQuery QueryGen::warm_of(std::size_t pins, bool pi) {
    const std::vector<Arc>& arcs = warm_arcs();
    const Arc* arc = nullptr;
    do {
        arc = &arcs[pick(arcs.size())];
    } while (pins != 0 && arc->pins.size() != pins);
    return on_arc(*arc, pi);
}

TimingQuery QueryGen::probe() {
    const std::vector<Arc>& arcs = warm_arcs();
    const Arc& arc = arcs[pick(arcs.size())];
    TimingQuery q;
    q.cell = arc.cell;
    q.pins = arc.pins;
    q.inputs_rise = arc.rise;
    q.corner = arc.corner;
    fill_coords(q, /*knot_exact=*/true);
    const std::vector<double>& loads =
        q.pins.size() == 3 ? kLoadKnots3 : kLoadKnots;
    q.load_cap = loads[pick(loads.size())];
    return q;
}

Corner QueryGen::fresh_corner(std::size_t k) const {
    // Vdd steps of 0.1 mV over [1.0500, 1.1499] V, temperature fixed per
    // seed in [40, 59.9] degC: unique within a run for k < 1000, never the
    // nominal (1.2 V, 25 degC) or derated (1.08 V, 85 degC) corner.
    Corner c;
    c.vdd = 1.05 + 1e-4 * static_cast<double>((seed_ * 389 + k) % 1000);
    c.temp_c = 40.0 + 0.1 * static_cast<double>(seed_ % 200);
    return c;
}

TimingQuery QueryGen::cold(std::size_t k) {
    TimingQuery q;
    if (k % 16 == 15) {
        q.cell = "NAND3";
        q.pins = {"A", "B", "C"};
    } else {
        q.cell = "NOR2";
        q.pins = {"A", "B"};
    }
    q.inputs_rise = true;
    q.corner = fresh_corner(k);
    fill_coords(q, /*knot_exact=*/false);
    q.load_cap = q.pins.size() == 3 ? uniform(1.5 * kFf, 22 * kFf)
                                    : uniform(1 * kFf, 24 * kFf);
    return q;
}

// --- set-up ------------------------------------------------------------------

namespace {

// The query set-up sends first on an arc: mid-grid slews, no skew.
TimingQuery arc_query(const Arc& arc) {
    TimingQuery q;
    q.cell = arc.cell;
    q.pins = arc.pins;
    q.inputs_rise = arc.rise;
    q.corner = arc.corner;
    q.slews.assign(arc.pins.size(), 100 * kPs);
    q.load_cap = 4 * kFf;
    return q;
}

}  // namespace

Served open_served(const mcsm::cells::CellLibrary& lib,
                   const std::string& pack_path) {
    Served s;
    s.pack = std::make_shared<mcsm::serve::PackHost>(pack_path);
    s.repo = std::make_unique<mcsm::serve::ModelRepository>(
        &lib, repository_options("", s.pack));
    s.service = std::make_unique<mcsm::serve::TimingService>(
        *s.repo, serve_options("", s.pack, kPoolThreads));
    // Surfaces map zero-parse from the pack and models materialize from
    // it; the LUT path never needs the model of a packed surface, the exact
    // path does, so both are fetched.
    std::vector<TimingQuery> touch;
    for (const Arc& arc : warm_arcs()) {
        touch.push_back(arc_query(arc));
        s.repo->get(
            mcsm::serve::ModelKey::arc(arc.cell, arc.pins, arc.corner));
    }
    for (const mcsm::serve::TimingResult& r : s.service->run_batch(touch))
        if (!r.valid)
            throw std::runtime_error("reopened service failed: " + r.error);
    return s;
}

Stack::Stack(std::string dir) : work_dir(std::move(dir)) {
    fs::remove_all(work_dir);
    fs::create_directories(work_dir);
    pack_path = work_dir + "/served.mcsmpack";
}

Stack::~Stack() {
    served = Served{};
    std::error_code ec;
    fs::remove_all(work_dir, ec);
}

void Stack::setup(int rep) {
    const std::string store = work_dir + "/store" + std::to_string(rep);
    const std::string models = store + "/models";
    const std::string surfaces = store + "/surfaces";
    // Drop the previous repetition's served stack first: set-up starts
    // from nothing in memory.
    served = Served{};
    fs::remove_all(store);
    fs::remove(pack_path);

    const double t0 = now_s();
    {
        mcsm::serve::ModelRepository build_repo(
            &lib, repository_options(models, nullptr));
        mcsm::serve::TimingService build_service(
            build_repo, serve_options(surfaces, nullptr, kPoolThreads));
        for (const Arc& arc : warm_arcs()) {
            const mcsm::serve::TimingResult r =
                build_service.run_one(arc_query(arc));
            if (!r.valid)
                throw std::runtime_error("set-up query failed for " +
                                         arc.cell + ": " + r.error);
        }
    }
    mcsm::serve::pack_from_dirs(models, surfaces).write(pack_path);
    served = open_served(lib, pack_path);
    setup_s.push_back(now_s() - t0);
    fs::remove_all(store);
}

}  // namespace servebench
