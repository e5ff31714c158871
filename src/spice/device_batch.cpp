#include "spice/device_batch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "obs/metrics.h"

namespace mcsm::spice {

namespace {

// Scratch padding for the widest lane kernel (DVec<8>), so any active-set
// size can be rounded up to a whole number of lanes.
constexpr std::size_t kLanePad = 8;

// Unknown-space row/col of a node (ground is eliminated), mirroring
// Stamper::unknown_of_node.
inline int unknown_of(int node) { return node == 0 ? -1 : node - 1; }

// Slot of (row_node, col_node) in the pattern, -1 when either is ground.
int resolve_slot(const SparseMatrix& pattern, int row_node, int col_node) {
    const int r = unknown_of(row_node);
    const int c = unknown_of(col_node);
    if (r < 0 || c < 0) return -1;
    const int slot = pattern.slot_index(static_cast<std::size_t>(r),
                                        static_cast<std::size_t>(c));
    require(slot >= 0,
            "MosfetBatch: stamp destination missing from the pattern");
    return slot;
}

}  // namespace

void MosfetBatch::build(const std::vector<const Mosfet*>& mosfets,
                        const SparseMatrix& pattern) {
    count_ = mosfets.size();
    devices_ = mosfets;

    // The coefficient arrays carry kLanePad benign pad devices (is = 0, so
    // a pad lane's current and conductances are exactly zero) so the SIMD
    // full-batch path can hand them to the lane kernel unchanged.
    pol_.assign(count_ + kLanePad, 1.0);
    is_.assign(count_ + kLanePad, 0.0);
    nn_.assign(count_ + kLanePad, 1.0);
    vt0_.assign(count_ + kLanePad, 0.0);
    lambda_.assign(count_ + kLanePad, 0.0);
    ut_.assign(count_ + kLanePad, 0.025);
    nd_.resize(count_);
    ng_.resize(count_);
    ns_.resize(count_);
    nb_.resize(count_);
    mat_slots_.resize(count_ * 8);
    rhs_d_.resize(count_);
    rhs_s_.resize(count_);
    cap_a_.resize(count_ * 5);
    cap_b_.resize(count_ * 5);
    cap_slots_.resize(count_ * 20);
    cap_rhs_.resize(count_ * 10);
    cap_state_.resize(count_ * 5);
    cap_c_.assign(count_ * 5, 0.0);
    cap_geq_.assign(count_ * 5, 0.0);
    cap_isrc_.assign(count_ * 5, 0.0);
    cap_step_id_ = -1;
    cap_dt_ = 0.0;
    cap_be_ = false;
    chan_run_id_ = -1;
    chan_v_.assign(count_ * 4, std::numeric_limits<double>::quiet_NaN());
    chan_lin_.assign(count_ * 5, 0.0);

    // SIMD gather/output scratch, padded like the coefficient arrays. The
    // benign initial values keep every pad lane's arithmetic finite; the
    // pad region of the voltage planes is never overwritten afterwards
    // (compaction writes only the active prefix).
    act_idx_.assign(count_, 0);
    const std::size_t padded = count_ + kLanePad;
    lane_vd_.assign(padded, 0.0);
    lane_vg_.assign(padded, 0.0);
    lane_vs_.assign(padded, 0.0);
    lane_vb_.assign(padded, 0.0);
    lane_pol_.assign(padded, 1.0);
    lane_is_.assign(padded, 0.0);
    lane_nn_.assign(padded, 1.0);
    lane_vt0_.assign(padded, 0.0);
    lane_lambda_.assign(padded, 0.0);
    lane_ut_.assign(padded, 0.025);
    lane_gm_.assign(padded, 0.0);
    lane_gds_.assign(padded, 0.0);
    lane_gms_.assign(padded, 0.0);
    lane_gmb_.assign(padded, 0.0);
    lane_ids_.assign(padded, 0.0);
    lane_ia_.assign(padded, 0.0);

    for (std::size_t i = 0; i < count_; ++i) {
        const Mosfet& m = *mosfets[i];
        const EkvCoeffs& c = m.ekv_coeffs();
        pol_[i] = c.pol;
        is_[i] = c.is;
        nn_[i] = c.n;
        vt0_[i] = c.vt0;
        lambda_[i] = c.lambda;
        ut_[i] = c.ut;
        const int d = m.drain();
        const int g = m.gate();
        const int s = m.source();
        const int b = m.bulk();
        nd_[i] = d;
        ng_[i] = g;
        ns_[i] = s;
        nb_[i] = b;

        int* ms = &mat_slots_[i * 8];
        ms[0] = resolve_slot(pattern, d, g);
        ms[1] = resolve_slot(pattern, d, d);
        ms[2] = resolve_slot(pattern, d, s);
        ms[3] = resolve_slot(pattern, d, b);
        ms[4] = resolve_slot(pattern, s, g);
        ms[5] = resolve_slot(pattern, s, d);
        ms[6] = resolve_slot(pattern, s, s);
        ms[7] = resolve_slot(pattern, s, b);
        rhs_d_[i] = unknown_of(d);
        rhs_s_[i] = unknown_of(s);

        // Companion-cap pairs in Mosfet state order.
        const int pa[5] = {g, g, g, d, s};
        const int pb[5] = {s, d, b, b, b};
        for (std::size_t k = 0; k < 5; ++k) {
            const std::size_t p = i * 5 + k;
            cap_a_[p] = pa[k];
            cap_b_[p] = pb[k];
            int* cs = &cap_slots_[p * 4];
            cs[0] = resolve_slot(pattern, pa[k], pa[k]);
            cs[1] = resolve_slot(pattern, pb[k], pb[k]);
            cs[2] = resolve_slot(pattern, pa[k], pb[k]);
            cs[3] = resolve_slot(pattern, pb[k], pa[k]);
            cap_rhs_[p * 2 + 0] = unknown_of(pa[k]);
            cap_rhs_[p * 2 + 1] = unknown_of(pb[k]);
            cap_state_[p] = m.state_base() + static_cast<int>(k);
        }
    }
}

void MosfetBatch::stamp_channel(SparseMatrix& matrix,
                                std::vector<double>& rhs,
                                const SimContext& ctx) const {
    static obs::Counter& scalar_evals =
        obs::counter("solver.simd.scalar_evals");
    const std::vector<double>& x = *ctx.x;
    double* vals = matrix.values().data();
    const double tol = ctx.stale_dv;
    const bool gate = tol > 0.0 && ctx.run_id >= 0;
    long long n_eval = 0;
    if (gate && chan_run_id_ != ctx.run_id) {
        // New solve_tran run: drop every cached eval point so nothing from
        // a previous scenario on this (pooled) circuit can be revalidated.
        // NaN sentinels fail every |v - cached| <= tol test.
        std::fill(chan_v_.begin(), chan_v_.end(),
                  std::numeric_limits<double>::quiet_NaN());
        chan_run_id_ = ctx.run_id;
    }
    for (std::size_t i = 0; i < count_; ++i) {
        const double vd = x[static_cast<std::size_t>(nd_[i])];
        const double vg = x[static_cast<std::size_t>(ng_[i])];
        const double vs = x[static_cast<std::size_t>(ns_[i])];
        const double vb = x[static_cast<std::size_t>(nb_[i])];

        double* cv = &chan_v_[i * 4];
        double* cl = &chan_lin_[i * 5];
        double gm, gds, gms, gmb, i_affine;
        if (gate && std::fabs(vd - cv[0]) <= tol &&
            std::fabs(vg - cv[1]) <= tol && std::fabs(vs - cv[2]) <= tol &&
            std::fabs(vb - cv[3]) <= tol) {
            gm = cl[0];
            gds = cl[1];
            gms = cl[2];
            gmb = cl[3];
            i_affine = cl[4];
        } else {
            ++n_eval;
            const MosCurrent cur = ekv_current(coeffs_at(i), vd, vg, vs, vb,
                                               mcsm::softplus_logistic_fast);
            gm = cur.gm;
            gds = cur.gds;
            gms = cur.gms;
            gmb = cur.gmb;
            i_affine = cur.ids -
                       (gm * vg + gds * vd + gms * vs + gmb * vb);
            if (gate) {
                cv[0] = vd;
                cv[1] = vg;
                cv[2] = vs;
                cv[3] = vb;
                cl[0] = gm;
                cl[1] = gds;
                cl[2] = gms;
                cl[3] = gmb;
                cl[4] = i_affine;
            }
        }

        const int* ms = &mat_slots_[i * 8];
        if (ms[0] >= 0) vals[ms[0]] += gm;
        if (ms[1] >= 0) vals[ms[1]] += gds;
        if (ms[2] >= 0) vals[ms[2]] += gms;
        if (ms[3] >= 0) vals[ms[3]] += gmb;
        if (ms[4] >= 0) vals[ms[4]] -= gm;
        if (ms[5] >= 0) vals[ms[5]] -= gds;
        if (ms[6] >= 0) vals[ms[6]] -= gms;
        if (ms[7] >= 0) vals[ms[7]] -= gmb;

        if (rhs_d_[i] >= 0)
            rhs[static_cast<std::size_t>(rhs_d_[i])] -= i_affine;
        if (rhs_s_[i] >= 0)
            rhs[static_cast<std::size_t>(rhs_s_[i])] += i_affine;
    }
    scalar_evals.add(n_eval);
}

std::size_t MosfetBatch::gather_full_batch(const std::vector<double>& x,
                                           EkvLanes& lanes,
                                           int width) const {
    for (std::size_t i = 0; i < count_; ++i) {
        lane_vd_[i] = x[static_cast<std::size_t>(nd_[i])];
        lane_vg_[i] = x[static_cast<std::size_t>(ng_[i])];
        lane_vs_[i] = x[static_cast<std::size_t>(ns_[i])];
        lane_vb_[i] = x[static_cast<std::size_t>(nb_[i])];
    }
    lanes.vd = lane_vd_.data();
    lanes.vg = lane_vg_.data();
    lanes.vs = lane_vs_.data();
    lanes.vb = lane_vb_.data();
    lanes.pol = pol_.data();
    lanes.is = is_.data();
    lanes.nn = nn_.data();
    lanes.vt0 = vt0_.data();
    lanes.lambda = lambda_.data();
    lanes.ut = ut_.data();
    lanes.gm = lane_gm_.data();
    lanes.gds = lane_gds_.data();
    lanes.gms = lane_gms_.data();
    lanes.gmb = lane_gmb_.data();
    lanes.ids = lane_ids_.data();
    lanes.ia = lane_ia_.data();
    const std::size_t w = static_cast<std::size_t>(width);
    return count_ == 0 ? 0 : (count_ + w - 1) / w * w;
}

void MosfetBatch::stamp_channel_lanes(SparseMatrix& matrix,
                                      std::vector<double>& rhs,
                                      const SimContext& ctx) const {
    static obs::Counter& vec_evals =
        obs::counter("solver.simd.vector_evals");
    static obs::Counter& gate_reuses =
        obs::counter("solver.simd.gate_reuses");
    static obs::Gauge& active_gauge = obs::gauge("solver.simd.active_set");
    static obs::Histogram& occupancy =
        obs::histogram("solver.simd.lane_occupancy_pct");

    const std::vector<double>& x = *ctx.x;
    double* vals = matrix.values().data();
    const double tol = ctx.stale_dv;
    const bool gated = tol > 0.0 && ctx.run_id >= 0;
    if (gated && chan_run_id_ != ctx.run_id) {
        // Same run-scope reset as stamp_channel: NaN sentinels fail every
        // |v - cached| <= tol test.
        std::fill(chan_v_.begin(), chan_v_.end(),
                  std::numeric_limits<double>::quiet_NaN());
        chan_run_id_ = ctx.run_id;
    }

    const int width = ekv_lane_width();
    EkvLanes lanes;
    std::size_t na;     // active devices, compacted to the lane prefix
    std::size_t n_pad;  // active count rounded up to whole lanes
    if (gated) {
        // Phase 1: compact the devices outside the stale_dv gate into a
        // dense active list, gathering voltages and coefficients
        // lane-contiguously as we go. Pad lanes keep their benign build()
        // values (or finite leftovers from a larger earlier active set);
        // either way the kernel's tail arithmetic is well-defined and its
        // results are never stamped.
        na = 0;
        for (std::size_t i = 0; i < count_; ++i) {
            const double vd = x[static_cast<std::size_t>(nd_[i])];
            const double vg = x[static_cast<std::size_t>(ng_[i])];
            const double vs = x[static_cast<std::size_t>(ns_[i])];
            const double vb = x[static_cast<std::size_t>(nb_[i])];
            const double* cv = &chan_v_[i * 4];
            if (std::fabs(vd - cv[0]) <= tol &&
                std::fabs(vg - cv[1]) <= tol &&
                std::fabs(vs - cv[2]) <= tol &&
                std::fabs(vb - cv[3]) <= tol)
                continue;
            act_idx_[na] = static_cast<int>(i);
            lane_vd_[na] = vd;
            lane_vg_[na] = vg;
            lane_vs_[na] = vs;
            lane_vb_[na] = vb;
            lane_pol_[na] = pol_[i];
            lane_is_[na] = is_[i];
            lane_nn_[na] = nn_[i];
            lane_vt0_[na] = vt0_[i];
            lane_lambda_[na] = lambda_[i];
            lane_ut_[na] = ut_[i];
            ++na;
        }
        lanes.vd = lane_vd_.data();
        lanes.vg = lane_vg_.data();
        lanes.vs = lane_vs_.data();
        lanes.vb = lane_vb_.data();
        lanes.pol = lane_pol_.data();
        lanes.is = lane_is_.data();
        lanes.nn = lane_nn_.data();
        lanes.vt0 = lane_vt0_.data();
        lanes.lambda = lane_lambda_.data();
        lanes.ut = lane_ut_.data();
        lanes.gm = lane_gm_.data();
        lanes.gds = lane_gds_.data();
        lanes.gms = lane_gms_.data();
        lanes.gmb = lane_gmb_.data();
        lanes.ids = lane_ids_.data();
        lanes.ia = lane_ia_.data();
        const std::size_t w = static_cast<std::size_t>(width);
        n_pad = na == 0 ? 0 : (na + w - 1) / w * w;
    } else {
        // DC / ungated: the full batch is active; the padded coefficient
        // arrays go to the kernel directly, no compaction pass.
        for (std::size_t i = 0; i < count_; ++i)
            act_idx_[i] = static_cast<int>(i);
        na = count_;
        n_pad = gather_full_batch(x, lanes, width);
    }

    // Phase 2: one kernel sweep over the padded active block.
    if (n_pad > 0) ekv_lane_kernel()(lanes, n_pad);

    vec_evals.add(static_cast<long long>(na));
    gate_reuses.add(static_cast<long long>(count_ - na));
    active_gauge.set(static_cast<long long>(na));
    if (n_pad > 0)
        occupancy.observe(100.0 * static_cast<double>(na) /
                          static_cast<double>(n_pad));

    // Phase 3: scatter in original device order. act_idx_ is ascending, so
    // one cursor walks the active results while gated devices replay the
    // cached tangent — the CSR/RHS accumulation order is exactly the scalar
    // path's, which is what keeps the two tiers bit-identical.
    std::size_t a = 0;
    for (std::size_t i = 0; i < count_; ++i) {
        double gm, gds, gms, gmb, i_affine;
        if (a < na && act_idx_[a] == static_cast<int>(i)) {
            gm = lane_gm_[a];
            gds = lane_gds_[a];
            gms = lane_gms_[a];
            gmb = lane_gmb_[a];
            i_affine = lane_ia_[a];
            if (gated) {
                double* cv = &chan_v_[i * 4];
                double* cl = &chan_lin_[i * 5];
                cv[0] = lane_vd_[a];
                cv[1] = lane_vg_[a];
                cv[2] = lane_vs_[a];
                cv[3] = lane_vb_[a];
                cl[0] = gm;
                cl[1] = gds;
                cl[2] = gms;
                cl[3] = gmb;
                cl[4] = i_affine;
            }
            ++a;
        } else {
            const double* cl = &chan_lin_[i * 5];
            gm = cl[0];
            gds = cl[1];
            gms = cl[2];
            gmb = cl[3];
            i_affine = cl[4];
        }

        const int* ms = &mat_slots_[i * 8];
        if (ms[0] >= 0) vals[ms[0]] += gm;
        if (ms[1] >= 0) vals[ms[1]] += gds;
        if (ms[2] >= 0) vals[ms[2]] += gms;
        if (ms[3] >= 0) vals[ms[3]] += gmb;
        if (ms[4] >= 0) vals[ms[4]] -= gm;
        if (ms[5] >= 0) vals[ms[5]] -= gds;
        if (ms[6] >= 0) vals[ms[6]] -= gms;
        if (ms[7] >= 0) vals[ms[7]] -= gmb;

        if (rhs_d_[i] >= 0)
            rhs[static_cast<std::size_t>(rhs_d_[i])] -= i_affine;
        if (rhs_s_[i] >= 0)
            rhs[static_cast<std::size_t>(rhs_s_[i])] += i_affine;
    }
}

void MosfetBatch::refresh_caps(const SimContext& ctx) const {
    const std::vector<double>& x_prev = *ctx.x_prev;
    const std::vector<double>& state = *ctx.state;
    const std::size_t n_caps = count_ * 5;
    if (ctx.step_id < 0 || ctx.step_id != cap_step_id_) {
        // Raw-capacitance level: depends only on the accepted base solution,
        // so retries of the same step (same step_id, new dt) skip it. The
        // per-device cache is shared with commit(): one scalar caps
        // evaluation per device per accepted base.
        for (std::size_t i = 0; i < count_; ++i) {
            const MosCaps& caps = devices_[i]->caps_at_step(ctx);
            const std::size_t p = i * 5;
            cap_c_[p + 0] = caps.cgs;
            cap_c_[p + 1] = caps.cgd;
            cap_c_[p + 2] = caps.cgb;
            cap_c_[p + 3] = caps.cdb;
            cap_c_[p + 4] = caps.csb;
        }
        cap_step_id_ = ctx.step_id;
    }
    // Companion linearization (see spice/cap_companion.h): geq/isrc bake in
    // the step size and integrator, so this scaling pass re-runs whenever
    // either changes (adaptive retry at a shrunk dt, breakpoint BE step).
    const bool be = ctx.integrator == Integrator::kBackwardEuler;
    const double gscale = (be ? 1.0 : 2.0) / ctx.dt;
    for (std::size_t p = 0; p < n_caps; ++p) {
        const double v_prev =
            x_prev[static_cast<std::size_t>(cap_a_[p])] -
            x_prev[static_cast<std::size_t>(cap_b_[p])];
        const double geq = cap_c_[p] * gscale;
        const double i_prev =
            be ? 0.0 : state[static_cast<std::size_t>(cap_state_[p])];
        cap_geq_[p] = geq;
        cap_isrc_[p] = -geq * v_prev - i_prev;
    }
    cap_dt_ = ctx.dt;
    cap_be_ = be;
}

void MosfetBatch::evaluate_and_stamp(SparseMatrix& matrix,
                                     std::vector<double>& rhs,
                                     const SimContext& ctx) const {
    // Width 1 means the SIMD tier is compiled out, the CPU lacks AVX2+FMA,
    // or MCSM_NO_SIMD forced scalar — the plain fused loop wins there (no
    // gather/scatter detour for zero lane parallelism).
    if (ekv_lane_width() > 1)
        stamp_channel_lanes(matrix, rhs, ctx);
    else
        stamp_channel(matrix, rhs, ctx);

    if (!ctx.is_tran() || ctx.dt <= 0.0) return;
    if (ctx.step_id < 0 || ctx.step_id != cap_step_id_ ||
        ctx.dt != cap_dt_ ||
        (ctx.integrator == Integrator::kBackwardEuler) != cap_be_)
        refresh_caps(ctx);

    double* vals = matrix.values().data();
    const std::size_t n_caps = count_ * 5;
    for (std::size_t p = 0; p < n_caps; ++p) {
        const double geq = cap_geq_[p];
        const double isrc = cap_isrc_[p];
        const int* cs = &cap_slots_[p * 4];
        if (cs[0] >= 0) vals[cs[0]] += geq;
        if (cs[1] >= 0) vals[cs[1]] += geq;
        if (cs[2] >= 0) vals[cs[2]] -= geq;
        if (cs[3] >= 0) vals[cs[3]] -= geq;
        const int ra = cap_rhs_[p * 2 + 0];
        const int rb = cap_rhs_[p * 2 + 1];
        if (ra >= 0) rhs[static_cast<std::size_t>(ra)] -= isrc;
        if (rb >= 0) rhs[static_cast<std::size_t>(rb)] += isrc;
    }
}

void LinearBatch::build(const std::vector<const Resistor*>& resistors,
                        const std::vector<const Capacitor*>& capacitors,
                        const std::vector<const VSource*>& vsources,
                        const std::vector<const ISource*>& isources,
                        const SparseMatrix& pattern, int n_nodes) {
    // Slot of (row, col) in unknown space; rows/cols must exist (the
    // pattern pass stamped the same incidence).
    const auto slot_u = [&pattern](int r, int c) {
        const int slot = pattern.slot_index(static_cast<std::size_t>(r),
                                            static_cast<std::size_t>(c));
        require(slot >= 0,
                "LinearBatch: stamp destination missing from the pattern");
        return slot;
    };
    const auto pair_slots = [&](int a, int b, int* s) {
        const int au = unknown_of(a);
        const int bu = unknown_of(b);
        s[0] = au >= 0 ? slot_u(au, au) : -1;
        s[1] = bu >= 0 ? slot_u(bu, bu) : -1;
        s[2] = au >= 0 && bu >= 0 ? slot_u(au, bu) : -1;
        s[3] = au >= 0 && bu >= 0 ? slot_u(bu, au) : -1;
    };

    n_r_ = resistors.size();
    r_slots_.resize(n_r_ * 4);
    r_g_.resize(n_r_);
    for (std::size_t i = 0; i < n_r_; ++i) {
        const Resistor& r = *resistors[i];
        pair_slots(r.node_a(), r.node_b(), &r_slots_[i * 4]);
        r_g_[i] = 1.0 / r.resistance();
    }

    n_c_ = capacitors.size();
    c_slots_.resize(n_c_ * 4);
    c_rhs_.resize(n_c_ * 2);
    c_a_.resize(n_c_);
    c_b_.resize(n_c_);
    c_state_.resize(n_c_);
    c_val_.resize(n_c_);
    c_geq_.assign(n_c_, 0.0);
    c_isrc_.assign(n_c_, 0.0);
    cap_step_id_ = -1;
    cap_dt_ = 0.0;
    cap_be_ = false;
    for (std::size_t i = 0; i < n_c_; ++i) {
        const Capacitor& c = *capacitors[i];
        pair_slots(c.node_a(), c.node_b(), &c_slots_[i * 4]);
        c_rhs_[i * 2 + 0] = unknown_of(c.node_a());
        c_rhs_[i * 2 + 1] = unknown_of(c.node_b());
        c_a_[i] = c.node_a();
        c_b_[i] = c.node_b();
        c_state_[i] = c.state_base();
        c_val_[i] = c.capacitance();
    }

    n_v_ = vsources.size();
    v_dev_ = vsources;
    v_slots_.resize(n_v_ * 4);
    v_rhs_.resize(n_v_);
    for (std::size_t i = 0; i < n_v_; ++i) {
        const VSource& v = *vsources[i];
        const int pu = unknown_of(v.positive_node());
        const int mu = unknown_of(v.negative_node());
        const int bu = n_nodes - 1 + v.branch_base();
        int* s = &v_slots_[i * 4];
        s[0] = pu >= 0 ? slot_u(pu, bu) : -1;
        s[1] = pu >= 0 ? slot_u(bu, pu) : -1;
        s[2] = mu >= 0 ? slot_u(mu, bu) : -1;
        s[3] = mu >= 0 ? slot_u(bu, mu) : -1;
        v_rhs_[i] = bu;
    }

    n_i_ = isources.size();
    i_dev_ = isources;
    i_rhs_.resize(n_i_ * 2);
    for (std::size_t i = 0; i < n_i_; ++i) {
        i_rhs_[i * 2 + 0] = unknown_of(isources[i]->positive_node());
        i_rhs_[i * 2 + 1] = unknown_of(isources[i]->negative_node());
    }
}

void LinearBatch::refresh_caps(const SimContext& ctx) const {
    // Companion linearization (see spice/cap_companion.h): geq and the
    // equivalent current source are fixed for the whole step.
    const std::vector<double>& x_prev = *ctx.x_prev;
    const std::vector<double>& state = *ctx.state;
    const bool be = ctx.integrator == Integrator::kBackwardEuler;
    const double gscale = (be ? 1.0 : 2.0) / ctx.dt;
    for (std::size_t i = 0; i < n_c_; ++i) {
        const double v_prev = x_prev[static_cast<std::size_t>(c_a_[i])] -
                              x_prev[static_cast<std::size_t>(c_b_[i])];
        const double geq = c_val_[i] * gscale;
        const double i_prev =
            be ? 0.0 : state[static_cast<std::size_t>(c_state_[i])];
        c_geq_[i] = geq;
        c_isrc_[i] = -geq * v_prev - i_prev;
    }
    cap_step_id_ = ctx.step_id;
    cap_dt_ = ctx.dt;
    cap_be_ = be;
}

void LinearBatch::stamp(SparseMatrix& matrix, std::vector<double>& rhs,
                        const SimContext& ctx) const {
    double* vals = matrix.values().data();

    for (std::size_t i = 0; i < n_r_; ++i) {
        const int* s = &r_slots_[i * 4];
        const double g = r_g_[i];
        if (s[0] >= 0) vals[s[0]] += g;
        if (s[1] >= 0) vals[s[1]] += g;
        if (s[2] >= 0) vals[s[2]] -= g;
        if (s[3] >= 0) vals[s[3]] -= g;
    }

    for (std::size_t i = 0; i < n_v_; ++i) {
        const int* s = &v_slots_[i * 4];
        if (s[0] >= 0) vals[s[0]] += 1.0;
        if (s[1] >= 0) vals[s[1]] += 1.0;
        if (s[2] >= 0) vals[s[2]] -= 1.0;
        if (s[3] >= 0) vals[s[3]] -= 1.0;
        rhs[static_cast<std::size_t>(v_rhs_[i])] +=
            ctx.source_scale * v_dev_[i]->spec().value(ctx.time);
    }

    for (std::size_t i = 0; i < n_i_; ++i) {
        const double cur =
            ctx.source_scale * i_dev_[i]->spec().value(ctx.time);
        const int rp = i_rhs_[i * 2 + 0];
        const int rm = i_rhs_[i * 2 + 1];
        if (rp >= 0) rhs[static_cast<std::size_t>(rp)] -= cur;
        if (rm >= 0) rhs[static_cast<std::size_t>(rm)] += cur;
    }

    if (!ctx.is_tran() || ctx.dt <= 0.0) return;  // caps open in DC
    if (ctx.step_id < 0 || ctx.step_id != cap_step_id_ ||
        ctx.dt != cap_dt_ ||
        (ctx.integrator == Integrator::kBackwardEuler) != cap_be_)
        refresh_caps(ctx);
    for (std::size_t i = 0; i < n_c_; ++i) {
        const double geq = c_geq_[i];
        const double isrc = c_isrc_[i];
        const int* s = &c_slots_[i * 4];
        if (s[0] >= 0) vals[s[0]] += geq;
        if (s[1] >= 0) vals[s[1]] += geq;
        if (s[2] >= 0) vals[s[2]] -= geq;
        if (s[3] >= 0) vals[s[3]] -= geq;
        const int ra = c_rhs_[i * 2 + 0];
        const int rb = c_rhs_[i * 2 + 1];
        if (ra >= 0) rhs[static_cast<std::size_t>(ra)] -= isrc;
        if (rb >= 0) rhs[static_cast<std::size_t>(rb)] += isrc;
    }
}

void MosfetBatch::evaluate(const std::vector<double>& x, MosCurrent* out,
                           bool fast) const {
    for (std::size_t i = 0; i < count_; ++i) {
        const double vd = x[static_cast<std::size_t>(nd_[i])];
        const double vg = x[static_cast<std::size_t>(ng_[i])];
        const double vs = x[static_cast<std::size_t>(ns_[i])];
        const double vb = x[static_cast<std::size_t>(nb_[i])];
        const EkvCoeffs c = coeffs_at(i);
        out[i] = fast ? ekv_current(c, vd, vg, vs, vb,
                                    mcsm::softplus_logistic_fast)
                      : ekv_current(c, vd, vg, vs, vb,
                                    mcsm::softplus_logistic_ref);
    }
}

void MosfetBatch::evaluate_lanes(const std::vector<double>& x,
                                 MosCurrent* out) const {
    EkvLanes lanes;
    const std::size_t n_pad = gather_full_batch(x, lanes, ekv_lane_width());
    if (n_pad > 0) ekv_lane_kernel()(lanes, n_pad);
    for (std::size_t i = 0; i < count_; ++i) {
        out[i].ids = lane_ids_[i];
        out[i].gm = lane_gm_[i];
        out[i].gds = lane_gds_[i];
        out[i].gms = lane_gms_[i];
        out[i].gmb = lane_gmb_[i];
    }
}

}  // namespace mcsm::spice
