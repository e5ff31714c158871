#include "spice/mosfet.h"

#include <cmath>

#include "common/error.h"
#include "common/numeric.h"
#include "spice/cap_companion.h"

namespace mcsm::spice {

Mosfet::Mosfet(std::string name, int d, int g, int s, int b,
               const MosParams& params, double w, double l, double ad,
               double as, double pd, double ps)
    : Device(std::move(name)),
      d_(d),
      g_(g),
      s_(s),
      b_(b),
      params_(&params),
      w_(w),
      l_(l),
      ad_(ad >= 0.0 ? ad : w * params.ldiff),
      as_(as >= 0.0 ? as : w * params.ldiff),
      pd_(pd >= 0.0 ? pd : 2.0 * (w + params.ldiff)),
      ps_(ps >= 0.0 ? ps : 2.0 * (w + params.ldiff)) {
    require(w > 0.0 && l > 0.0, "Mosfet: W and L must be positive");
}

MosCurrent Mosfet::evaluate_current(double vd, double vg, double vs,
                                    double vb) const {
    return ekv_current(ekv_coeffs(), vd, vg, vs, vb,
                       mcsm::softplus_logistic_ref);
}

double Mosfet::junction_cap(double vj, double area, double perim) const {
    const MosParams& p = *params_;
    const double fcpb = p.fc * p.pb;
    // pow(x, 0.5) == sqrt(x) exactly under a correctly-rounded libm, and
    // sqrt is an order of magnitude cheaper -- the common mj = 0.5 case
    // dominates the per-step capacitance refresh.
    auto grade = [](double x, double m) {
        return m == 0.5 ? std::sqrt(x) : std::pow(x, m);
    };
    auto one_component = [&](double c0, double m) {
        if (c0 <= 0.0) return 0.0;
        if (vj < fcpb) {
            return c0 / grade(1.0 - vj / p.pb, m);
        }
        // Linearized extension beyond fc*pb (standard SPICE treatment).
        const double f = grade(1.0 - p.fc, m);
        return c0 / f * (1.0 + m * (vj - fcpb) / (p.pb * (1.0 - p.fc)));
    };
    return one_component(p.cj * area, p.mj) +
           one_component(p.cjsw * perim, p.mjsw);
}

MosCaps Mosfet::evaluate_caps(double vd, double vg, double vs,
                              double vb) const {
    const MosParams& p = *params_;
    const double pol = polarity();

    const double wg = pol * (vg - vb);
    const double wd = pol * (vd - vb);
    const double ws = pol * (vs - vb);

    const double wgs = wg - ws;
    const double wgd = wg - wd;

    // Body-affected threshold seen from the conducting (source) side; use a
    // smooth-max of the two channel ends for symmetry. The softplus/logistic
    // pair at (wgs-wgd)/bw shares one fast-kernel evaluation (same
    // approximation family as the batched EKV channel model).
    const double bw = p.blend_v;
    const mcsm::SpSig side = mcsm::softplus_logistic_fast((wgs - wgd) / bw);
    const double smax = bw * side.sp + wgd;
    const double smin = wgs + wgd - smax;
    const double w_side_min = std::min(ws, wd);
    const double vt_eff = p.vt0 + (p.n - 1.0) * std::max(0.0, w_side_min);

    // sigma: channel inverted somewhere; tau: inverted at both ends (triode).
    const double sigma =
        mcsm::softplus_logistic_fast((smax - vt_eff) / bw).sig;
    const double tau = mcsm::softplus_logistic_fast((smin - vt_eff) / bw).sig;

    // Probability that the s terminal acts as the source (lower potential
    // for NMOS); routes the saturation 2/3 Cox to the source side smoothly.
    const double psrc = side.sig;

    const double c_ch = p.cox * w_ * l_;
    MosCaps c;
    c.cgs = c_ch * (tau * 0.5 + (sigma - tau) * (2.0 / 3.0) * psrc) +
            p.cgso * w_;
    c.cgd = c_ch * (tau * 0.5 + (sigma - tau) * (2.0 / 3.0) * (1.0 - psrc)) +
            p.cgdo * w_;
    c.cgb = c_ch * (1.0 - sigma) * p.cgb_frac + p.cgbo * l_;

    // Junction caps: forward bias of the bulk junction diode is pol*(vb - vx).
    c.cdb = junction_cap(pol * (vb - vd), ad_, pd_);
    c.csb = junction_cap(pol * (vb - vs), as_, ps_);
    return c;
}

void Mosfet::stamp(Stamper& st, const SimContext& ctx) const {
    const double vd = ctx.node_voltage(d_);
    const double vg = ctx.node_voltage(g_);
    const double vs = ctx.node_voltage(s_);
    const double vb = ctx.node_voltage(b_);

    const MosCurrent cur = evaluate_current(vd, vg, vs, vb);

    // Linearized channel current: stamp the Jacobian entries and move the
    // affine remainder to the RHS. Current `ids` leaves node d, enters s.
    st.add_matrix(d_, g_, cur.gm);
    st.add_matrix(d_, d_, cur.gds);
    st.add_matrix(d_, s_, cur.gms);
    st.add_matrix(d_, b_, cur.gmb);
    st.add_matrix(s_, g_, -cur.gm);
    st.add_matrix(s_, d_, -cur.gds);
    st.add_matrix(s_, s_, -cur.gms);
    st.add_matrix(s_, b_, -cur.gmb);

    const double i_affine = cur.ids - (cur.gm * vg + cur.gds * vd +
                                       cur.gms * vs + cur.gmb * vb);
    st.add_source_current(d_, s_, i_affine);

    if (ctx.is_tran()) {
        // Capacitances linearized at the previous accepted solution.
        const MosCaps& caps = caps_at_step(ctx);
        const auto base = static_cast<std::size_t>(state_base());
        const std::vector<double>& state = *ctx.state;
        stamp_capacitor(st, ctx, g_, s_, caps.cgs, state[base + 0]);
        stamp_capacitor(st, ctx, g_, d_, caps.cgd, state[base + 1]);
        stamp_capacitor(st, ctx, g_, b_, caps.cgb, state[base + 2]);
        stamp_capacitor(st, ctx, d_, b_, caps.cdb, state[base + 3]);
        stamp_capacitor(st, ctx, s_, b_, caps.csb, state[base + 4]);
    }
}

const MosCaps& Mosfet::caps_at_step(const SimContext& ctx) const {
    if (ctx.step_id < 0 || ctx.step_id != caps_step_id_) {
        const double vd = ctx.prev_voltage(d_);
        const double vg = ctx.prev_voltage(g_);
        const double vs = ctx.prev_voltage(s_);
        const double vb = ctx.prev_voltage(b_);
        // Delta-gated revalidation (fast transient path only): a settled
        // device whose terminals barely moved keeps the linearization from
        // the step that last evaluated it. Assembly and commit still agree
        // on one C per pair, so the companion charge bookkeeping stays
        // consistent; the LTE controller absorbs the (tiny) model drift.
        const double tol = ctx.stale_dv;
        if (!(tol > 0.0 && ctx.run_id >= 0 && caps_run_id_ == ctx.run_id &&
              std::fabs(vd - caps_vd_) <= tol &&
              std::fabs(vg - caps_vg_) <= tol &&
              std::fabs(vs - caps_vs_) <= tol &&
              std::fabs(vb - caps_vb_) <= tol)) {
            caps_cache_ = evaluate_caps(vd, vg, vs, vb);
            caps_vd_ = vd;
            caps_vg_ = vg;
            caps_vs_ = vs;
            caps_vb_ = vb;
            caps_run_id_ = ctx.run_id;
        }
        caps_step_id_ = ctx.step_id;
    }
    return caps_cache_;
}

void Mosfet::commit(const SimContext& ctx,
                    std::span<double> state_next) const {
    if (!ctx.is_tran()) return;
    const MosCaps& caps = caps_at_step(ctx);
    const auto base = static_cast<std::size_t>(state_base());
    const std::vector<double>& state = *ctx.state;

    struct Pair {
        int a;
        int b;
        double c;
    };
    const Pair pairs[5] = {{g_, s_, caps.cgs},
                           {g_, d_, caps.cgd},
                           {g_, b_, caps.cgb},
                           {d_, b_, caps.cdb},
                           {s_, b_, caps.csb}};
    for (std::size_t k = 0; k < 5; ++k) {
        const double v_now =
            ctx.node_voltage(pairs[k].a) - ctx.node_voltage(pairs[k].b);
        const double v_prev =
            ctx.prev_voltage(pairs[k].a) - ctx.prev_voltage(pairs[k].b);
        state_next[base + k] = capacitor_current(ctx, pairs[k].c, v_now,
                                                 v_prev, state[base + k]);
    }
}

}  // namespace mcsm::spice
