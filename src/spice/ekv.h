// The EKV interpolation channel current shared by the scalar Mosfet device
// and the batched SoA evaluator:
//     I = Is * [F(vp - vs) - F(vp - vd)] * (1 + lambda*|vds|),
//     F(v) = softplus(v / 2Ut)^2,  vp = (vg - VT0)/n   (bulk-referenced).
//
// The arithmetic here is transcribed exactly from the original
// Mosfet::evaluate_current so that the reference-math instantiation stays
// bit-identical to the scalar device (Mosfet::stamp, the oracle the batch
// is tested against). The math policy only swaps how the
// softplus/logistic pair is computed: `softplus_logistic_ref` (libm) or
// `softplus_logistic_fast` (piecewise polynomial, see common/numeric.h).
#ifndef MCSM_SPICE_EKV_H
#define MCSM_SPICE_EKV_H

#include "common/numeric.h"
#include "spice/mos_params.h"

namespace mcsm::spice {

// Channel current and derivatives w.r.t. terminal voltages (d, g, s, b).
struct MosCurrent {
    double ids = 0.0;  // current from drain terminal to source terminal [A]
    double gm = 0.0;   // d ids / d vg
    double gds = 0.0;  // d ids / d vd
    double gms = 0.0;  // d ids / d vs
    double gmb = 0.0;  // d ids / d vb
};

// Per-device channel coefficients, frozen at construction (params live in
// the technology card and geometry never changes after the device exists).
struct EkvCoeffs {
    double pol = 1.0;     // +1 NMOS, -1 PMOS
    double is = 0.0;      // 2 n beta Ut^2 with beta = kp W / L
    double n = 1.0;
    double vt0 = 0.0;
    double lambda = 0.0;
    double ut = 0.025;

    static EkvCoeffs from(const MosParams& p, double w, double l) {
        EkvCoeffs c;
        c.pol = p.type == MosType::kNmos ? 1.0 : -1.0;
        const double beta = p.kp * w / l;
        c.is = 2.0 * p.n * beta * p.ut * p.ut;
        c.n = p.n;
        c.vt0 = p.vt0;
        c.lambda = p.lambda;
        c.ut = p.ut;
        return c;
    }
};

// Evaluates the channel current and its derivatives at the given terminal
// voltages. `sp_sig` maps x to the {softplus(x), logistic(x)} pair.
template <typename SpSigFn>
inline MosCurrent ekv_current(const EkvCoeffs& c, double vd, double vg,
                              double vs, double vb, SpSigFn&& sp_sig) {
    // Polarity-normalized, bulk-referenced voltages.
    const double wg = c.pol * (vg - vb);
    const double wd = c.pol * (vd - vb);
    const double ws = c.pol * (vs - vb);

    const double vp = (wg - c.vt0) / c.n;

    // F(v) = softplus(v / (2 Ut))^2 and its derivative w.r.t. v.
    const SpSig f_src = sp_sig((vp - ws) / (2.0 * c.ut));
    const SpSig f_drn = sp_sig((vp - wd) / (2.0 * c.ut));
    const double ff = f_src.sp * f_src.sp;
    const double dff = f_src.sp * f_src.sig / c.ut;
    const double fr = f_drn.sp * f_drn.sp;
    const double dfr = f_drn.sp * f_drn.sig / c.ut;
    const double diff = ff - fr;

    // Smooth channel-length modulation, symmetric in d/s.
    const double eps = 1e-3;
    const double sabs = mcsm::smooth_abs(wd - ws, eps);
    const double dsabs = mcsm::smooth_abs_deriv(wd - ws, eps);
    const double clm = 1.0 + c.lambda * sabs;

    const double iw = c.is * diff * clm;

    // Derivatives in w-space.
    const double di_dwg = c.is * clm * (dff - dfr) / c.n;
    const double di_dws = -c.is * clm * dff - c.is * diff * c.lambda * dsabs;
    const double di_dwd = c.is * clm * dfr + c.is * diff * c.lambda * dsabs;

    MosCurrent out;
    // ids = pol * iw; d(ids)/d(v_x) = pol * d(iw)/d(w_x) * pol = d(iw)/d(w_x).
    out.ids = c.pol * iw;
    out.gm = di_dwg;
    out.gds = di_dwd;
    out.gms = di_dws;
    out.gmb = -(out.gm + out.gds + out.gms);
    return out;
}

}  // namespace mcsm::spice

#endif  // MCSM_SPICE_EKV_H
