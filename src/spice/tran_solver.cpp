#include "spice/tran_solver.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mcsm::spice {

TranResult::TranResult(std::vector<std::string> node_names,
                       std::unordered_map<std::string, int> vsource_branch)
    : node_names_(std::move(node_names)),
      vsource_branch_(std::move(vsource_branch)) {
    for (std::size_t i = 0; i < node_names_.size(); ++i)
        node_index_[node_names_[i]] = static_cast<int>(i);
    node_v_.resize(node_names_.size());
}

void TranResult::reserve(std::size_t n_samples, int n_branches) {
    times_.reserve(n_samples);
    for (auto& v : node_v_) v.reserve(n_samples);
    if (branch_i_.size() < static_cast<std::size_t>(n_branches))
        branch_i_.resize(static_cast<std::size_t>(n_branches));
    for (auto& i : branch_i_) i.reserve(n_samples);
}

void TranResult::record(double t, const std::vector<double>& x, int n_nodes,
                        int n_branches) {
    times_.push_back(t);
    for (int node = 0; node < n_nodes; ++node)
        node_v_[static_cast<std::size_t>(node)].push_back(
            x[static_cast<std::size_t>(node)]);
    if (branch_i_.empty()) branch_i_.resize(static_cast<std::size_t>(n_branches));
    for (int br = 0; br < n_branches; ++br)
        branch_i_[static_cast<std::size_t>(br)].push_back(
            x[static_cast<std::size_t>(n_nodes + br)]);
}

wave::Waveform TranResult::node_waveform(const std::string& node_name) const {
    const auto it = node_index_.find(node_name);
    require(it != node_index_.end(), "TranResult: unknown node name");
    return node_waveform(it->second);
}

wave::Waveform TranResult::node_waveform(int node_id) const {
    require(node_id >= 0 &&
                node_id < static_cast<int>(node_v_.size()),
            "TranResult: bad node id");
    return wave::Waveform(times_, node_v_[static_cast<std::size_t>(node_id)]);
}

wave::Waveform TranResult::vsource_current(
    const std::string& vsource_name) const {
    const auto it = vsource_branch_.find(vsource_name);
    require(it != vsource_branch_.end(), "TranResult: unknown vsource");
    return wave::Waveform(times_,
                          branch_i_[static_cast<std::size_t>(it->second)]);
}

double TranResult::final_node_voltage(int node_id) const {
    require(!times_.empty(), "TranResult: empty result");
    require(node_id >= 0 && node_id < static_cast<int>(node_v_.size()),
            "TranResult: bad node id");
    return node_v_[static_cast<std::size_t>(node_id)].back();
}

namespace {

// Process-wide so step ids never repeat across solve_tran calls on a reused
// circuit (devices key their linearization caches on it).
std::atomic<long long> g_step_counter{0};

// The transient SimContext shared by the Newton loop and commit_step.
SimContext make_tran_context(Integrator integrator, double time, double dt,
                             const std::vector<double>& x_prev,
                             const std::vector<double>& state,
                             const std::vector<double>& x,
                             long long step_id) {
    SimContext ctx;
    ctx.mode = SimContext::Mode::kTran;
    ctx.time = time;
    ctx.dt = dt;
    ctx.integrator = integrator;
    ctx.x = &x;
    ctx.x_prev = &x_prev;
    ctx.state = &state;
    ctx.step_id = step_id;
    return ctx;
}

// Commits device states after an accepted step into `state_next`.
void commit_step(Circuit& circuit, Integrator integrator, double time,
                 double dt, const std::vector<double>& x_prev,
                 const std::vector<double>& state,
                 const std::vector<double>& x,
                 std::vector<double>& state_next, long long step_id) {
    const SimContext ctx =
        make_tran_context(integrator, time, dt, x_prev, state, x, step_id);
    state_next = state;
    for (const auto& dev : circuit.devices())
        dev->commit(ctx, std::span<double>(state_next));
}

// True when a source-waveform corner lies inside [t0, t0+dt): trapezoidal
// integration would ring across the derivative discontinuity.
bool step_has_breakpoint(const std::vector<double>& breakpoints, double t0,
                         double dt) {
    const double eps = dt * 1e-6;
    const auto it =
        std::lower_bound(breakpoints.begin(), breakpoints.end(), t0 - eps);
    return it != breakpoints.end() && *it < t0 + dt - eps;
}

// TranStats is the single source for stepping-loop accounting: the engine
// fills the struct (surfaced per-result through TranResult::stats(), which
// the bench gates read), and each solve publishes the same struct into the
// process-wide obs counters here -- the two views cannot drift apart.
void publish_tran_stats(const TranStats& stats) {
    static obs::Counter& solves = obs::counter("solver.tran.solves");
    static obs::Counter& accepted =
        obs::counter("solver.tran.steps_accepted");
    static obs::Counter& rejected =
        obs::counter("solver.tran.steps_rejected");
    static obs::Counter& lte = obs::counter("solver.tran.lte_rejections");
    static obs::Counter& iters = obs::counter("solver.tran.newton_iters");
    static obs::Counter& refactors =
        obs::counter("solver.tran.lu_refactors");
    static obs::Counter& reuse =
        obs::counter("solver.tran.jacobian_reuse_steps");
    solves.add();
    accepted.add(stats.steps_accepted);
    rejected.add(stats.steps_rejected);
    lte.add(stats.lte_rejections);
    iters.add(stats.newton_iters);
    refactors.add(stats.lu_refactors);
    reuse.add(stats.jacobian_reuse_steps);
}

// A time for error messages; std::to_string's fixed notation would print
// every sub-microsecond time as 0.000000.
std::string time_text(double t) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", t);
    return buf;
}

// A few ulps of absolute slack around a time value; used to dedupe
// breakpoints against accepted step times and to snap step ends.
double time_ulp(double t) {
    return std::ldexp(std::max(std::fabs(t), 1e-30), -50);
}

// Full solution vector (ground + nodes + branches) -> unknown vector.
void to_unknowns(const std::vector<double>& x, int n_nodes, int n_branches,
                 std::vector<double>& u) {
    for (int node = 1; node < n_nodes; ++node)
        u[static_cast<std::size_t>(node - 1)] =
            x[static_cast<std::size_t>(node)];
    for (int br = 0; br < n_branches; ++br)
        u[static_cast<std::size_t>(n_nodes - 1 + br)] =
            x[static_cast<std::size_t>(n_nodes + br)];
}

// The transient engine: one delta-form Newton loop (a fresh factorization
// every iteration, or with reuse_jacobian a frozen sparse LU refreshed on
// integrator/dt changes, slow convergence, or failures) under one of two
// step policies -- the fixed record grid, or predictor-corrector LTE step
// control between source breakpoints. Every buffer is allocated in the
// constructor; the stepping loop itself is allocation-free.
class TranEngine {
public:
    TranEngine(Circuit& circuit, const TranOptions& opt,
               const std::vector<double>& breakpoints)
        : circuit_(circuit),
          opt_(opt),
          ws_(circuit.workspace()),
          bps_(breakpoints),
          n_nodes_(circuit.node_count()),
          n_branches_(circuit.branch_total()) {
        dt_floor_ = opt.dt_min > 0.0 ? opt.dt_min : opt.dt / 1024.0;
        dt_cap_ = std::max(opt.dt_max > 0.0 ? opt.dt_max : 32.0 * opt.dt,
                           dt_floor_);
        const auto n_u = static_cast<std::size_t>(n_nodes_ - 1 + n_branches_);
        u_.assign(n_u, 0.0);
        r_.assign(n_u, 0.0);
        d_.assign(n_u, 0.0);
        const auto n_x = static_cast<std::size_t>(n_nodes_ + n_branches_);
        x_new_.assign(n_x, 0.0);
        x_old_.assign(n_x, 0.0);
        state_next_.assign(static_cast<std::size_t>(circuit.state_total()),
                           0.0);
        // Results must not depend on which systems this workspace solved
        // before (same determinism contract as solve_dc_sweep).
        ws_.invalidate_factorization();
        // Step ids key the device linearization caches on the accepted base
        // solution: every attempt at the same step (Newton retry, LTE
        // shrink) shares one id, so raw capacitance evaluations are paid
        // once per accepted point, not once per attempt.
        base_step_id_ = g_step_counter.fetch_add(1, std::memory_order_relaxed);
        run_id_ = base_step_id_;  // scopes delta-gated cap reuse to this run
    }

    void run(std::vector<double>& x, std::vector<double>& state,
             TranResult& result) {
        if (opt_.step_control == StepControl::kAdaptiveLte)
            run_adaptive(x, state, result);
        else
            run_fixed(x, state, result);
    }

    TranStats stats;

private:
    // Fixed-grid policy: record on the dt grid, halve on Newton failure
    // only (no LTE control).
    void run_fixed(std::vector<double>& x, std::vector<double>& state,
                   TranResult& result) {
        const auto n_steps = static_cast<std::size_t>(
            std::ceil(opt_.tstop / opt_.dt - 1e-9));
        for (std::size_t k = 0; k < n_steps; ++k) {
            const double t0 = opt_.dt * static_cast<double>(k);
            const double t1 = std::min(opt_.tstop, t0 + opt_.dt);
            double t = t0;
            double h = t1 - t0;
            const double h_min =
                (t1 - t0) * std::ldexp(1.0, -opt_.max_subdivisions);
            while (t < t1 - time_ulp(t1)) {
                double t_next = std::min(t1, t + h);
                if (t1 - t_next <= time_ulp(t1)) t_next = t1;
                const Integrator integ =
                    step_has_breakpoint(bps_, t, t_next - t)
                        ? Integrator::kBackwardEuler
                        : opt_.integrator;
                if (try_step(t, t_next, integ, x, state)) {
                    accept(x, state);
                    t = t_next;
                } else {
                    ++stats.steps_rejected;
                    have_factor_ = false;
                    h *= 0.5;
                    if (h < h_min * 0.999) {
                        throw NumericalError(
                            "solve_tran: step at t=" + time_text(t) +
                            " failed after max subdivisions");
                    }
                }
            }
            result.record(t1, x, n_nodes_, n_branches_);
        }
    }

    void run_adaptive(std::vector<double>& x, std::vector<double>& state,
                      TranResult& result) {
        const double t_end = opt_.tstop;
        double t = 0.0;
        double dt = std::min(opt_.dt, dt_cap_);
        std::size_t bp_i = 0;
        bool force_be = false;
        while (t < t_end - time_ulp(t_end)) {
            // Consume breakpoints at (or within ulps of) the current time so
            // a breakpoint coinciding with an accepted step is never stepped
            // a second time.
            while (bp_i < bps_.size() && bps_[bp_i] <= t + time_ulp(bps_[bp_i]))
                ++bp_i;

            double h = std::clamp(dt, dt_floor_, dt_cap_);
            double t_next = t + h;
            bool hit_bp = false;
            if (bp_i < bps_.size()) {
                const double b = bps_[bp_i];
                if (t_next >= b - std::max(time_ulp(b), 1e-6 * h)) {
                    t_next = b;
                    hit_bp = true;
                }
            }
            if (!hit_bp &&
                t_next >= t_end - std::max(time_ulp(t_end), 1e-6 * h))
                t_next = t_end;
            h = t_next - t;

            const Integrator integ =
                (force_be || step_has_breakpoint(bps_, t, h))
                    ? Integrator::kBackwardEuler
                    : opt_.integrator;
            lte_bail_enabled_ = have_history_ && !force_be &&
                                h_prev_ > 0.0 && h > dt_floor_ * 1.001;
            if (!try_step(t, t_next, integ, x, state)) {
                ++stats.steps_rejected;
                if (att_lte_bail_) {
                    // Newton bailed early because the step is already far
                    // over the LTE budget: shrink like an LTE rejection and
                    // keep the factorization (it is still valid).
                    ++stats.lte_rejections;
                    dt = std::max(h * std::clamp(0.9 / std::sqrt(att_lte_ratio_),
                                                 0.25, 0.9),
                                  dt_floor_);
                    continue;
                }
                have_factor_ = false;
                dt = h * 0.5;
                if (dt < dt_floor_ * 0.999) {
                    throw NumericalError(
                        "solve_tran: adaptive step at t=" + time_text(t) +
                        " failed at the minimum step size");
                }
                continue;
            }

            // LTE accept/reject: linear extrapolation from the last two
            // accepted points predicts this step; the miss, scaled by the
            // mixed absolute/relative budget, drives the controller.
            double ratio = 0.0;
            if (have_history_ && !force_be && h_prev_ > 0.0) {
                ratio = lte_ratio(x, h);
                if (ratio > 1.0 && h > dt_floor_ * 1.001) {
                    ++stats.steps_rejected;
                    ++stats.lte_rejections;
                    dt = std::max(
                        h * std::clamp(0.9 / std::sqrt(ratio), 0.25, 0.9),
                        dt_floor_);
                    continue;
                }
            }

            accept(x, state);
            h_prev_ = h;
            result.record(t_next, x, n_nodes_, n_branches_);
            t = t_next;

            double grow = opt_.grow_max;
            if (ratio > 0.0)
                grow = std::clamp(0.9 / std::sqrt(ratio), 0.3, opt_.grow_max);
            dt = std::clamp(h * grow, dt_floor_, dt_cap_);
            if (hit_bp) {
                // Derivative discontinuity: restart the predictor history,
                // take one backward-Euler step, and drop back to the base dt.
                have_history_ = false;
                force_be = true;
                dt = std::min(dt, opt_.dt);
                ++bp_i;
            } else {
                have_history_ = true;
                force_be = false;
            }
        }
    }

    // Solves the step ending at t1 into x_new_ (x and state untouched, so a
    // rejected attempt needs no rollback). Returns false on divergence.
    // Throws once subdivision has shrunk the step below half an ulp of t0:
    // t1 == t0 would be a zero-length step that never advances time.
    bool try_step(double t0, double t1, Integrator integ,
                  const std::vector<double>& x,
                  const std::vector<double>& state) {
        if (!(t1 > t0)) {
            throw NumericalError("solve_tran: step at t=" + time_text(t0) +
                                 " no longer advances time after subdivision");
        }
        att_t1_ = t1;
        att_h_ = t1 - t0;
        att_integ_ = integ;
        att_step_id_ = base_step_id_;
        att_lte_bail_ = false;
        x_new_ = x;  // warm start
        if (have_history_ && h_prev_ > 0.0) {
            // Seed Newton with the same linear extrapolation the LTE
            // controller scores against: the initial error drops from the
            // full step change to the LTE miss, saving iterations against
            // stale factors. Node voltages only -- trapezoidal source
            // branch currents ring and extrapolate badly.
            const double s = att_h_ / h_prev_;
            for (int node = 1; node < n_nodes_; ++node) {
                const auto i = static_cast<std::size_t>(node);
                x_new_[i] = x[i] + (x[i] - x_old_[i]) * s;
            }
        }
        last_step_refactored_ = false;
        return newton(integ, t1, att_h_, x, state, att_step_id_);
    }

    // Commits the attempt solved by the last successful try_step.
    void accept(std::vector<double>& x, std::vector<double>& state) {
        commit_step(circuit_, att_integ_, att_t1_, att_h_, x, state, x_new_,
                    state_next_, att_step_id_);
        x_old_ = x;  // predictor history: solution one accepted step back
        x.swap(x_new_);
        state.swap(state_next_);
        ++stats.steps_accepted;
        if (!last_step_refactored_) ++stats.jacobian_reuse_steps;
        // New accepted base solution -> new cache key for the next step.
        base_step_id_ = g_step_counter.fetch_add(1, std::memory_order_relaxed);
    }

    // Delta-form Newton: every iteration assembles the true matrix and
    // residual at the current iterate and solves for the correction
    // d = LU^-1 r. Without reuse_jacobian every iteration factors. With it,
    // the factorization may be frozen from an earlier step; only the
    // correction goes through stale factors, so an accepted solution never
    // depends on them. Acceptance requires a small correction AND either
    // exact factors this iteration or a small true residual (KCL rows vs
    // itol, branch rows vs vtol).
    bool newton(Integrator integ, double time, double dt,
                const std::vector<double>& x_prev,
                const std::vector<double>& state, long long step_id) {
        SimContext ctx = make_tran_context(integ, time, dt, x_prev,
                                           state, x_new_, step_id);
        ctx.stale_dv = opt_.stale_dv;
        ctx.run_id = run_id_;
        // A stale factorization only slows convergence (acceptance is
        // residual-gated), so tolerate a fairly wide dt drift before paying
        // for a refactor: companion conductances scale with 1/dt.
        const bool reuse = opt_.reuse_jacobian;
        bool want_fresh = !reuse || !have_factor_ ||
                          integ != factor_integrator_ ||
                          dt < 0.45 * factor_dt_ || dt > 2.2 * factor_dt_;
        // Eager-fresh heuristic: when stale starts have recently needed a
        // mid-loop refresh anyway (paying for the wasted assembles), start
        // fresh for a while, probing a stale start every kFreshProbe steps
        // to notice when reuse becomes profitable again.
        bool started_stale = !want_fresh;
        if (started_stale && prefer_fresh_) {
            if (fresh_streak_ < kFreshProbe) {
                want_fresh = true;
                started_stale = false;
                ++fresh_streak_;
            } else {
                fresh_streak_ = 0;
            }
        }
        int stall = 0;
        double dx_prev = 0.0;
        for (int it = 0; it < opt_.max_newton; ++it) {
            Stamper& st = ws_.assemble(ctx);
            st.add_gmin_everywhere(opt_.gmin);
            to_unknowns(x_new_, n_nodes_, n_branches_, u_);
            ws_.residual(u_, r_);
            bool fresh = false;
            if (want_fresh) {
                try {
                    ws_.factor();
                } catch (const NumericalError&) {
                    return false;
                }
                have_factor_ = true;
                factor_dt_ = dt;
                factor_integrator_ = integ;
                last_step_refactored_ = true;
                want_fresh = !reuse;
                fresh = true;
                ++stats.lu_refactors;
            }
            ws_.solve_block(r_.data(), d_.data(), 1);
            ++stats.newton_iters;

            double dx_max = 0.0;
            for (int node = 1; node < n_nodes_; ++node)
                dx_max = std::max(
                    dx_max, std::fabs(d_[static_cast<std::size_t>(node - 1)]));
            if (!std::isfinite(dx_max)) {
                if (fresh) return false;
                want_fresh = true;  // retry this iterate with exact factors
                continue;
            }
            const double alpha = dx_max > opt_.max_update
                                     ? opt_.max_update / dx_max
                                     : 1.0;
            for (int node = 1; node < n_nodes_; ++node)
                x_new_[static_cast<std::size_t>(node)] +=
                    alpha * d_[static_cast<std::size_t>(node - 1)];
            for (int br = 0; br < n_branches_; ++br)
                x_new_[static_cast<std::size_t>(n_nodes_ + br)] +=
                    alpha * d_[static_cast<std::size_t>(n_nodes_ - 1 + br)];

            if (lte_bail_enabled_ && it == 0) {
                // The predictor-seeded first iterate is already close to the
                // step's solution; if its LTE is far over budget the step
                // will be rejected anyway, so skip the remaining iterations.
                const double ratio = lte_ratio(x_prev, dt);
                if (ratio > kLteBailRatio) {
                    att_lte_bail_ = true;
                    att_lte_ratio_ = ratio;
                    return false;
                }
            }

            if (dx_max < opt_.vtol) {
                if (fresh || residual_small()) {
                    if (started_stale) prefer_fresh_ = last_step_refactored_;
                    return true;
                }
                // Stale factors keep stalling next to the solution: refresh
                // instead of looping on a residual that will not shrink.
                if (++stall >= 3) want_fresh = true;
            } else {
                stall = 0;
                if (!last_step_refactored_ &&
                    (it >= kReuseIterBudget ||
                     (!fresh && dx_prev > 0.0 && dx_max > 0.4 * dx_prev))) {
                    // Slow linear contraction against the stale factors:
                    // each extra iteration costs a full device assembly, so
                    // cut losses and refactor at the current iterate (its
                    // progress is kept) rather than crawling to vtol.
                    want_fresh = true;
                }
            }
            dx_prev = dx_max;
        }
        return false;
    }

    // r_ holds the residual assembled at the accepting iterate (before its
    // sub-vtol correction): KCL rows in amps, branch rows in volts.
    bool residual_small() const {
        const auto n_kcl = static_cast<std::size_t>(n_nodes_ - 1);
        for (std::size_t i = 0; i < r_.size(); ++i) {
            const double tol = i < n_kcl ? opt_.itol : opt_.vtol;
            if (!(std::fabs(r_[i]) <= tol)) return false;
        }
        return true;
    }

    // Worst node-voltage entry of |corrector - predictor| over the mixed
    // budget; x_prev is the last accepted solution, x_old_ the one before,
    // x_new_ the candidate for the step of size h. Branch currents are
    // deliberately excluded (see TranOptions::lte_rel).
    double lte_ratio(const std::vector<double>& x_prev, double h) const {
        const double s = h / h_prev_;
        double worst = 0.0;
        for (int node = 1; node < n_nodes_; ++node) {
            const auto i = static_cast<std::size_t>(node);
            const double pred = x_prev[i] + (x_prev[i] - x_old_[i]) * s;
            const double scale =
                opt_.lte_abs_v + opt_.lte_rel * std::fabs(x_new_[i]);
            if (scale > 0.0)
                worst = std::max(worst, std::fabs(x_new_[i] - pred) / scale);
        }
        return worst;
    }

    // Iterations granted to a stale factorization before refreshing. With
    // delta-gated device reuse an assembly against an unchanged iterate is
    // cheap, so stale Newton can afford a few extra iterations before the
    // refactor pays for itself.
    static constexpr int kReuseIterBudget = 4;
    // Eager-fresh probe period and the first-iterate LTE ratio beyond which
    // a step is abandoned without finishing Newton.
    static constexpr int kFreshProbe = 6;
    static constexpr double kLteBailRatio = 3.0;

    Circuit& circuit_;
    const TranOptions& opt_;
    SolverWorkspace& ws_;
    const std::vector<double>& bps_;
    int n_nodes_;
    int n_branches_;
    double dt_floor_ = 0.0;
    double dt_cap_ = 0.0;

    std::vector<double> u_, r_, d_;          // unknown-space scratch
    std::vector<double> x_new_, state_next_; // step candidate
    std::vector<double> x_old_;              // predictor history
    double h_prev_ = 0.0;
    bool have_history_ = false;

    bool have_factor_ = false;
    double factor_dt_ = 0.0;
    Integrator factor_integrator_ = Integrator::kTrapezoidal;
    bool last_step_refactored_ = false;
    bool prefer_fresh_ = false;
    int fresh_streak_ = 0;

    // Attempt bookkeeping between try_step and accept.
    double att_t1_ = 0.0;
    double att_h_ = 0.0;
    Integrator att_integ_ = Integrator::kTrapezoidal;
    long long att_step_id_ = 0;
    long long base_step_id_ = 0;
    long long run_id_ = -1;
    bool lte_bail_enabled_ = false;
    bool att_lte_bail_ = false;
    double att_lte_ratio_ = 0.0;
};

}  // namespace

void validate_tran_options(const TranOptions& o) {
    require(std::isfinite(o.tstop) && o.tstop > 0.0,
            "TranOptions: tstop must be positive and finite");
    require(std::isfinite(o.dt) && o.dt > 0.0,
            "TranOptions: dt must be positive and finite");
    require(o.max_newton >= 1, "TranOptions: max_newton must be >= 1");
    require(std::isfinite(o.vtol) && o.vtol > 0.0,
            "TranOptions: vtol must be positive and finite");
    require(std::isfinite(o.max_update) && o.max_update > 0.0,
            "TranOptions: max_update must be positive and finite");
    require(std::isfinite(o.gmin) && o.gmin >= 0.0,
            "TranOptions: gmin must be non-negative and finite");
    require(o.max_subdivisions >= 0,
            "TranOptions: max_subdivisions must be >= 0");
    require(std::isfinite(o.dt_min) && o.dt_min >= 0.0,
            "TranOptions: dt_min must be non-negative and finite");
    require(std::isfinite(o.dt_max) && o.dt_max >= 0.0,
            "TranOptions: dt_max must be non-negative and finite");
    require(o.dt_min == 0.0 || o.dt_max == 0.0 || o.dt_min <= o.dt_max,
            "TranOptions: dt_min must not exceed dt_max");
    require(std::isfinite(o.itol) && o.itol > 0.0,
            "TranOptions: itol must be positive and finite");
    require(std::isfinite(o.stale_dv) && o.stale_dv >= 0.0,
            "TranOptions: stale_dv must be non-negative and finite");
    if (o.step_control == StepControl::kAdaptiveLte) {
        require(std::isfinite(o.lte_rel) && o.lte_rel >= 0.0,
                "TranOptions: lte_rel must be non-negative and finite");
        require(std::isfinite(o.lte_abs_v) && o.lte_abs_v >= 0.0,
                "TranOptions: lte_abs_v must be non-negative and finite");
        require(o.lte_rel > 0.0 || o.lte_abs_v > 0.0,
                "TranOptions: adaptive stepping needs a nonzero LTE budget "
                "(lte_rel or lte_abs_v)");
        require(std::isfinite(o.grow_max) && o.grow_max >= 1.0,
                "TranOptions: grow_max must be >= 1");
    }
}

TranOptions fast_tran_options(double tstop, double dt) {
    TranOptions o;
    o.tstop = tstop;
    o.dt = dt;
    o.step_control = StepControl::kAdaptiveLte;
    o.reuse_jacobian = true;
    // Tuned for throughput: the per-step LTE budget dominates the waveform
    // error (millivolts), so Newton does not need to polish three orders of
    // magnitude below it — acceptance is gated on the true residual
    // (itol/vtol), which keeps the solution honest at the looser vtol. A
    // budget this size holds 50 ps-class edges to low-picosecond timing
    // error while letting dt float well above a fixed 1-2 ps grid.
    o.lte_rel = 3e-2;
    o.lte_abs_v = 1e-3;
    o.vtol = 1e-4;
    o.itol = 3e-6;
    // Settled devices keep their linearization (channel tangent + caps)
    // until a terminal moves 0.2 mV -- on a gate chain only the switching
    // cells re-evaluate.
    o.stale_dv = 2e-4;
    // Cold-start DC either converges directly within a few dozen iterations
    // or oscillates until the iteration cap and falls back to gmin stepping;
    // don't burn the 400-iteration stage budget proving the latter.
    o.dc.cold_probe_iterations = 50;
    return o;
}

TranResult solve_tran(Circuit& circuit, const TranOptions& options) {
    validate_tran_options(options);
    const obs::Span span("spice.solve_tran");
    circuit.prepare();

    // Operating point at t=0.
    DcOptions dc = options.dc;
    dc.time = 0.0;
    DcResult op = solve_dc(circuit, dc);

    std::vector<double> x = op.x;
    std::vector<double> state(static_cast<std::size_t>(circuit.state_total()),
                              0.0);

    // Collect node names and vsource branch map for the result object.
    std::vector<std::string> names;
    names.reserve(static_cast<std::size_t>(circuit.node_count()));
    for (int node = 0; node < circuit.node_count(); ++node)
        names.push_back(circuit.node_name(node));
    std::unordered_map<std::string, int> vsrc;
    for (const auto& dev : circuit.devices()) {
        if (dev->branch_count() == 1) vsrc[dev->name()] = dev->branch_base();
    }

    // Breakpoints from every source, deduplicated and clamped to the run
    // window; corners outside [0, tstop] can never land inside a step.
    std::vector<double> breakpoints;
    for (const auto& dev : circuit.devices())
        dev->collect_breakpoints(breakpoints);
    std::sort(breakpoints.begin(), breakpoints.end());
    breakpoints.erase(std::unique(breakpoints.begin(), breakpoints.end()),
                      breakpoints.end());
    breakpoints.erase(
        std::remove_if(breakpoints.begin(), breakpoints.end(),
                       [&](double t) { return t < 0.0 || t > options.tstop; }),
        breakpoints.end());

    TranResult result(std::move(names), std::move(vsrc));
    const auto n_steps =
        static_cast<std::size_t>(std::ceil(options.tstop / options.dt - 1e-9));
    result.reserve(n_steps + 1, circuit.branch_total());
    result.record(0.0, x, circuit.node_count(), circuit.branch_total());

    TranEngine engine(circuit, options, breakpoints);
    engine.run(x, state, result);
    result.set_stats(engine.stats);
    publish_tran_stats(engine.stats);
    return result;
}

}  // namespace mcsm::spice
