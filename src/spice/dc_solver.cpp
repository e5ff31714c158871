#include "spice/dc_solver.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mcsm::spice {

namespace {

constexpr std::size_t kSweepBlock = 32;  // bias points per shared factor
constexpr int kSharedRounds = 25;        // shared rounds before fallback

// Residual and update buffers of the Newton iteration, in unknown space.
struct NewtonBuffers {
    explicit NewtonBuffers(std::size_t n_u) : r(n_u, 0.0), d(n_u, 0.0) {}
    std::vector<double> r;
    std::vector<double> d;
};

// Both helpers read an unknown-space update d with a stride, so one column
// of an interleaved solve_block result serves directly (stride 1 for a
// single system).

// Largest node-voltage entry of d (the node rows come first).
double node_step(const double* d, std::size_t stride,
                 std::size_t n_node_rows) {
    double m = 0.0;
    for (std::size_t i = 0; i < n_node_rows; ++i)
        m = std::max(m, std::fabs(d[i * stride]));
    return m;
}

// x += alpha * d, x in solution layout (unknown i is x[i + 1]).
void apply_update(std::vector<double>& x, const double* d,
                  std::size_t stride, double alpha) {
    for (std::size_t i = 0; i + 1 < x.size(); ++i)
        x[i + 1] += alpha * d[i * stride];
}

// The DC Newton: up to `budget` delta-form iterations from x at shunt
// `gmin`, each one assemble + residual + factor + solve. Every iteration
// that runs is counted into `iterations`. Returns true once the node update
// falls below kDcVtol (that last update applied undamped); false on budget
// exhaustion, a singular Jacobian or a non-finite update. Allocation-free.
bool newton_dc(SolverWorkspace& ws, const SimContext& ctx, double gmin,
               int budget, std::vector<double>& x, NewtonBuffers& buf,
               std::size_t n_node_rows, int& iterations) {
    for (int it = 0; it < budget; ++it) {
        ++iterations;
        Stamper& st = ws.assemble(ctx);
        st.add_gmin_everywhere(gmin);
        ws.residual(x, buf.r);
        try {
            ws.factor();
        } catch (const NumericalError&) {
            return false;
        }
        ws.solve_block(buf.r.data(), buf.d.data(), 1);

        const double dx_max = node_step(buf.d.data(), 1, n_node_rows);
        if (!std::isfinite(dx_max)) return false;
        const double alpha =
            dx_max > kDcMaxUpdate ? kDcMaxUpdate / dx_max : 1.0;
        apply_update(x, buf.d.data(), 1, alpha);
        if (dx_max < kDcVtol) return true;
    }
    return false;
}

// Mirrors DcResult::iterations into the obs counters (one source: the
// result field is authoritative, the counters are its process-wide sum).
void publish_dc_iters(int iterations) {
    static obs::Counter& solves = obs::counter("solver.dc.solves");
    static obs::Counter& iters = obs::counter("solver.dc.newton_iters");
    solves.add();
    iters.add(iterations);
}

std::size_t solution_size(const Circuit& circuit) {
    return static_cast<std::size_t>(circuit.node_count() +
                                    circuit.branch_total());
}

}  // namespace

DcResult solve_dc(Circuit& circuit, const DcOptions& options,
                  const std::vector<double>* initial) {
    const obs::Span span("spice.solve_dc");
    circuit.prepare();
    const std::size_t x_size = solution_size(circuit);
    SolverWorkspace& ws = circuit.workspace();

    DcResult result;
    if (initial != nullptr) {
        require(initial->size() == x_size, "solve_dc: bad initial size");
        result.x = *initial;
    } else {
        result.x.assign(x_size, 0.0);
    }
    result.x[0] = 0.0;

    SimContext ctx;
    ctx.mode = SimContext::Mode::kDc;
    ctx.x = &result.x;
    NewtonBuffers buf(ws.system_size());
    const auto n_node_rows = static_cast<std::size_t>(circuit.node_count() - 1);
    auto newton = [&](double gmin, int budget) {
        return newton_dc(ws, ctx, gmin, budget, result.x, buf, n_node_rows,
                         result.iterations);
    };

    // Fast path: a direct solve at the final gmin (warm starts usually
    // converge immediately). Cold starts may cap the probe's iteration
    // budget -- a failure here only costs time, never the solution.
    const int probe_budget = initial == nullptr &&
                                     options.cold_probe_iterations > 0
                                 ? options.cold_probe_iterations
                                 : kDcMaxIterations;
    if (!newton(kDcGmin, probe_budget)) {
        // gmin stepping from zero: a heavy shunt first, then one stage per
        // decade, ending with exactly one stage at kDcGmin.
        std::fill(result.x.begin(), result.x.end(), 0.0);
        for (double g = 1e-2;; g *= 0.1) {
            const bool last = g < 2.0 * kDcGmin;
            const double gmin = last ? kDcGmin : g;
            if (!newton(gmin, kDcMaxIterations))
                throw NumericalError(
                    "solve_dc: gmin stepping failed at gmin=" +
                    std::to_string(gmin));
            if (last) break;
        }
    }
    publish_dc_iters(result.iterations);
    return result;
}

namespace {

// Scratch for one solve_dc_sweep call; every buffer is sized once so the
// per-round loop stays allocation-free.
struct SweepScratch {
    explicit SweepScratch(std::size_t n_u) : newton(n_u) {}
    std::vector<std::vector<double>> xs;  // per-point iterates (x layout)
    NewtonBuffers newton;                 // one point's residual / update
    std::vector<double> r_block;          // interleaved residual block
    std::vector<double> d_block;          // interleaved update block
    std::vector<char> converged;
    std::vector<char> needs_fallback;
    std::vector<std::size_t> active;      // block-local ids of live points
};

}  // namespace

void solve_dc_sweep(
    Circuit& circuit, const std::vector<VSource*>& swept,
    std::span<const double> values, std::size_t n_points,
    const DcOptions& options, const std::vector<double>* initial,
    const std::function<void(std::size_t, const std::vector<double>&)>&
        on_point) {
    const std::size_t n_swept = swept.size();
    require(values.size() == n_points * n_swept,
            "solve_dc_sweep: values size mismatch");
    circuit.prepare();
    const std::size_t x_size = solution_size(circuit);
    require(initial == nullptr || initial->size() == x_size,
            "solve_dc_sweep: bad initial size");
    SolverWorkspace& ws = circuit.workspace();

    auto program_point = [&](std::size_t p) {
        for (std::size_t k = 0; k < n_swept; ++k)
            swept[k]->set_spec(SourceSpec::dc(values[p * n_swept + k]));
    };

    if (n_points == 0) return;

    // Deterministic regardless of what this workspace solved before: the
    // first factorization of the sweep re-runs the pivot search.
    ws.invalidate_factorization();

    // When every non-ground node is pinned by a ground-referenced voltage
    // source (the characterization-fixture shape), the source rows are
    // present exactly in any shared matrix, so the shared-factorization
    // step delivers the exact node delta — and, once nodes are within
    // vtol, an exact branch-current delta (the KCL rows are linear in the
    // branch unknowns, contaminated only by conductance-mismatch * vtol).
    // The per-point verification solve is provably redundant then.
    const bool fully_forced = [&] {
        std::vector<char> forced(static_cast<std::size_t>(circuit.node_count()),
                                 0);
        forced[0] = 1;
        for (const auto& dev : circuit.devices()) {
            const auto* v = dynamic_cast<const VSource*>(dev.get());
            if (v == nullptr) continue;
            if (v->negative_node() == 0 && v->positive_node() > 0)
                forced[static_cast<std::size_t>(v->positive_node())] = 1;
        }
        for (char f : forced)
            if (!f) return false;
        return true;
    }();

    const std::size_t n_u = ws.system_size();
    const auto n_node_rows = static_cast<std::size_t>(circuit.node_count() - 1);
    const std::size_t block = kSweepBlock;

    SweepScratch s(n_u);
    s.xs.assign(block, std::vector<double>(x_size, 0.0));
    s.r_block.assign(n_u * block, 0.0);
    s.d_block.assign(n_u * block, 0.0);
    s.converged.assign(block, 0);
    s.needs_fallback.assign(block, 0);
    s.active.reserve(block);

    SimContext ctx;
    ctx.mode = SimContext::Mode::kDc;

    const std::vector<double>* warm = initial;
    for (std::size_t base = 0; base < n_points; base += block) {
        const std::size_t bm = std::min(block, n_points - base);

        // Warm-start every point of the block from the best solution known
        // so far (the previous block's last point, chained), then seed the
        // nodes the swept sources force with their exact target values —
        // on a fully forced fixture that makes the very first shared round
        // assemble at the converged bias, so one round settles the point
        // (the source rows are linear, so the branch-current update it
        // produces is exact and the node delta is ~0).
        for (std::size_t j = 0; j < bm; ++j) {
            if (warm != nullptr)
                s.xs[j] = *warm;
            else
                std::fill(s.xs[j].begin(), s.xs[j].end(), 0.0);
            s.xs[j][0] = 0.0;
            for (std::size_t k = 0; k < n_swept; ++k) {
                const double val = values[(base + j) * n_swept + k];
                const int p = swept[k]->positive_node();
                const int m = swept[k]->negative_node();
                if (m == 0 && p != 0)
                    s.xs[j][static_cast<std::size_t>(p)] = val;
                else if (p == 0 && m != 0)
                    s.xs[j][static_cast<std::size_t>(m)] = -val;
                else if (p != 0)
                    s.xs[j][static_cast<std::size_t>(p)] =
                        s.xs[j][static_cast<std::size_t>(m)] + val;
            }
            s.converged[j] = 0;
            s.needs_fallback[j] = 0;
        }

        for (int round = 0; round < kSharedRounds; ++round) {
            s.active.clear();
            for (std::size_t j = 0; j < bm; ++j)
                if (!s.converged[j] && !s.needs_fallback[j])
                    s.active.push_back(j);
            if (s.active.empty()) break;
            const std::size_t na = s.active.size();

            // Assemble every active point at its own iterate, collect the
            // true residuals, and factor the lead point's Jacobian (before
            // the next assembly overwrites the shared matrix storage).
            bool factored = false;
            std::vector<double>& r = s.newton.r;
            for (std::size_t a = 0; a < na; ++a) {
                const std::size_t j = s.active[a];
                program_point(base + j);
                ctx.x = &s.xs[j];
                Stamper& st = ws.assemble(ctx);
                st.add_gmin_everywhere(kDcGmin);
                ws.residual(s.xs[j], r);
                for (std::size_t i = 0; i < n_u; ++i)
                    s.r_block[i * na + a] = r[i];
                if (!factored) {
                    try {
                        ws.factor();
                        factored = true;
                    } catch (const NumericalError&) {
                        s.needs_fallback[j] = 1;
                    }
                }
            }
            if (!factored) continue;  // every lead candidate was singular

            ws.solve_block(s.r_block.data(), s.d_block.data(), na);

            for (std::size_t a = 0; a < na; ++a) {
                const std::size_t j = s.active[a];
                if (s.needs_fallback[j]) continue;
                const double* d = s.d_block.data() + a;
                const double dx_max = node_step(d, na, n_node_rows);
                if (!std::isfinite(dx_max)) {
                    s.needs_fallback[j] = 1;
                    continue;
                }
                const double alpha =
                    dx_max > kDcMaxUpdate ? kDcMaxUpdate / dx_max : 1.0;
                apply_update(s.xs[j], d, na, alpha);
                if (dx_max < kDcVtol) s.converged[j] = 1;
            }
        }

        // Acceptance: the shared-matrix step test alone can under-resolve a
        // node whose local conductance is far below the lead point's (a
        // small J_lead^-1 r does not imply a small J_j^-1 r), so every
        // candidate must pass one solve_dc iteration with its own Jacobian
        // — the per-point solver's own criterion. Its step is kept (a free
        // accuracy improvement); a failed check or a never-converged point
        // takes the per-point path (gmin stepping if need be) from its
        // current iterate.
        for (std::size_t j = 0; j < bm; ++j) {
            bool accepted = fully_forced && s.converged[j];
            if (!accepted && s.converged[j] && !s.needs_fallback[j]) {
                program_point(base + j);
                ctx.x = &s.xs[j];
                int verify_iterations = 0;
                accepted = newton_dc(ws, ctx, kDcGmin, 1, s.xs[j], s.newton,
                                     n_node_rows, verify_iterations);
            }
            if (!accepted) {
                program_point(base + j);
                const DcResult dc = solve_dc(circuit, options, &s.xs[j]);
                s.xs[j] = dc.x;
            }
            on_point(base + j, s.xs[j]);
        }
        warm = &s.xs[bm - 1];
    }
}

}  // namespace mcsm::spice
