#include "spice/dc_solver.h"

#include <cmath>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mcsm::spice {

namespace {

// One NR solve at fixed gmin. Returns iterations used, or -1 if it failed.
// The circuit's persistent workspace supplies the assembly storage and the
// factorization; the iteration body performs no heap allocation.
int newton_dc(Circuit& circuit, const DcOptions& options, double gmin,
              std::vector<double>& x, int max_iterations = 0) {
    if (max_iterations <= 0) max_iterations = options.max_iterations;
    const int n_nodes = circuit.node_count();
    SolverWorkspace& ws = circuit.workspace();

    SimContext ctx;
    ctx.mode = SimContext::Mode::kDc;
    ctx.time = options.time;
    ctx.source_scale = options.source_scale;
    ctx.x = &x;

    for (int it = 0; it < max_iterations; ++it) {
        Stamper& st = ws.assemble(ctx);
        st.add_gmin_everywhere(gmin);

        const std::vector<double>* sol_ptr;
        try {
            sol_ptr = &ws.solve();
        } catch (const NumericalError&) {
            return -1;
        }
        const std::vector<double>& sol = *sol_ptr;

        // Measure the node-voltage update before damping.
        double dx_max = 0.0;
        for (int node = 1; node < n_nodes; ++node) {
            const int u = st.unknown_of_node(node);
            dx_max = std::max(
                dx_max, std::fabs(sol[static_cast<std::size_t>(u)] -
                                  x[static_cast<std::size_t>(node)]));
        }
        const double alpha =
            dx_max > options.max_update ? options.max_update / dx_max : 1.0;

        for (int node = 1; node < n_nodes; ++node) {
            const int u = st.unknown_of_node(node);
            auto& xv = x[static_cast<std::size_t>(node)];
            xv += alpha * (sol[static_cast<std::size_t>(u)] - xv);
        }
        for (int br = 0; br < circuit.branch_total(); ++br) {
            const int u = st.unknown_of_branch(br);
            auto& xb = x[static_cast<std::size_t>(n_nodes + br)];
            xb += alpha * (sol[static_cast<std::size_t>(u)] - xb);
        }

        if (dx_max < options.vtol) return it + 1;
        if (!std::isfinite(dx_max)) return -1;
    }
    return -1;
}

// Mirrors DcResult::iterations into the obs counters (one source: the
// result field is authoritative, the counters are its process-wide sum).
void publish_dc_iters(int iterations) {
    static obs::Counter& solves = obs::counter("solver.dc.solves");
    static obs::Counter& iters = obs::counter("solver.dc.newton_iters");
    solves.add();
    iters.add(iterations);
}

}  // namespace

DcResult solve_dc(Circuit& circuit, const DcOptions& options,
                  const std::vector<double>* initial) {
    const obs::Span span("spice.solve_dc");
    circuit.prepare();
    const std::size_t x_size = static_cast<std::size_t>(
        circuit.node_count() + circuit.branch_total());

    DcResult result;
    if (initial != nullptr) {
        require(initial->size() == x_size, "solve_dc: bad initial size");
        result.x = *initial;
    } else {
        result.x.assign(x_size, 0.0);
    }
    result.x[0] = 0.0;

    // Fast path: try a direct solve at the final gmin (warm starts usually
    // converge immediately). Cold starts may cap the probe's iteration
    // budget -- a failure here only costs time, never the solution.
    const int probe_budget =
        initial == nullptr ? options.cold_probe_iterations : 0;
    int iters =
        newton_dc(circuit, options, options.gmin_final, result.x, probe_budget);
    if (iters >= 0) {
        result.iterations = iters;
        publish_dc_iters(result.iterations);
        return result;
    }

    // gmin stepping from a heavy shunt down to gmin_final.
    result.x.assign(x_size, 0.0);
    int total = 0;
    for (double gmin = 1e-2; gmin > options.gmin_final * 0.5; gmin *= 0.1) {
        const double g = std::max(gmin, options.gmin_final);
        iters = newton_dc(circuit, options, g, result.x);
        if (iters < 0) {
            throw NumericalError("solve_dc: gmin stepping failed at gmin=" +
                                 std::to_string(g));
        }
        total += iters;
        if (g == options.gmin_final) break;
    }
    // Ensure the final stage ran at gmin_final even if the loop exited early.
    iters = newton_dc(circuit, options, options.gmin_final, result.x);
    if (iters < 0)
        throw NumericalError("solve_dc: final stage failed to converge");
    result.iterations = total + iters;
    publish_dc_iters(result.iterations);
    return result;
}

namespace {

// Scratch for one solve_dc_sweep call; every buffer is sized once so the
// per-round loop stays allocation-free.
struct SweepScratch {
    std::vector<std::vector<double>> xs;  // per-point iterates (x layout)
    std::vector<double> u;                // one iterate in unknown space
    std::vector<double> r;                // one residual in unknown space
    std::vector<double> r_block;          // interleaved residual block
    std::vector<double> d_block;          // interleaved update block
    std::vector<char> converged;
    std::vector<char> needs_fallback;
    std::vector<std::size_t> active;      // block-local ids of live points
};

// x (node/branch layout) -> unknown-space vector (ground dropped).
void to_unknowns(const std::vector<double>& x, int n_nodes, int n_branches,
                 std::vector<double>& u) {
    for (int node = 1; node < n_nodes; ++node)
        u[static_cast<std::size_t>(node - 1)] =
            x[static_cast<std::size_t>(node)];
    for (int br = 0; br < n_branches; ++br)
        u[static_cast<std::size_t>(n_nodes - 1 + br)] =
            x[static_cast<std::size_t>(n_nodes + br)];
}

}  // namespace

void solve_dc_sweep(
    Circuit& circuit, const std::vector<VSource*>& swept,
    std::span<const double> values, std::size_t n_points,
    const DcSweepOptions& options, const std::vector<double>* initial,
    const std::function<void(std::size_t, const std::vector<double>&)>&
        on_point) {
    const std::size_t n_swept = swept.size();
    require(values.size() == n_points * n_swept,
            "solve_dc_sweep: values size mismatch");
    circuit.prepare();
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

    const int n_nodes = circuit.node_count();
    const int n_branches = circuit.branch_total();
    const std::size_t n_u = ws.system_size();
    const std::size_t x_size =
        static_cast<std::size_t>(n_nodes + n_branches);
    const std::size_t block = std::max<std::size_t>(1, options.block);

    SweepScratch s;
    s.xs.assign(block, std::vector<double>(x_size, 0.0));
    s.u.assign(n_u, 0.0);
    s.r.assign(n_u, 0.0);
    s.r_block.assign(n_u * block, 0.0);
    s.d_block.assign(n_u * block, 0.0);
    s.converged.assign(block, 0);
    s.needs_fallback.assign(block, 0);
    s.active.reserve(block);

    SimContext ctx;
    ctx.mode = SimContext::Mode::kDc;
    ctx.time = options.dc.time;
    ctx.source_scale = options.dc.source_scale;

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
            if (warm != nullptr && warm->size() == x_size)
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

        for (int round = 0; round < options.shared_rounds; ++round) {
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
            for (std::size_t a = 0; a < na; ++a) {
                const std::size_t j = s.active[a];
                program_point(base + j);
                ctx.x = &s.xs[j];
                Stamper& st = ws.assemble(ctx);
                st.add_gmin_everywhere(options.dc.gmin_final);
                to_unknowns(s.xs[j], n_nodes, n_branches, s.u);
                ws.residual(s.u, s.r);
                for (std::size_t i = 0; i < n_u; ++i)
                    s.r_block[i * na + a] = s.r[i];
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
                double dx_max = 0.0;
                for (int node = 1; node < n_nodes; ++node) {
                    const std::size_t u = static_cast<std::size_t>(node - 1);
                    dx_max = std::max(dx_max,
                                      std::fabs(s.d_block[u * na + a]));
                }
                if (!std::isfinite(dx_max)) {
                    s.needs_fallback[j] = 1;
                    continue;
                }
                const double alpha = dx_max > options.dc.max_update
                                         ? options.dc.max_update / dx_max
                                         : 1.0;
                std::vector<double>& x = s.xs[j];
                for (int node = 1; node < n_nodes; ++node)
                    x[static_cast<std::size_t>(node)] +=
                        alpha *
                        s.d_block[static_cast<std::size_t>(node - 1) * na + a];
                for (int br = 0; br < n_branches; ++br)
                    x[static_cast<std::size_t>(n_nodes + br)] +=
                        alpha *
                        s.d_block[static_cast<std::size_t>(n_nodes - 1 + br) *
                                      na +
                                  a];
                if (dx_max < options.dc.vtol) s.converged[j] = 1;
            }
        }

        // Acceptance: the shared-matrix step test alone can under-resolve a
        // node whose local conductance is far below the lead point's (a
        // small J_lead^-1 r does not imply a small J_j^-1 r), so every
        // candidate must pass one exact-Newton step with its own Jacobian
        // — the same criterion the per-point solver uses. The step is
        // applied (it is a free accuracy improvement); a failed check or a
        // never-converged point takes the robust per-point path (own
        // pivoting per iteration, gmin stepping) from its current iterate.
        for (std::size_t j = 0; j < bm; ++j) {
            bool accepted = fully_forced && s.converged[j];
            if (!accepted && s.converged[j] && !s.needs_fallback[j]) {
                program_point(base + j);
                ctx.x = &s.xs[j];
                Stamper& st = ws.assemble(ctx);
                st.add_gmin_everywhere(options.dc.gmin_final);
                to_unknowns(s.xs[j], n_nodes, n_branches, s.u);
                ws.residual(s.u, s.r);
                try {
                    ws.factor();
                    ws.solve_block(s.r.data(), s.d_block.data(), 1);
                    double dx_max = 0.0;
                    for (int node = 1; node < n_nodes; ++node)
                        dx_max = std::max(
                            dx_max,
                            std::fabs(
                                s.d_block[static_cast<std::size_t>(node - 1)]));
                    if (std::isfinite(dx_max) && dx_max < options.dc.vtol) {
                        std::vector<double>& x = s.xs[j];
                        for (int node = 1; node < n_nodes; ++node)
                            x[static_cast<std::size_t>(node)] +=
                                s.d_block[static_cast<std::size_t>(node - 1)];
                        for (int br = 0; br < n_branches; ++br)
                            x[static_cast<std::size_t>(n_nodes + br)] +=
                                s.d_block[static_cast<std::size_t>(
                                    n_nodes - 1 + br)];
                        accepted = true;
                    }
                } catch (const NumericalError&) {
                }
            }
            if (!accepted) {
                program_point(base + j);
                const DcResult dc =
                    solve_dc(circuit, options.dc, &s.xs[j]);
                s.xs[j] = dc.x;
            }
            on_point(base + j, s.xs[j]);
        }
        warm = &s.xs[bm - 1];
    }
}

}  // namespace mcsm::spice
