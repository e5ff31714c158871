// Solver-core tests for the persistent sparse workspace:
//  * randomized dense-vs-sparse cross-checks on generated MNA systems
//    (pattern reuse, pivoting, refactor stability) against the dense LU
//    oracle,
//  * a golden test pinning solve_tran waveforms on the NOR2/NAND2
//    fixtures to values captured from the original dense solver,
//  * an allocation counter proving the Newton assembly+solve cycle is
//    heap-free after prepare(),
//  * determinism of the parallel scenario sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <unordered_set>

#include "cells/library.h"
#include "common/alloc_counter.h"
#include "common/linear_solver.h"
#include "common/parallel.h"
#include "common/sparse_lu.h"
#include "common/sparse_matrix.h"
#include "engine/scenarios.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"
#include "wave/edges.h"

// Global allocation instrumentation: every operator new in this binary
// bumps the counter declared in common/alloc_counter.h. The zero-alloc
// assertions diff the counter around the measured region only.
#include "common/alloc_instrument.h"

namespace mcsm {
namespace {

using spice::Circuit;
using spice::SourceSpec;

// --- SparseLu vs dense LU on random systems ------------------------------

// Random sparse system with the structural quirks of MNA matrices:
// diagonally-strong conductance rows plus a few zero-diagonal "voltage
// branch" row/column pairs that force pivoting.
struct RandomSystem {
    SparseMatrix a;
    DenseMatrix dense;
    std::vector<double> b;
};

RandomSystem make_random_system(std::mt19937& rng, std::size_t n,
                                std::size_t n_branch) {
    std::uniform_real_distribution<double> mag(0.1, 2.0);
    std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);

    std::vector<std::pair<int, int>> entries;
    const std::size_t n_cond = static_cast<std::size_t>(n - n_branch);
    for (std::size_t r = 0; r < n_cond; ++r) {
        entries.emplace_back(static_cast<int>(r), static_cast<int>(r));
        for (int k = 0; k < 3; ++k)
            entries.emplace_back(static_cast<int>(r), pick(rng));
    }
    for (std::size_t k = 0; k < n_branch; ++k) {
        // Branch row/col pair: a_{br,p} = a_{p,br} = 1, zero diagonal.
        const int br = static_cast<int>(n_cond + k);
        const int p = static_cast<int>(k % n_cond);
        entries.emplace_back(br, p);
        entries.emplace_back(p, br);
    }

    RandomSystem s;
    s.a.build(n, entries);
    s.dense.resize(n, n);
    // Fill values over the pattern: strong diagonal on conductance rows.
    for (std::size_t r = 0; r < n; ++r) {
        const auto cols = s.a.row_cols(r);
        for (int c : cols) {
            double v;
            if (static_cast<std::size_t>(c) == r)
                v = (r < n_cond) ? 3.0 + mag(rng) : 0.0;
            else
                v = mag(rng) - 1.0;
            // The branch coupling entries stay +-1-ish.
            if (r >= n_cond || static_cast<std::size_t>(c) >= n_cond)
                v = (r == static_cast<std::size_t>(c)) ? 0.0 : 1.0;
            s.a.add(r, static_cast<std::size_t>(c), v);
        }
    }
    for (std::size_t r = 0; r < n; ++r) {
        const auto cols = s.a.row_cols(r);
        const auto vals = s.a.row_values(r);
        for (std::size_t i = 0; i < cols.size(); ++i)
            s.dense.at(r, static_cast<std::size_t>(cols[i])) = vals[i];
    }
    s.b.resize(n);
    for (auto& v : s.b) v = mag(rng) - 1.0;
    return s;
}

TEST(SparseLu, MatchesDenseOnRandomSystems) {
    std::mt19937 rng(20260728);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 5 + static_cast<std::size_t>(trial % 20);
        const std::size_t n_branch = static_cast<std::size_t>(trial % 3);
        RandomSystem s = make_random_system(rng, n, n_branch);

        SparseLu lu;
        lu.factor(s.a);
        std::vector<double> x_sparse;
        lu.solve(s.b, x_sparse);

        const std::vector<double> x_dense = solve_lu(s.dense, s.b);
        ASSERT_EQ(x_sparse.size(), x_dense.size());
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x_sparse[i], x_dense[i],
                        1e-9 * std::max(1.0, std::fabs(x_dense[i])))
                << "trial " << trial << " unknown " << i;
    }
}

TEST(SparseLu, RefactorReusesSymbolicAnalysis) {
    std::mt19937 rng(7);
    RandomSystem s = make_random_system(rng, 12, 2);

    SparseLu lu;
    lu.factor(s.a);
    EXPECT_EQ(lu.full_factor_count(), 1u);

    // Same pattern, new values: the numeric-only refactor must run and
    // still match the dense solve.
    std::uniform_real_distribution<double> mag(0.1, 2.0);
    for (int round = 0; round < 5; ++round) {
        for (std::size_t r = 0; r < s.a.size(); ++r) {
            auto vals = s.a.row_values(r);
            const auto cols = s.a.row_cols(r);
            for (std::size_t i = 0; i < vals.size(); ++i) {
                // Keep the MNA shape: scale, don't re-sign.
                vals[i] *= 0.5 + mag(rng);
                s.dense.at(r, static_cast<std::size_t>(cols[i])) = vals[i];
            }
        }
        lu.factor(s.a);
        std::vector<double> x_sparse;
        lu.solve(s.b, x_sparse);
        const std::vector<double> x_dense = solve_lu(s.dense, s.b);
        for (std::size_t i = 0; i < s.a.size(); ++i)
            EXPECT_NEAR(x_sparse[i], x_dense[i],
                        1e-9 * std::max(1.0, std::fabs(x_dense[i])));
    }
    EXPECT_EQ(lu.full_factor_count(), 1u);
    EXPECT_EQ(lu.refactor_count(), 5u);
}

TEST(SparseLu, PivotsZeroDiagonal) {
    // [[0, 1], [1, 0]] x = b requires a row swap; a no-pivot elimination
    // would die on the zero diagonal.
    SparseMatrix a;
    a.build(2, {{0, 1}, {1, 0}});
    a.add(0, 1, 1.0);
    a.add(1, 0, 1.0);
    SparseLu lu;
    lu.factor(a);
    std::vector<double> x;
    lu.solve({2.0, 3.0}, x);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SparseLu, ThrowsOnSingular) {
    SparseMatrix a;
    a.build(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
    a.add(0, 0, 1.0);
    a.add(0, 1, 2.0);
    a.add(1, 0, 0.5);
    a.add(1, 1, 1.0);  // row 1 = 0.5 * row 0
    SparseLu lu;
    EXPECT_THROW(lu.factor(a), NumericalError);
}

TEST(SparseMatrix, RowHashedSlotMapBeyondDenseLimit) {
    // n > 512 disables the dense (r, c) -> slot map, so every lookup goes
    // through the row-hashed map; cross-check it against a reference set on
    // a random large flat pattern.
    std::mt19937 rng(20260728);
    const std::size_t n = 1500;
    std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);

    std::vector<std::pair<int, int>> entries;
    std::unordered_set<long long> reference;
    auto key = [n](int r, int c) {
        return static_cast<long long>(r) * static_cast<long long>(n) + c;
    };
    for (std::size_t i = 0; i + 1 < n; ++i) {  // tridiagonal backbone
        entries.emplace_back(static_cast<int>(i), static_cast<int>(i + 1));
        entries.emplace_back(static_cast<int>(i + 1), static_cast<int>(i));
    }
    for (int k = 0; k < 4000; ++k)  // long-range fill-ins
        entries.emplace_back(pick(rng), pick(rng));
    for (const auto& [r, c] : entries) reference.insert(key(r, c));
    for (std::size_t i = 0; i < n; ++i)  // build() adds the diagonal
        reference.insert(key(static_cast<int>(i), static_cast<int>(i)));

    SparseMatrix a;
    a.build(n, entries);
    ASSERT_EQ(a.nnz(), reference.size());

    // Every pattern entry accumulates; every off-pattern probe is rejected
    // without disturbing stored values.
    for (std::size_t r = 0; r < n; ++r)
        for (int c : a.row_cols(r)) {
            EXPECT_TRUE(a.add(r, static_cast<std::size_t>(c), 1.0));
            EXPECT_TRUE(a.add(r, static_cast<std::size_t>(c), 0.5));
        }
    int probed = 0;
    while (probed < 2000) {
        const int r = pick(rng);
        const int c = pick(rng);
        if (reference.count(key(r, c))) continue;
        ++probed;
        EXPECT_FALSE(a.add(static_cast<std::size_t>(r),
                           static_cast<std::size_t>(c), 7.0));
        EXPECT_EQ(a.at(static_cast<std::size_t>(r),
                       static_cast<std::size_t>(c)),
                  0.0);
    }
    for (std::size_t r = 0; r < n; ++r)
        for (int c : a.row_cols(r))
            EXPECT_EQ(a.at(r, static_cast<std::size_t>(c)), 1.5);
}

// --- dense-vs-sparse cross-check through the full solver stack -----------

// Dense-LU oracle for a solved circuit: assembles the DC system at `x`
// through the per-device virtual stamps, densifies the workspace CSR
// matrix, and solves it with the dense partial-pivot LU. Returns the
// solution in the solver's x layout (ground, nodes, branches). For a
// linear circuit that is the exact solution; for a nonlinear one it is
// one dense Newton step from x, so a converged x must be its fixed point.
std::vector<double> dense_reference_at(Circuit& c,
                                       const std::vector<double>& x) {
    spice::SolverWorkspace& ws = c.workspace();
    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &x;
    spice::Stamper& st = ws.begin_assembly();
    for (const auto& dev : c.devices()) dev->stamp(st, ctx);
    st.add_gmin_everywhere(spice::DcOptions{}.gmin_final);

    const SparseMatrix& a = ws.csr_matrix();
    DenseMatrix dense(a.size(), a.size());
    for (std::size_t r = 0; r < a.size(); ++r) {
        const auto cols = a.row_cols(r);
        const auto vals = a.row_values(r);
        for (std::size_t i = 0; i < cols.size(); ++i)
            dense.at(r, static_cast<std::size_t>(cols[i])) = vals[i];
    }
    const std::vector<double> u = solve_lu(dense, st.rhs());

    std::vector<double> ref(x.size(), 0.0);
    for (int node = 1; node < c.node_count(); ++node)
        ref[static_cast<std::size_t>(node)] =
            u[static_cast<std::size_t>(st.unknown_of_node(node))];
    for (int br = 0; br < c.branch_total(); ++br)
        ref[static_cast<std::size_t>(c.node_count() + br)] =
            u[static_cast<std::size_t>(st.unknown_of_branch(br))];
    return ref;
}

// Random linear MNA circuits: a resistor chain guaranteeing connectivity
// plus random extra resistors, voltage and current sources.
Circuit make_random_circuit(std::mt19937& rng, int n_nodes) {
    // Kept small enough that damped Newton (max_update clamp) settles well
    // within its iteration budget: node voltages stay within a few volts.
    std::uniform_real_distribution<double> res(1e2, 1e4);
    std::uniform_real_distribution<double> volt(-2.0, 2.0);
    std::uniform_real_distribution<double> cur(-1e-5, 1e-5);
    std::uniform_int_distribution<int> pick(0, n_nodes - 1);

    Circuit c;
    std::vector<int> nodes{Circuit::kGround};
    for (int i = 1; i < n_nodes; ++i)
        nodes.push_back(c.node("n" + std::to_string(i)));

    for (int i = 0; i + 1 < n_nodes; ++i)
        c.add_resistor("Rchain" + std::to_string(i), nodes[i], nodes[i + 1],
                       res(rng));
    for (int k = 0; k < n_nodes; ++k) {
        const int a = pick(rng);
        const int b = pick(rng);
        if (a == b) continue;
        c.add_resistor("Rx" + std::to_string(k), nodes[a], nodes[b], res(rng));
    }
    c.add_vsource("V1", nodes[1], Circuit::kGround, SourceSpec::dc(volt(rng)));
    if (n_nodes > 4)
        c.add_vsource("V2", nodes[3], nodes[2], SourceSpec::dc(volt(rng)));
    c.add_isource("I1", nodes[n_nodes - 1], Circuit::kGround,
                  SourceSpec::dc(cur(rng)));
    return c;
}

TEST(SolverWorkspace, RandomMnaDenseVsSparse) {
    std::mt19937 rng(42);
    for (int trial = 0; trial < 25; ++trial) {
        const int n_nodes = 4 + trial % 12;
        Circuit c = make_random_circuit(rng, n_nodes);

        const spice::DcResult sparse = spice::solve_dc(c);
        const std::vector<double> dense = dense_reference_at(c, sparse.x);

        ASSERT_EQ(sparse.x.size(), dense.size());
        for (std::size_t i = 0; i < sparse.x.size(); ++i)
            EXPECT_NEAR(sparse.x[i], dense[i],
                        1e-9 * std::max(1.0, std::fabs(dense[i])))
                << "trial " << trial << " unknown " << i;
    }
}

TEST(SolverWorkspace, NonlinearDenseVsSparse) {
    // A transistor circuit exercises gmin stepping and many refactors.
    const tech::Technology t = tech::make_tech130();
    Circuit c;
    const int vdd = c.node("vdd");
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
    c.add_vsource("VIN", in, Circuit::kGround, SourceSpec::dc(0.6));
    c.add_mosfet("MN", out, in, Circuit::kGround, Circuit::kGround, t.nmos,
                 t.wn_unit, t.lmin);
    c.add_mosfet("MP", out, in, vdd, vdd, t.pmos, t.wp_unit, t.lmin);

    const spice::DcResult rs = spice::solve_dc(c);
    const std::vector<double> rd = dense_reference_at(c, rs.x);
    EXPECT_NEAR(rs.node_voltage(out), rd[static_cast<std::size_t>(out)],
                1e-6);
}

// --- golden waveforms ----------------------------------------------------

// Samples captured from the original dense solver on these exact fixtures
// (per-device stamps, dense LU, recursive step subdivision); the sparse
// workspace and the transient engine must stay within 1e-9 of them.
struct GoldenCase {
    const char* cell;
    double expect[6];
};

constexpr double kSampleTimes[6] = {0.5e-9, 1.2e-9, 1.9e-9,
                                    2.1e-9, 2.4e-9, 3.0e-9};

const GoldenCase kGoldenCases[2] = {
    {"NOR2",
     {4.6317673879070125e-07, 7.9085409895830781e-06, 7.2342797787824844e-06,
      0.97777252336104081, 1.1999996953468755, 1.1999996963690085}},
    {"NAND2",
     {1.1999997086324907, 8.6724441956179568e-06, 4.631834537945254e-07,
      1.1938037397328249, 1.1999950309613474, 1.1999954109179714}},
};

TEST(GoldenWaveforms, SparseWorkspaceWithinRoundoff) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    spice::TranOptions topt;
    topt.tstop = 3.2e-9;
    topt.dt = 2e-12;
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, t.vdd);
    for (const GoldenCase& gc : kGoldenCases) {
        engine::GoldenCell cell(lib, gc.cell, {{"A", stim.a}, {"B", stim.b}},
                                engine::LoadSpec{5e-15, 0, "INV_X1"});
        const spice::TranResult res = cell.run(topt);
        const wave::Waveform w = res.node_waveform(cell.out_node());
        for (int i = 0; i < 6; ++i)
            EXPECT_NEAR(w.at(kSampleTimes[i]), gc.expect[i], 1e-9)
                << gc.cell << " sample " << i;
    }
}

// --- zero allocations in the Newton assembly+solve cycle -----------------

TEST(SolverWorkspace, NewtonCycleIsAllocationFreeAfterPrepare) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, t.vdd);
    engine::GoldenCell cell(lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                            engine::LoadSpec{5e-15, 2, "INV_X1"});
    Circuit& c = cell.circuit();

    // Warm everything: workspace build, first factorization, operating
    // point, and the source-waveform evaluation paths.
    const spice::DcResult op = spice::solve_dc(c);
    spice::SolverWorkspace& ws = c.workspace();

    std::vector<double> x = op.x;
    const std::vector<double> state(
        static_cast<std::size_t>(c.state_total()), 0.0);

    spice::SimContext dc_ctx;
    dc_ctx.mode = spice::SimContext::Mode::kDc;
    dc_ctx.x = &x;

    spice::SimContext tran_ctx;
    tran_ctx.mode = spice::SimContext::Mode::kTran;
    tran_ctx.time = 1e-10;
    tran_ctx.dt = 1e-12;
    tran_ctx.x = &x;
    tran_ctx.x_prev = &x;
    tran_ctx.state = &state;
    tran_ctx.step_id = 1;

    // Both assembly flavors: the batched evaluate-and-stamp entry point the
    // solvers use (SoA MOSFET pass + virtual remainder) and the legacy
    // manual device loop.
    auto cycle = [&](const spice::SimContext& ctx) {
        spice::Stamper& st = ws.assemble(ctx);
        st.add_gmin_everywhere(1e-12);
        (void)ws.solve();
    };
    auto cycle_manual = [&](const spice::SimContext& ctx) {
        spice::Stamper& st = ws.begin_assembly();
        for (const auto& dev : c.devices()) dev->stamp(st, ctx);
        st.add_gmin_everywhere(1e-12);
        (void)ws.solve();
    };
    cycle(dc_ctx);   // warm the solve buffers
    cycle(tran_ctx); // and the transient companion caches
    cycle_manual(dc_ctx);

    // Blocked multi-RHS solves on the frozen factorization, preallocated
    // like the DC sweep solver's round buffers.
    const std::size_t n_u = ws.system_size();
    constexpr std::size_t kRhs = 8;
    std::vector<double> b_block(n_u * kRhs);
    std::vector<double> x_block(n_u * kRhs);
    std::vector<double> u(n_u, 0.0);
    std::vector<double> r(n_u, 0.0);
    for (std::size_t i = 0; i < b_block.size(); ++i)
        b_block[i] = 1e-6 * static_cast<double>(i % 17);
    ws.factor();
    ws.solve_block(b_block.data(), x_block.data(), kRhs);  // warm

    const std::size_t before = AllocCounter::count();
    for (int it = 0; it < 50; ++it) {
        cycle(dc_ctx);
        tran_ctx.step_id = 2 + it;  // force cap-cache refreshes too
        cycle(tran_ctx);
        cycle_manual(dc_ctx);
        ws.residual(u, r);
        ws.factor();
        ws.solve_block(b_block.data(), x_block.data(), kRhs);
    }
    const std::size_t after = AllocCounter::count();
    EXPECT_EQ(after - before, 0u)
        << "Newton assembly+solve allocated on the steady-state path";
}

// --- parallel sweep determinism ------------------------------------------

TEST(Scenarios, ParallelSweepMatchesSerial) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);

    std::vector<engine::ScenarioSpec> specs;
    for (int k = 0; k < 6; ++k) {
        const engine::MisStimulus stim = engine::nor2_simultaneous_fall(
            t.vdd, 0.6e-9, 80e-12, static_cast<double>(k) * 20e-12);
        specs.push_back({"skew" + std::to_string(k),
                         "NOR2",
                         {{"A", stim.a}, {"B", stim.b}},
                         engine::LoadSpec{5e-15, 0, "INV_X1"}});
    }
    spice::TranOptions topt;
    topt.tstop = 1.6e-9;
    topt.dt = 4e-12;

    const auto serial = engine::run_golden_scenarios(lib, specs, topt, 1);
    const auto parallel = engine::run_golden_scenarios(lib, specs, topt, 4);
    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(serial[i].name, specs[i].name);
        EXPECT_EQ(parallel[i].name, specs[i].name);
        const wave::Waveform ws_ = serial[i].result.node_waveform(
            serial[i].out_node);
        const wave::Waveform wp = parallel[i].result.node_waveform(
            parallel[i].out_node);
        ASSERT_EQ(ws_.size(), wp.size());
        for (std::size_t s = 0; s < ws_.size(); s += 7)
            EXPECT_EQ(ws_.value(s), wp.value(s))
                << "scenario " << i << " sample " << s;
    }
}

TEST(Parallel, ForCoversAllIndicesAndPropagatesErrors) {
    std::vector<int> hits(1000, 0);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i] = 1; }, 4);
    for (int h : hits) EXPECT_EQ(h, 1);

    EXPECT_THROW(
        parallel_for(
            16, [&](std::size_t i) { if (i == 7) throw NumericalError("x"); },
            4),
        NumericalError);

    // Nested calls from inside a pool worker run inline (no deadlock).
    std::atomic<int> total{0};
    parallel_for(
        8,
        [&](std::size_t) {
            parallel_for(8, [&](std::size_t) { ++total; }, 4);
        },
        4);
    EXPECT_EQ(total.load(), 64);
}

}  // namespace
}  // namespace mcsm
