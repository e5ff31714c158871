// Batch-first device evaluation tests:
//  * the fast softplus/logistic pair agrees with the libm reference to
//    tight tolerance over the whole argument range,
//  * batched SoA EKV evaluation with the reference kernel reproduces the
//    scalar Mosfet::evaluate_current bit-for-bit (ulp-scale) over
//    randomized operating points in every region,
//  * the fast kernel stays within a physically negligible tolerance of the
//    scalar reference on the same points,
//  * solve_dc_sweep (blocked multi-RHS quasi-Newton) matches per-point
//    solve_dc on a fully forced characterization fixture and on a generic
//    circuit with free nodes,
//  * shortcut characterization is bitwise deterministic across thread
//    counts.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "cells/library.h"
#include "common/numeric.h"
#include "common/numeric_tables.h"
#include "common/simd.h"
#include "core/characterizer.h"
#include "spice/circuit.h"
#include "spice/dc_solver.h"
#include "spice/device_batch.h"
#include "spice/ekv_lanes.h"
#include "spice/solver_workspace.h"
#include "tech/tech130.h"

namespace mcsm {
namespace {

using spice::Circuit;
using spice::MosCurrent;
using spice::Mosfet;
using spice::SourceSpec;

// Distance in representable doubles (same-sign finite inputs; equal bits
// return 0). Used for the "ulp-scale" SoA-vs-scalar assertion.
std::int64_t ulp_diff(double a, double b) {
    if (a == b) return 0;
    auto ordered = [](double x) {
        const auto bits = std::bit_cast<std::int64_t>(x);
        return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits
                        : bits;
    };
    const std::int64_t da = ordered(a);
    const std::int64_t db = ordered(b);
    return da > db ? da - db : db - da;
}

TEST(FastEkv, SoftplusLogisticPairMatchesReference) {
    std::mt19937 rng(20260728);
    std::uniform_real_distribution<double> wide(-80.0, 80.0);
    std::uniform_real_distribution<double> core(-12.0, 12.0);
    std::uniform_real_distribution<double> seam(7.9, 8.1);

    auto check = [](double x) {
        const SpSig f = softplus_logistic_fast(x);
        const SpSig r = softplus_logistic_ref(x);
        if (r.sp < 1e-300) {
            // Deep-underflow tail (the fast path clamps its exponential
            // argument at 708 to stay in the normal range): both values
            // are zero for any physical purpose.
            EXPECT_LT(f.sp, 1e-290) << "x=" << x;
            EXPECT_LT(f.sig, 1e-290) << "x=" << x;
            return;
        }
        EXPECT_NEAR(f.sp, r.sp, 5e-11 * std::fabs(r.sp)) << "x=" << x;
        EXPECT_NEAR(f.sig, r.sig, 5e-12 * std::max(r.sig, 1e-300))
            << "x=" << x;
    };

    for (int i = 0; i < 4000; ++i) check(wide(rng));
    for (int i = 0; i < 4000; ++i) check(core(rng));
    // The piecewise seams and the reference's own switch points.
    for (int i = 0; i < 500; ++i) {
        const double s = seam(rng);
        check(s);
        check(-s);
    }
    for (double x : {-745.0, -300.0, -30.0, -8.0, 0.0, 8.0, 30.0, 700.0})
        check(x);
}

// A circuit holding NMOS and PMOS devices of varied geometry between the
// first few nodes, prepared so the workspace exposes its MosfetBatch.
struct BatchBench {
    Circuit circuit;
    tech::Technology tech = tech::make_tech130();
    std::vector<const Mosfet*> mosfets;
    int n_nodes = 0;

    BatchBench() {
        const int vdd = circuit.node("vdd");
        circuit.add_vsource("VDD", vdd, Circuit::kGround,
                            SourceSpec::dc(tech.vdd));
        // Built with += to dodge GCC 12 -Wrestrict false positives on
        // `const char* + std::string&&` (see test_sta_scale.cpp).
        for (int k = 0; k < 6; ++k) {
            std::string n = "n";
            n += std::to_string(k);
            circuit.node(n);
        }
        std::mt19937 rng(7);
        std::uniform_int_distribution<int> pick(0, 6);
        std::uniform_real_distribution<double> wmul(0.5, 4.0);
        for (int k = 0; k < 24; ++k) {
            const bool nmos = k % 2 == 0;
            const auto& p = nmos ? tech.nmos : tech.pmos;
            const double w = (nmos ? tech.wn_unit : tech.wp_unit) * wmul(rng);
            std::string name = "M";
            name += std::to_string(k);
            circuit.add_mosfet(name, pick(rng), pick(rng), pick(rng),
                               nmos ? Circuit::kGround : vdd, p, w, tech.lmin);
        }
        circuit.prepare();
        for (const auto& dev : circuit.devices())
            if (const auto* m = dynamic_cast<const Mosfet*>(dev.get()))
                mosfets.push_back(m);
        n_nodes = circuit.node_count();
    }

    // Random node voltages spanning every device region: below-ground and
    // above-rail margins included (the characterizer sweeps there).
    std::vector<double> random_x(std::mt19937& rng) const {
        std::uniform_real_distribution<double> v(-0.4, tech.vdd + 0.4);
        std::vector<double> x(static_cast<std::size_t>(n_nodes) +
                                  static_cast<std::size_t>(
                                      circuit.branch_total()),
                              0.0);
        for (int n = 1; n < n_nodes; ++n)
            x[static_cast<std::size_t>(n)] = v(rng);
        return x;
    }
};

TEST(MosfetBatch, SoAReferenceKernelMatchesScalarAtUlpScale) {
    BatchBench bench;
    const spice::MosfetBatch& batch =
        bench.circuit.workspace().mosfet_batch();
    ASSERT_EQ(batch.size(), bench.mosfets.size());

    std::mt19937 rng(20260728);
    std::vector<MosCurrent> out(batch.size());
    for (int trial = 0; trial < 200; ++trial) {
        const std::vector<double> x = bench.random_x(rng);
        batch.evaluate(x, out.data(), /*fast=*/false);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Mosfet& m = *bench.mosfets[i];
            const MosCurrent ref = m.evaluate_current(
                x[static_cast<std::size_t>(m.drain())],
                x[static_cast<std::size_t>(m.gate())],
                x[static_cast<std::size_t>(m.source())],
                x[static_cast<std::size_t>(m.bulk())]);
            EXPECT_LE(ulp_diff(out[i].ids, ref.ids), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gm, ref.gm), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gds, ref.gds), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gms, ref.gms), 2) << "device " << i;
            EXPECT_LE(ulp_diff(out[i].gmb, ref.gmb), 2) << "device " << i;
        }
    }
}

TEST(MosfetBatch, FastKernelTightToScalarInAllRegions) {
    BatchBench bench;
    const spice::MosfetBatch& batch =
        bench.circuit.workspace().mosfet_batch();
    std::mt19937 rng(42);
    std::vector<MosCurrent> out(batch.size());

    // Every current/conductance within 1e-9 relative with an attoamp-scale
    // absolute floor: far below device tolerances, Newton vtol, and every
    // golden-waveform gate.
    auto expect_close = [](double got, double want, const char* what,
                     std::size_t i) {
        EXPECT_NEAR(got, want, 1e-9 * std::fabs(want) + 1e-18)
            << what << " device " << i;
    };
    auto check_x = [&](const std::vector<double>& x) {
        batch.evaluate(x, out.data(), /*fast=*/true);
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const Mosfet& m = *bench.mosfets[i];
            const MosCurrent ref = m.evaluate_current(
                x[static_cast<std::size_t>(m.drain())],
                x[static_cast<std::size_t>(m.gate())],
                x[static_cast<std::size_t>(m.source())],
                x[static_cast<std::size_t>(m.bulk())]);
            expect_close(out[i].ids, ref.ids, "ids", i);
            expect_close(out[i].gm, ref.gm, "gm", i);
            expect_close(out[i].gds, ref.gds, "gds", i);
            expect_close(out[i].gms, ref.gms, "gms", i);
            expect_close(out[i].gmb, ref.gmb, "gmb", i);
        }
    };

    // Randomized points (subthreshold, linear, saturation, reversed d/s and
    // the sweep margins all occur across 24 devices x shared nodes).
    for (int trial = 0; trial < 200; ++trial) check_x(bench.random_x(rng));
    // Deterministic corners: rails and mid-rail.
    for (double va : {0.0, 0.6, 1.2}) {
        for (double vb : {0.0, 0.05, 1.2}) {
            std::vector<double> x(static_cast<std::size_t>(bench.n_nodes) +
                                      static_cast<std::size_t>(
                                          bench.circuit.branch_total()),
                                  0.0);
            for (int n = 1; n < bench.n_nodes; ++n)
                x[static_cast<std::size_t>(n)] = (n % 2 != 0) ? va : vb;
            check_x(x);
        }
    }
}

// NOR2 characterization-style fixture: every node forced, so the blocked
// sweep's shared-factorization rounds are exact.
TEST(DcSweep, BlockedMatchesPerPointOnForcedFixture) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    auto build = [&]() {
        Circuit c;
        const int vdd = c.node("vdd");
        const int a = c.node("a");
        const int b = c.node("b");
        const int out = c.node("out");
        c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
        c.add_vsource("VA", a, Circuit::kGround, SourceSpec::dc(0.0));
        c.add_vsource("VB", b, Circuit::kGround, SourceSpec::dc(0.0));
        c.add_vsource("VOUT", out, Circuit::kGround, SourceSpec::dc(0.0));
        const cells::CellType& nor = lib.get("NOR2");
        std::unordered_map<std::string, int> conn{{cells::kVdd, vdd},
                                                  {cells::kGnd, 0},
                                                  {"A", a},
                                                  {"B", b},
                                                  {cells::kOut, out}};
        // Force the internal stack node too (as the MCSM fixture does): a
        // floating stack node's DC value is only pinned to within leakage
        // indeterminacy, which is no basis for a voltage comparison.
        for (const std::string& formal : nor.internal_nodes()) {
            const int n = c.node("int_" + formal);
            conn[formal] = n;
            c.add_vsource("VN_" + formal, n, Circuit::kGround,
                          SourceSpec::dc(0.6));
        }
        nor.instantiate(c, "DUT", conn);
        return c;
    };

    // Grid of (va, vb, vout) including the characterization margins.
    std::vector<double> grid{-0.2, 0.0, 0.3, 0.6, 0.9, 1.2, 1.4};
    std::vector<double> values;
    for (double va : grid)
        for (double vb : grid)
            for (double vout : grid) {
                values.push_back(va);
                values.push_back(vb);
                values.push_back(vout);
            }
    const std::size_t n_points = values.size() / 3;

    // Per-point reference.
    Circuit ref = build();
    ref.prepare();
    std::vector<std::vector<double>> want;
    spice::DcResult dc;
    for (std::size_t p = 0; p < n_points; ++p) {
        ref.vsource("VA").set_spec(SourceSpec::dc(values[p * 3 + 0]));
        ref.vsource("VB").set_spec(SourceSpec::dc(values[p * 3 + 1]));
        ref.vsource("VOUT").set_spec(SourceSpec::dc(values[p * 3 + 2]));
        dc = spice::solve_dc(ref, {}, dc.x.empty() ? nullptr : &dc.x);
        want.push_back(dc.x);
    }

    Circuit blk = build();
    blk.prepare();
    std::vector<spice::VSource*> swept{&blk.vsource("VA"),
                                       &blk.vsource("VB"),
                                       &blk.vsource("VOUT")};
    std::size_t seen = 0;
    spice::solve_dc_sweep(
        blk, swept, values, n_points, {}, nullptr,
        [&](std::size_t p, const std::vector<double>& x) {
            ASSERT_EQ(p, seen++);
            ASSERT_EQ(x.size(), want[p].size());
            for (std::size_t i = 0; i < x.size(); ++i)
                EXPECT_NEAR(x[i], want[p][i],
                            1e-6 * std::max(1.0, std::fabs(want[p][i])))
                    << "point " << p << " unknown " << i;
        });
    EXPECT_EQ(seen, n_points);
}

// Generic circuit with free nodes: the shared-matrix rounds are a
// quasi-Newton iteration here; converged points must still land on the
// true solution, and stragglers must fall back cleanly.
TEST(DcSweep, BlockedMatchesPerPointWithFreeNodes) {
    const tech::Technology t = tech::make_tech130();
    auto build = [&]() {
        Circuit c;
        const int vdd = c.node("vdd");
        const int in = c.node("in");
        const int out = c.node("out");  // free node
        const int mid = c.node("mid");  // free node
        c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
        c.add_vsource("VIN", in, Circuit::kGround, SourceSpec::dc(0.0));
        c.add_mosfet("MN", out, in, Circuit::kGround, Circuit::kGround,
                     t.nmos, t.wn_unit, t.lmin);
        c.add_mosfet("MP", out, in, vdd, vdd, t.pmos, t.wp_unit, t.lmin);
        c.add_resistor("RL", out, mid, 5e3);
        c.add_resistor("RG", mid, Circuit::kGround, 50e3);
        return c;
    };

    // 71 points: the sweep's 32-point blocks split them 32 + 32 + 7, so
    // warm starts chain across block boundaries.
    std::vector<double> values;
    for (int k = 0; k <= 70; ++k) values.push_back(-0.1 + 0.02 * k);
    const std::size_t n_points = values.size();

    Circuit ref = build();
    ref.prepare();
    std::vector<std::vector<double>> want;
    spice::DcResult dc;
    for (std::size_t p = 0; p < n_points; ++p) {
        ref.vsource("VIN").set_spec(SourceSpec::dc(values[p]));
        dc = spice::solve_dc(ref, {}, dc.x.empty() ? nullptr : &dc.x);
        want.push_back(dc.x);
    }

    Circuit blk = build();
    blk.prepare();
    std::vector<spice::VSource*> swept{&blk.vsource("VIN")};
    std::size_t seen = 0;
    spice::solve_dc_sweep(
        blk, swept, values, n_points, {}, nullptr,
        [&](std::size_t p, const std::vector<double>& x) {
            ++seen;
            for (std::size_t i = 0; i < x.size(); ++i)
                EXPECT_NEAR(x[i], want[p][i],
                            1e-6 * std::max(1.0, std::fabs(want[p][i])))
                    << "point " << p << " unknown " << i;
        });
    EXPECT_EQ(seen, n_points);
}

TEST(Characterizer, ShortcutSweepBitwiseAcrossThreadCounts) {
    const tech::Technology t = tech::make_tech130();
    const cells::CellLibrary lib(t);
    const core::Characterizer chr(lib);

    auto same = [](const lut::NdTable& a, const lut::NdTable& b) {
        ASSERT_EQ(a.value_count(), b.value_count());
        for (std::size_t i = 0; i < a.value_count(); ++i)
            EXPECT_EQ(a.values()[i], b.values()[i]) << a.name() << "[" << i
                                                    << "]";
    };
    // Every table of the list. NAND3 A-B-C adds two stack nodes and six
    // pin->stack Miller tables, filled from each slot's own cap buffers.
    struct Arc {
        const char* cell;
        std::vector<std::string> pins;
        std::size_t grid_points;
        std::size_t table_count;
    };
    for (const Arc& arc : {Arc{"NOR2", {"A", "B"}, 5, 10},
                           Arc{"NAND3", {"A", "B", "C"}, 4, 18}}) {
        core::CharOptions opt;
        opt.grid_points = arc.grid_points;
        opt.transient_caps = false;
        opt.threads = 1;
        const core::CsmModel serial =
            chr.characterize(arc.cell, core::ModelKind::kMcsm, arc.pins, opt);
        opt.threads = 3;
        const core::CsmModel parallel =
            chr.characterize(arc.cell, core::ModelKind::kMcsm, arc.pins, opt);

        const std::vector<const lut::NdTable*> a = serial.tables();
        const std::vector<const lut::NdTable*> b = parallel.tables();
        ASSERT_EQ(a.size(), arc.table_count) << arc.cell;
        ASSERT_EQ(b.size(), arc.table_count) << arc.cell;
        for (std::size_t i = 0; i < a.size(); ++i) same(*a[i], *b[i]);
    }
}

// ---- SIMD lane tier -----------------------------------------------------

// The fast-kernel reduction tables are compile-time literals; assert they
// are the exact libm doubles, so a platform whose libm disagreed would fail
// loudly here instead of drifting quietly.
TEST(NumericTables, ConstexprTablesMatchLibmBitwise) {
    for (int j = 0; j < 32; ++j)
        EXPECT_EQ(numeric_tables::kExp2Neg32[j],
                  std::exp2(-static_cast<double>(j) / 32.0))
            << "kExp2Neg32[" << j << "]";
    for (int j = 0; j < 64; ++j) {
        const double m0 = 1.0 + static_cast<double>(j) / 64.0;
        EXPECT_EQ(numeric_tables::kInvM0_64[j], 1.0 / m0)
            << "kInvM0_64[" << j << "]";
        EXPECT_EQ(numeric_tables::kLogM0_64[j], std::log(m0))
            << "kLogM0_64[" << j << "]";
    }
    EXPECT_EQ(numeric_tables::kLn2, std::log(2.0));
}

// Widths this build AND this CPU can actually run (1 always works).
std::vector<int> runnable_widths() {
    std::vector<int> ws{1};
    if (simd::cpu_caps().avx2_fma && simd::width_compiled(4)) ws.push_back(4);
    if (simd::cpu_caps().avx512 && simd::width_compiled(8)) ws.push_back(8);
    return ws;
}

// Pins the lane-kernel width for a scope; restores auto dispatch on exit.
struct ForcedWidth {
    explicit ForcedWidth(int w) { spice::ekv_lane_force_width(w); }
    ~ForcedWidth() { spice::ekv_lane_force_width(0); }
};

std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(SimdDispatch, PickWidthPolicy) {
    const simd::Caps none;  // CPU without AVX2/FMA: must fall back cleanly
    EXPECT_EQ(simd::pick_width(none, nullptr, nullptr), 1);
    EXPECT_EQ(simd::pick_width(none, nullptr, "8"), 1);

    simd::Caps avx2;
    avx2.avx2_fma = true;
    simd::Caps avx512 = avx2;
    avx512.avx512 = true;

    EXPECT_TRUE(simd::width_compiled(1));
    EXPECT_FALSE(simd::width_compiled(5));

    if (!simd::compiled_in()) {
        // MCSM_SIMD=OFF (or no fast kernel / non-x86 build): the tier is
        // compiled out and every dispatch resolves to the scalar kernel.
        EXPECT_EQ(simd::pick_width(avx512, nullptr, nullptr), 1);
        EXPECT_FALSE(simd::width_compiled(4));
        EXPECT_FALSE(simd::width_compiled(8));
        EXPECT_EQ(spice::ekv_lane_width(), 1);
        return;
    }

    const int w4 = simd::width_compiled(4) ? 4 : 1;
    const int w8 = simd::width_compiled(8) ? 8 : w4;
    EXPECT_EQ(simd::pick_width(avx2, nullptr, nullptr), w4);
    // Auto dispatch takes the widest compiled width the CPU supports.
    EXPECT_EQ(simd::pick_width(avx512, nullptr, nullptr), w8);
    // An explicit width request clamps down to CPU/build support.
    EXPECT_EQ(simd::pick_width(avx512, nullptr, "8"), w8);
    EXPECT_EQ(simd::pick_width(avx2, nullptr, "8"), w4);
    EXPECT_EQ(simd::pick_width(avx512, nullptr, "4"), w4);
    // MCSM_NO_SIMD beats everything ("0" counts as unset).
    EXPECT_EQ(simd::pick_width(avx512, "1", "8"), 1);
    EXPECT_EQ(simd::pick_width(avx512, "0", nullptr), w8);
    // Malformed or unsupported width requests fall back to scalar.
    EXPECT_EQ(simd::pick_width(avx512, nullptr, "2"), 1);
    EXPECT_EQ(simd::pick_width(avx512, nullptr, "banana"), 1);
    EXPECT_EQ(simd::pick_width(avx512, nullptr, "1"), 1);
}

TEST(SimdLanes, LaneKernelBitIdenticalToScalarFastAcrossWidths) {
    BatchBench bench;
    const spice::MosfetBatch& batch =
        bench.circuit.workspace().mosfet_batch();
    std::mt19937 rng(20260808);
    std::vector<MosCurrent> fast(batch.size());
    std::vector<MosCurrent> lanes(batch.size());

    // ±18 V excursions are unphysical but drive the pure math through every
    // region: deep subthreshold down to flushed-to-zero F terms, the
    // vds = 0 seam, strong inversion, reversed drain/source.
    std::uniform_real_distribution<double> wide(-18.0, 18.0);

    auto check_x = [&](const std::vector<double>& x, int w) {
        batch.evaluate(x, fast.data(), /*fast=*/true);
        batch.evaluate_lanes(x, lanes.data());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(bits_of(lanes[i].ids), bits_of(fast[i].ids))
                << "ids device " << i << " width " << w << " lane "
                << lanes[i].ids << " scalar " << fast[i].ids;
            EXPECT_EQ(bits_of(lanes[i].gm), bits_of(fast[i].gm))
                << "gm device " << i << " width " << w;
            EXPECT_EQ(bits_of(lanes[i].gds), bits_of(fast[i].gds))
                << "gds device " << i << " width " << w;
            EXPECT_EQ(bits_of(lanes[i].gms), bits_of(fast[i].gms))
                << "gms device " << i << " width " << w;
            EXPECT_EQ(bits_of(lanes[i].gmb), bits_of(fast[i].gmb))
                << "gmb device " << i << " width " << w;
        }
    };

    for (int w : runnable_widths()) {
        ForcedWidth guard(w);
        ASSERT_EQ(spice::ekv_lane_width(), w);
        for (int trial = 0; trial < 60; ++trial) {
            std::vector<double> x = bench.random_x(rng);
            if (trial % 2 == 1)
                for (int n = 1; n < bench.n_nodes; ++n)
                    x[static_cast<std::size_t>(n)] = wide(rng);
            check_x(x, w);
        }
        // vds = 0 region seam on every device: all nodes at one potential.
        for (double v : {0.0, 0.6, 1.2}) {
            std::vector<double> x(
                static_cast<std::size_t>(bench.n_nodes) +
                    static_cast<std::size_t>(bench.circuit.branch_total()),
                0.0);
            for (int n = 1; n < bench.n_nodes; ++n)
                x[static_cast<std::size_t>(n)] = v;
            check_x(x, w);
        }
    }
}

// Parametrizable fixture for masked-remainder and gated-compaction tests:
// `n_mos` devices (any count, deliberately including non-multiples of the
// lane widths) over a handful of shared nodes.
struct SmallBatch {
    Circuit circuit;
    tech::Technology tech = tech::make_tech130();
    int n_nodes = 0;

    explicit SmallBatch(int n_mos) {
        const int vdd = circuit.node("vdd");
        circuit.add_vsource("VDD", vdd, Circuit::kGround,
                            SourceSpec::dc(tech.vdd));
        for (int k = 0; k < 4; ++k) {
            std::string n = "n";
            n += std::to_string(k);
            circuit.node(n);
        }
        std::mt19937 rng(11);
        std::uniform_int_distribution<int> pick(0, 5);
        std::uniform_real_distribution<double> wmul(0.5, 3.0);
        for (int k = 0; k < n_mos; ++k) {
            const bool nmos = k % 2 == 0;
            const auto& p = nmos ? tech.nmos : tech.pmos;
            const double w =
                (nmos ? tech.wn_unit : tech.wp_unit) * wmul(rng);
            std::string name = "M";
            name += std::to_string(k);
            circuit.add_mosfet(name, pick(rng), pick(rng), pick(rng),
                               nmos ? Circuit::kGround : vdd, p, w,
                               tech.lmin);
        }
        circuit.prepare();
        n_nodes = circuit.node_count();
    }

    std::vector<double> zeros() const {
        return std::vector<double>(
            static_cast<std::size_t>(n_nodes) +
                static_cast<std::size_t>(circuit.branch_total()),
            0.0);
    }
};

struct AssemblySnapshot {
    std::vector<double> vals;
    std::vector<double> rhs;
};

AssemblySnapshot assemble_snapshot(Circuit& c, const spice::SimContext& ctx) {
    spice::SolverWorkspace& ws = c.workspace();
    const spice::Stamper& st = ws.assemble(ctx);
    const auto vals = ws.csr_matrix().values();
    return {{vals.begin(), vals.end()}, st.rhs()};
}

void expect_snapshots_bitwise(const AssemblySnapshot& got,
                              const AssemblySnapshot& want, int w,
                              const char* stage) {
    ASSERT_EQ(got.vals.size(), want.vals.size());
    ASSERT_EQ(got.rhs.size(), want.rhs.size());
    for (std::size_t i = 0; i < got.vals.size(); ++i)
        EXPECT_EQ(bits_of(got.vals[i]), bits_of(want.vals[i]))
            << stage << " width " << w << " matrix slot " << i;
    for (std::size_t i = 0; i < got.rhs.size(); ++i)
        EXPECT_EQ(bits_of(got.rhs[i]), bits_of(want.rhs[i]))
            << stage << " width " << w << " rhs row " << i;
}

// Full assembly at every width for batch sizes that exercise the masked
// remainder lanes (non-multiples of 4 and 8, including sizes below one
// lane) must reproduce the scalar path bit for bit.
TEST(SimdLanes, MaskedRemainderLanesMatchScalarAssembly) {
    std::mt19937 rng(20260808);
    for (int n_mos : {1, 3, 5, 7, 9, 13}) {
        SmallBatch bench(n_mos);
        std::vector<double> x = bench.zeros();
        std::uniform_real_distribution<double> v(-0.4, bench.tech.vdd + 0.4);
        for (int n = 1; n < bench.n_nodes; ++n)
            x[static_cast<std::size_t>(n)] = v(rng);

        spice::SimContext ctx;
        ctx.mode = spice::SimContext::Mode::kDc;
        ctx.x = &x;

        AssemblySnapshot want;
        {
            ForcedWidth guard(1);
            want = assemble_snapshot(bench.circuit, ctx);
        }
        for (int w : runnable_widths()) {
            if (w == 1) continue;
            ForcedWidth guard(w);
            const AssemblySnapshot got =
                assemble_snapshot(bench.circuit, ctx);
            expect_snapshots_bitwise(got, want, w, "full batch");
        }
    }
}

// Delta-gated compaction: after a warm-up assembly fills the tangent cache,
// moving a subset of nodes leaves a partial active set (generally a
// non-multiple of the width). Every width must agree with the scalar gated
// path bit for bit at every step of the sequence — same matrix, same RHS,
// same cache evolution.
TEST(SimdLanes, GatedActiveSetCompactionMatchesScalar) {
    const std::vector<int> widths = runnable_widths();
    // One independently-built circuit per width so each runs the identical
    // cache-state sequence from scratch.
    for (int n_mos : {6, 11}) {
        std::vector<AssemblySnapshot> want;  // from the width-1 run
        for (int w : widths) {
            ForcedWidth guard(w);
            SmallBatch bench(n_mos);
            std::vector<double> x = bench.zeros();
            std::mt19937 rng(99);
            std::uniform_real_distribution<double> v(0.0, bench.tech.vdd);
            for (int n = 1; n < bench.n_nodes; ++n)
                x[static_cast<std::size_t>(n)] = v(rng);

            spice::SimContext ctx;
            ctx.mode = spice::SimContext::Mode::kDc;
            ctx.stale_dv = 0.05;
            ctx.run_id = 1;
            ctx.x = &x;

            std::vector<AssemblySnapshot> got;
            // Step 0: cold cache, everything active.
            got.push_back(assemble_snapshot(bench.circuit, ctx));
            // Step 1: unchanged voltages — empty active set (pure replay).
            got.push_back(assemble_snapshot(bench.circuit, ctx));
            // Steps 2..4: bump one more node each time — growing partial
            // active sets of awkward sizes.
            for (int step = 2; step <= 4; ++step) {
                x[static_cast<std::size_t>(step)] += 0.2;
                got.push_back(assemble_snapshot(bench.circuit, ctx));
            }
            // Step 5: sub-threshold nudge stays inside the gate.
            x[2] += 0.001;
            got.push_back(assemble_snapshot(bench.circuit, ctx));

            if (w == 1) {
                want = std::move(got);
                continue;
            }
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t s = 0; s < got.size(); ++s)
                expect_snapshots_bitwise(got[s], want[s], w, "gated step");
        }
    }
}

// Denormal drain currents: bias one device so F(vp - vs) lands in the
// denormal range; the lane kernel must reproduce the scalar bits exactly
// (and the value really is denormal, so the seam is actually exercised).
TEST(SimdLanes, DenormalDrainCurrentsBitIdentical) {
    // One NMOS with explicit terminals: gate and bulk at ground, source and
    // drain ramped far positive, so F(vp - ws) underflows gradually and the
    // drain current walks through the denormal range before hitting zero.
    Circuit c;
    tech::Technology t = tech::make_tech130();
    const int vdd = c.node("vdd");
    const int nd = c.node("nd");
    const int ns = c.node("ns");
    c.add_vsource("VDD", vdd, Circuit::kGround, SourceSpec::dc(t.vdd));
    c.add_mosfet("M0", nd, Circuit::kGround, ns, Circuit::kGround, t.nmos,
                 t.wn_unit, t.lmin);
    c.prepare();
    const spice::MosfetBatch& batch = c.workspace().mosfet_batch();
    ASSERT_EQ(batch.size(), 1u);
    std::vector<MosCurrent> fast(batch.size());
    std::vector<MosCurrent> lanes(batch.size());

    bool saw_denormal = false;
    // Walk the source potential through the band where sp^2 drops across
    // the normal/denormal boundary (arg = (vp - ws)/2Ut near -350..-372).
    for (double vs = 15.0; vs <= 20.0; vs += 0.02) {
        std::vector<double> x(
            static_cast<std::size_t>(c.node_count()) +
                static_cast<std::size_t>(c.branch_total()),
            0.0);
        x[static_cast<std::size_t>(vdd)] = t.vdd;
        x[static_cast<std::size_t>(ns)] = vs;
        x[static_cast<std::size_t>(nd)] = vs + 0.7;
        batch.evaluate(x, fast.data(), /*fast=*/true);
        for (int w : runnable_widths()) {
            ForcedWidth guard(w);
            batch.evaluate_lanes(x, lanes.data());
            EXPECT_EQ(bits_of(lanes[0].ids), bits_of(fast[0].ids))
                << "vs " << vs << " width " << w << " lane " << lanes[0].ids
                << " scalar " << fast[0].ids;
            EXPECT_EQ(bits_of(lanes[0].gm), bits_of(fast[0].gm))
                << "vs " << vs << " width " << w;
        }
        const double a = std::fabs(fast[0].ids);
        if (a > 0.0 && a < std::numeric_limits<double>::min())
            saw_denormal = true;
    }
    EXPECT_TRUE(saw_denormal)
        << "sweep never produced a denormal drain current; widen the range";
}

// Repeated assemblies with the default dispatch must be bitwise stable
// (the cross-thread-count bitwise guarantee is covered by
// Characterizer.ShortcutSweepBitwiseAcrossThreadCounts, which runs with
// the same default SIMD dispatch).
TEST(SimdLanes, RepeatedAssembliesBitwiseIdentical) {
    SmallBatch bench(9);
    std::vector<double> x = bench.zeros();
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> v(0.0, bench.tech.vdd);
    for (int n = 1; n < bench.n_nodes; ++n)
        x[static_cast<std::size_t>(n)] = v(rng);
    spice::SimContext ctx;
    ctx.mode = spice::SimContext::Mode::kDc;
    ctx.x = &x;

    const AssemblySnapshot first = assemble_snapshot(bench.circuit, ctx);
    for (int rep = 0; rep < 5; ++rep) {
        const AssemblySnapshot again =
            assemble_snapshot(bench.circuit, ctx);
        expect_snapshots_bitwise(again, first, spice::ekv_lane_width(),
                                 "repeat");
    }
}

}  // namespace
}  // namespace mcsm
