// Observability layer: sharded counters under concurrency, snapshot
// consistency while writers are live, histogram bucket math, the trace
// ring buffer and its Chrome-JSON output, and the no-perturbation
// guarantee (solver results are bitwise identical with metrics on or off).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cells/library.h"
#include "engine/scenarios.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "spice/dc_solver.h"
#include "spice/tran_solver.h"
#include "tech/tech130.h"

using namespace mcsm;

namespace {

// Most tests count exact deltas on process-global metrics, so they read
// the before-value from the same handle rather than assuming zero.

TEST(ObsCounter, RegistryReturnsSameInstance) {
    obs::Counter& a = obs::counter("test.obs.identity");
    obs::Counter& b = obs::counter("test.obs.identity");
    EXPECT_EQ(&a, &b);
    obs::Gauge& g1 = obs::gauge("test.obs.gauge_identity");
    obs::Gauge& g2 = obs::gauge("test.obs.gauge_identity");
    EXPECT_EQ(&g1, &g2);
}

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
    obs::Counter& c = obs::counter("test.obs.concurrent");
    const long long before = c.value();
    constexpr int kThreads = 8;
    constexpr int kReps = 50000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([&c] {
            for (int i = 0; i < kReps; ++i) c.add();
        });
    for (std::thread& w : workers) w.join();
    EXPECT_EQ(c.value() - before,
              static_cast<long long>(kThreads) * kReps);
}

TEST(ObsCounter, DisabledUpdatesAreDropped) {
    obs::Counter& c = obs::counter("test.obs.kill_switch");
    const long long before = c.value();
    obs::set_enabled(false);
    c.add(7);
    obs::set_enabled(true);
    EXPECT_EQ(c.value(), before);
    c.add(7);
    EXPECT_EQ(c.value(), before + 7);
}

TEST(ObsGauge, SetAndAdd) {
    obs::Gauge& g = obs::gauge("test.obs.depth");
    g.set(10);
    g.add(-3);
    EXPECT_EQ(g.value(), 7);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(ObsHistogram, BucketBoundariesAreConsistent) {
    // Every sampled value must land in a bucket whose [lower, next-lower)
    // range contains it, across the full covered span (1 ns to minutes
    // when values are nanoseconds).
    for (double v : {1.0, 1.5, 2.0, 3.99, 1e3, 12345.6, 1e6, 7.7e9, 2e11}) {
        const int idx = obs::Histogram::bucket_index(v);
        ASSERT_GE(idx, 0) << v;
        ASSERT_LT(idx, obs::Histogram::kBuckets) << v;
        EXPECT_LE(obs::Histogram::bucket_lower_bound(idx), v) << v;
        if (idx + 1 < obs::Histogram::kBuckets) {
            EXPECT_GT(obs::Histogram::bucket_lower_bound(idx + 1), v) << v;
        }
    }
    // Sub-1 and degenerate inputs clamp into the first bucket instead of
    // indexing out of range.
    EXPECT_EQ(obs::Histogram::bucket_index(0.5), 0);
    EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
    EXPECT_EQ(obs::Histogram::bucket_index(-3.0), 0);
    // Monotone: growing values never map to a smaller bucket.
    int last = 0;
    for (double v = 1.0; v < 1e12; v *= 1.07) {
        const int idx = obs::Histogram::bucket_index(v);
        EXPECT_GE(idx, last) << v;
        last = idx;
    }
}

TEST(ObsHistogram, StatsAndPercentiles) {
    obs::Histogram& h = obs::histogram("test.obs.latency");
    h.reset();
    // 100 observations 1..100 (treated as ns): p50 ~ 50, p99 ~ 99, with
    // log-bucket resolution (4 buckets per octave -> <= ~19% upper error).
    for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
    const obs::HistogramStats s = h.stats();
    EXPECT_EQ(s.count, 100);
    EXPECT_DOUBLE_EQ(s.sum, 5050.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 100.0);
    EXPECT_GE(s.p50, 40.0);
    EXPECT_LE(s.p50, 70.0);
    EXPECT_GE(s.p99, 80.0);
    EXPECT_LE(s.p99, 130.0);
    EXPECT_LE(s.p50, s.p95);
    EXPECT_LE(s.p95, s.p99);
    // Interpolated within the bucket, not its lower edge (which read
    // p99 = 90.5 here).
    EXPECT_NEAR(s.p50, 50.0, 0.05 * 50.0);
    EXPECT_NEAR(s.p99, 99.0, 0.05 * 99.0);
}

TEST(ObsHistogram, IdenticalSamplesReportTheSampleValue) {
    obs::Histogram& h = obs::histogram("test.obs.identical_ns");
    h.reset();
    // 1000 sits inside bucket [861.1, 1024): a bucket's lower edge would
    // report 861.1, below the recorded min.
    for (int i = 0; i < 100; ++i) h.observe(1000.0);
    const obs::HistogramStats s = h.stats();
    EXPECT_EQ(s.p50, 1000.0);
    EXPECT_EQ(s.p95, 1000.0);
    EXPECT_EQ(s.p99, 1000.0);
}

TEST(ObsSnapshot, SafeWhileWritersAreLive) {
    obs::Counter& c = obs::counter("test.obs.snapshot_race");
    obs::Histogram& h = obs::histogram("test.obs.snapshot_race_ns");
    const long long before = c.value();
    std::atomic<bool> stop{false};
    std::vector<std::thread> writers;
    for (int t = 0; t < 4; ++t)
        writers.emplace_back([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                c.add();
                h.observe(42.0);
            }
        });
    long long last_seen = before;
    for (int i = 0; i < 200; ++i) {
        const obs::Snapshot snap = obs::snapshot();
        for (const auto& entry : snap.counters) {
            if (entry.name != "test.obs.snapshot_race") continue;
            // Counts observed under concurrent increments only grow.
            EXPECT_GE(entry.value, last_seen);
            last_seen = entry.value;
        }
        // Histogram invariant must hold on every concurrent snapshot.
        for (const auto& entry : snap.histograms) {
            if (entry.name == "test.obs.snapshot_race_ns") {
                EXPECT_GE(entry.stats.max, entry.stats.min);
            }
        }
        EXPECT_FALSE(snap.to_json().empty());
    }
    stop.store(true);
    for (std::thread& w : writers) w.join();
    EXPECT_GE(c.value(), last_seen);
}

TEST(ObsSnapshot, JsonContainsRegisteredMetrics) {
    obs::counter("test.obs.json_counter").add(3);
    obs::gauge("test.obs.json_gauge").set(-2);
    obs::histogram("test.obs.json_hist").observe(5.0);
    const std::string json = obs::snapshot().to_json();
    EXPECT_NE(json.find("\"test.obs.json_counter\""), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_gauge\""), std::string::npos);
    EXPECT_NE(json.find("\"test.obs.json_hist\""), std::string::npos);
    const std::string human = obs::snapshot().format_human();
    EXPECT_NE(human.find("test.obs.json_counter"), std::string::npos);
}

TEST(ObsScopedLatency, ObservesOnDestruction) {
    obs::Histogram& h = obs::histogram("test.obs.scoped_ns");
    h.reset();
    { const obs::ScopedLatency timer(h); }
    EXPECT_EQ(h.stats().count, 1);
    EXPECT_GE(h.stats().min, 0.0);
}

TEST(ObsTrace, WritesValidChromeJsonAndWrapsRing) {
    const std::string path = "test_obs_trace.json";
    obs::TraceOptions topt;
    topt.path = path;
    topt.ring_events = 16;  // minimum ring: 100 spans must wrap, not grow
    obs::start_trace(topt);
    ASSERT_TRUE(obs::trace_active());
    for (int i = 0; i < 100; ++i) {
        const obs::Span span("test.span", "labelled");
    }
    ASSERT_TRUE(obs::stop_trace());
    EXPECT_FALSE(obs::trace_active());

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(json.find("\"name\":\"test.span\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\":\"labelled\""), std::string::npos);
    EXPECT_NE(json.find("]}"), std::string::npos);
    // Ring capacity bounds the retained events from this thread.
    std::size_t events = 0;
    for (std::size_t pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
         pos = json.find("\"ph\":\"X\"", pos + 1))
        ++events;
    EXPECT_LE(events, topt.ring_events);
    EXPECT_GE(events, 1u);
    std::remove(path.c_str());
}

TEST(ObsTrace, InactiveSpansEmitNothing) {
    ASSERT_FALSE(obs::trace_active());
    // Spans outside start/stop must be dropped, not queued for the next
    // trace: a later capture of zero spans stays empty.
    { const obs::Span span("test.stale"); }
    const std::string path = "test_obs_trace_empty.json";
    obs::TraceOptions topt;
    topt.path = path;
    obs::start_trace(topt);
    ASSERT_TRUE(obs::stop_trace());
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str().find("test.stale"), std::string::npos);
    std::remove(path.c_str());
}

// The no-perturbation guarantee: instrumentation must never change solver
// results. Run the same golden transient with metrics+tracing enabled and
// disabled and require bitwise-identical waveforms.
TEST(ObsDeterminism, ResultsBitwiseIdenticalOnAndOff) {
    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, tech.vdd);
    spice::TranOptions topt;
    topt.tstop = 2.5e-9;
    topt.dt = 2e-12;

    const auto run_once = [&](bool obs_on) {
        obs::set_enabled(obs_on);
        engine::GoldenCell cell(lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                                engine::LoadSpec{5e-15, 0, ""});
        const spice::TranResult res = cell.run(topt);
        return res.node_waveform(cell.out_node());
    };
    const wave::Waveform on = run_once(true);
    const wave::Waveform off = run_once(false);
    obs::set_enabled(true);

    for (double t = 0.0; t <= topt.tstop; t += 5e-12) {
        // Bitwise: exact FP equality, no tolerance.
        ASSERT_EQ(on.at(t), off.at(t)) << "t=" << t;
    }
}

// Satellite 1: TranStats is the single source for both the result struct
// and the solver.tran.* counters -- the deltas must match exactly.
TEST(ObsTranStats, CountersMatchResultStats) {
    obs::Counter& solves = obs::counter("solver.tran.solves");
    obs::Counter& iters = obs::counter("solver.tran.newton_iters");
    obs::Counter& accepted = obs::counter("solver.tran.steps_accepted");
    const long long solves0 = solves.value();
    const long long iters0 = iters.value();
    const long long accepted0 = accepted.value();

    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);
    const engine::HistoryStimulus stim =
        engine::nor2_history(engine::HistoryCase::kFast10, tech.vdd);
    spice::TranOptions topt;
    topt.tstop = 2.5e-9;
    topt.dt = 2e-12;
    engine::GoldenCell cell(lib, "NOR2", {{"A", stim.a}, {"B", stim.b}},
                            engine::LoadSpec{5e-15, 0, ""});
    const spice::TranResult res = cell.run(topt);

    EXPECT_EQ(solves.value() - solves0, 1);
    EXPECT_EQ(iters.value() - iters0, res.stats().newton_iters);
    EXPECT_EQ(accepted.value() - accepted0, res.stats().steps_accepted);
}

// DcResult::iterations counts every Newton iteration that ran -- a failed
// cold probe's included -- and each one assembles and factors once through
// the workspace, so these counters move by exactly that much.
TEST(ObsDcStats, CountersMatchResultIterations) {
    obs::Counter& assembles = obs::counter("solver.ws.assembles");
    obs::Counter& factors = obs::counter("solver.ws.factors");
    obs::Counter& iters = obs::counter("solver.dc.newton_iters");
    const tech::Technology t = tech::make_tech130();
    spice::Circuit c;
    const int vdd = c.node("vdd");
    const int in = c.node("in");
    const int out = c.node("out");
    c.add_vsource("VDD", vdd, spice::Circuit::kGround,
                  spice::SourceSpec::dc(t.vdd));
    c.add_vsource("VIN", in, spice::Circuit::kGround,
                  spice::SourceSpec::dc(0.6));
    c.add_mosfet("MN", out, in, spice::Circuit::kGround,
                 spice::Circuit::kGround, t.nmos, t.wn_unit, t.lmin);
    c.add_mosfet("MP", out, in, vdd, vdd, t.pmos, t.wp_unit, t.lmin);

    // A direct solve, then one whose one-iteration cold probe fails and
    // hands over to gmin stepping.
    for (const int probe : {0, 1}) {
        spice::DcOptions opt;
        opt.cold_probe_iterations = probe;
        const long long assembles0 = assembles.value();
        const long long factors0 = factors.value();
        const long long iters0 = iters.value();
        const spice::DcResult r = spice::solve_dc(c, opt);
        EXPECT_GT(r.iterations, 1) << "probe " << probe;
        EXPECT_EQ(assembles.value() - assembles0, r.iterations)
            << "probe " << probe;
        EXPECT_EQ(factors.value() - factors0, r.iterations)
            << "probe " << probe;
        EXPECT_EQ(iters.value() - iters0, r.iterations) << "probe " << probe;
    }
}

}  // namespace
