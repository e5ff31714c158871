// Serve-tier benchmark program.
//
//   servebench --workload <lut_warm|exact_tran|cold_mixed> --seed <n>
//              --seconds <s> --trace <0|1> [--commit <id>] [--work-dir <d>]
//
// Hosts a net::NetServer over a serve::TimingService (the recorded option
// set in rig.h), prepares the served store, checks the served answers, then
// drives the workload over a unix socket from one client thread. --trace 0
// reports the end-to-end metrics with obs updates switched off; --trace 1
// reports the per-layer metrics (obs on, plus the layer probes in
// layers.cpp). The last stdout line is the result object
// {"correct", "attempted", "failed", "metrics"}; every metric is also
// printed above it by name with its unit. See README.md in this directory.
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/scenarios.h"
#include "layers.h"
#include "loadgen.h"
#include "net/query_text.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "rig.h"
#include "stats.h"
#include "wave/edges.h"

using namespace servebench;
using mcsm::serve::TimingQuery;
using mcsm::serve::TimingResult;

namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string commit = "unknown";
    std::string work_dir = ".bench_build/work";
};

bool parse_args(int argc, char** argv, Args& a) {
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const std::string v = argv[i + 1];
        if (k == "--workload") a.workload = v;
        else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds") a.seconds = std::atof(v.c_str());
        else if (k == "--trace") a.trace = std::atoi(v.c_str());
        else if (k == "--commit") a.commit = v;
        else if (k == "--work-dir") a.work_dir = v;
        else return false;
    }
    return argc % 2 == 1 &&
           (a.workload == "lut_warm" || a.workload == "exact_tran" ||
            a.workload == "cold_mixed") &&
           a.seconds > 0.0 && (a.trace == 0 || a.trace == 1);
}

std::size_t nproc() {
    const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<std::size_t>(n) : 1;
}

// Name of the SIMD kernel the solver dispatches for MOSFET batches, read
// off a prepared transistor-level circuit's workspace.
std::string simd_kernel(const mcsm::cells::CellLibrary& lib) {
    std::unordered_map<std::string, mcsm::wave::Waveform> in;
    in["A"] = mcsm::wave::saturated_ramp(1e-10, 1e-10, 0.0, 1.2);
    mcsm::engine::GoldenCell cell(lib, "INV_X1", in, {});
    cell.circuit().prepare();
    return cell.circuit().workspace().simd_kernel_name();
}

// The warm (or exact) lines of a workload, their parsed form, the
// in-process answers to exactly those parsed queries, and cold lines.
struct Workload {
    std::vector<Line> lines;
    std::vector<TimingQuery> parsed;
    std::vector<TimingResult> answers;
    std::vector<Line> cold;
    std::size_t invalid_reference = 0;
};

Workload make_workload(const std::string& name, std::uint64_t seed,
                       QueryGen& gen, mcsm::serve::TimingService& service) {
    Workload w;
    const bool exact = name == "exact_tran";
    // Whole periods of the warm mix (14 arcs x 5 load rounds), in a seeded
    // order: every seed serves the same composition, and no arc pattern
    // repeats in step across the connections.
    const std::size_t n = (exact ? 16 : 120) * 70;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), std::mt19937_64(seed));
    for (std::size_t i : order) {
        TimingQuery q = gen.warm(i);
        q.exact = exact;
        Line line;
        line.text = mcsm::net::format_query_line(q);
        TimingQuery parsed;
        if (!mcsm::net::parse_query_line(line.text, parsed))
            throw std::runtime_error("rendered line does not parse: " +
                                     line.text);
        w.lines.push_back(std::move(line));
        w.parsed.push_back(std::move(parsed));
    }
    w.answers = service.run_batch(w.parsed);
    for (std::size_t i = 0; i < n; ++i) {
        // "ok 0 <delay> <slew> <path>" -> " <delay> <slew> <path>": what the
        // socket answer must read after its own id.
        const std::string full = mcsm::net::format_result_line(0, w.answers[i]);
        w.lines[i].expect = full.substr(full.find(' ', 3));
        if (!w.answers[i].valid) ++w.invalid_reference;
    }
    for (std::size_t k = 0; k < 800; ++k)
        w.cold.push_back({mcsm::net::format_query_line(gen.cold(k)), ""});
    return w;
}

// LUT answers at surface knots against the exact transient path, gated at
// max(5 %, 2 ps) per delay and slew. Returns the worst error / tolerance.
double accuracy_probe(QueryGen& gen, mcsm::serve::TimingService& service,
                      std::size_t& failures) {
    std::vector<TimingQuery> lut;
    for (int i = 0; i < 96; ++i) lut.push_back(gen.probe());
    std::vector<TimingQuery> exact = lut;
    for (TimingQuery& q : exact) q.exact = true;
    const std::vector<TimingResult> a = service.run_batch(lut);
    const std::vector<TimingResult> b = service.run_batch(exact);
    double worst = 0.0;
    failures = 0;
    for (std::size_t i = 0; i < lut.size(); ++i) {
        if (!a[i].valid || !b[i].valid) {
            ++failures;
            continue;
        }
        const auto err = [](double got, double want) {
            return std::fabs(got - want) /
                   std::max(0.05 * std::fabs(want), 2e-12);
        };
        const double e =
            std::max(err(a[i].delay, b[i].delay), err(a[i].slew, b[i].slew));
        worst = std::max(worst, e);
        if (e > 1.0) ++failures;
    }
    return worst;
}

class ServerHost {
public:
    ServerHost(mcsm::serve::TimingService& service, const std::string& path)
        : server_(service, server_options(path)),
          thread_([this] { server_.run(); }) {}
    ~ServerHost() {
        server_.stop();
        thread_.join();
    }
    ServerHost(const ServerHost&) = delete;
    ServerHost& operator=(const ServerHost&) = delete;

private:
    mcsm::net::NetServer server_;
    std::thread thread_;
};

// An untraced closed-loop run cuts its window into kSegments segments and,
// between them, sends kSerialCold cold queries one by one with nothing else
// in flight: the unloaded cold answers its cold_* metrics report. Spreading
// them over the whole run keeps a few slow seconds on a shared machine from
// moving all of them; 40 in all puts the tail (the 11th-largest) near p75.
constexpr int kSegments = 4;
constexpr std::size_t kSerialCold = 10;

// One pass of the workload's traffic. `cold_used` advances past the cold
// lines this pass consumed, so later passes never repeat a corner.
StreamResult drive(const std::string& name, const Workload& w,
                   const std::string& socket, double seconds,
                   std::size_t& cold_used) {
    const std::size_t conns = std::min<std::size_t>(4, nproc());
    if (name == "cold_mixed") {
        OpenLoopSpec spec;
        spec.warm_conns = std::max<std::size_t>(1, conns - 1);
        spec.seconds = seconds;
        const std::vector<Line> cold(w.cold.begin() + cold_used, w.cold.end());
        StreamResult r = run_open_loop(socket, w.lines, cold, spec);
        cold_used += r.cold_sent;
        return r;
    }
    ClosedLoopSpec spec;
    spec.conns = conns;
    spec.window = name == "exact_tran" ? 8 : 32;
    spec.seconds = seconds;
    return run_closed_loop(socket, w.lines, spec);
}

// Throughput of a pass: answers received inside its window per second.
double pass_qps(const StreamResult& r) {
    return static_cast<double>(r.answered_in_window) / r.window_s;
}

double rss_mb() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: servebench --workload "
                     "<lut_warm|exact_tran|cold_mixed> --seed <n> --seconds "
                     "<s> --trace <0|1> [--commit <id>] [--work-dir <dir>]\n");
        return 2;
    }
#ifndef NDEBUG
    const bool release = false;
#else
    const bool release = std::string(SERVEBENCH_BUILD_TYPE) == "Release";
#endif
    if (!release) {
        std::fprintf(stderr,
                     "servebench: refusing to report numbers from a %s build "
                     "(configure with -DCMAKE_BUILD_TYPE=Release)\n",
                     SERVEBENCH_BUILD_TYPE);
        return 2;
    }
    // Pin the shared pool before anything starts it.
    const std::size_t pool = std::min(kPoolThreads, nproc());
    ::setenv("MCSM_THREADS", std::to_string(pool).c_str(), 1);
    mcsm::obs::set_enabled(args.trace == 1);

    try {
        const std::string work =
            args.work_dir + "/" + std::to_string(::getpid());
        Stack stack(work);
        std::printf(
            "fingerprint {\"nproc\": %zu, \"simd_kernel\": \"%s\", "
            "\"build_type\": \"%s\", \"obs_compiled_in\": %s, "
            "\"pool_threads\": %zu, \"seed\": %llu, \"commit\": %s, "
            "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}\n",
            nproc(), simd_kernel(stack.lib).c_str(), SERVEBENCH_BUILD_TYPE,
            mcsm::obs::compiled_in() ? "true" : "false", pool,
            static_cast<unsigned long long>(args.seed),
            json_string(args.commit).c_str(), args.workload.c_str(),
            args.seconds, args.trace);

        const int reps = args.trace == 1 ? 1 : 3;
        for (int rep = 0; rep < reps; ++rep) stack.setup(rep);
        mcsm::serve::TimingService& service = *stack.served.service;

        QueryGen gen(args.seed);
        std::size_t probe_failures = 0;
        const double probe_worst = accuracy_probe(gen, service, probe_failures);
        const Workload w = make_workload(args.workload, args.seed, gen, service);
        const std::string socket = work + "/bench.sock";

        Report report;
        std::vector<StreamResult> passes;
        std::size_t cold_used = 0;
        bool counters_match = true;
        {
            ServerHost host(service, socket);
            if (args.trace == 0 && args.workload == "cold_mixed") {
                passes.push_back(
                    drive(args.workload, w, socket, args.seconds, cold_used));
            } else if (args.trace == 0) {
                StreamResult total;
                for (int seg = 0; seg < kSegments; ++seg) {
                    absorb(total, drive(args.workload, w, socket,
                                        args.seconds / kSegments, cold_used));
                    absorb(total, run_cold_serial(socket, w.cold, cold_used,
                                                  kSerialCold));
                    cold_used += kSerialCold;
                }
                passes.push_back(std::move(total));
            } else {
                // Untraced / traced / traced / untraced quarter-length
                // passes: the ABBA order cancels a linear drift, the
                // untraced pair also gives the socket throughput.
                std::vector<double> qps_off, qps_on, cold_off, cold_on;
                double on_wall = 0.0;
                double cold_sent = 0.0, misses = 0.0, characterized = 0.0;
                double batch_sum = 0.0, batch_n = 0.0, busy_ns = 0.0;
                for (const bool on : {false, true, true, false}) {
                    mcsm::obs::set_enabled(on);
                    const ObsPoint p0 = ObsPoint::take();
                    const double t0 = now_s();
                    StreamResult r = drive(args.workload, w, socket,
                                           args.seconds / 4, cold_used);
                    const double t1 = now_s();
                    const ObsPoint p1 = ObsPoint::take();
                    (on ? qps_on : qps_off).push_back(pass_qps(r));
                    if (!r.cold_ms.empty())
                        (on ? cold_on : cold_off).push_back(median(r.cold_ms));
                    if (on) {
                        on_wall += t1 - t0;
                        cold_sent += static_cast<double>(r.cold_sent);
                        misses += p1.delta(p0, "serve.surface.miss");
                        characterized +=
                            p1.delta(p0, "serve.model.characterize");
                        const auto [n, sum] =
                            p1.hist_delta(p0, "net.batch_size");
                        batch_n += n;
                        batch_sum += sum;
                        busy_ns += p1.delta(p0, "pool.busy_ns");
                    }
                    passes.push_back(std::move(r));
                }
                mcsm::obs::set_enabled(true);
                counters_match = misses == cold_sent && characterized == cold_sent;
                const double socket_qps = median(qps_off);
                // Cold-only traffic is closed loop with a think time, so its
                // tracing cost shows as latency, not as throughput.
                const double overhead =
                    args.workload == "cold_mixed"
                        ? 1.0 - median(cold_off) / median(cold_on)
                        : 1.0 - median(qps_on) / socket_qps;
                report.add("net.batch_size_mean",
                           batch_n > 0 ? batch_sum / batch_n : 0.0, "queries");
                const double in_proc = static_cast<double>(w.parsed.size()) /
                                       seconds_per_call(
                                           [&] { service.run_batch(w.parsed); },
                                           1, 0.3, 3);
                report.add("net.in_process_qps", in_proc, "1/s");
                report.add("net.socket_share", socket_qps / in_proc, "ratio");
                report.add("pool.busy_frac",
                           busy_ns / (1e9 * on_wall * static_cast<double>(pool)),
                           "ratio");
                report.add("serve.cold_sent", cold_sent, "count");
                report.add("serve.surface.miss", misses, "count");
                report.add("serve.model.characterize", characterized, "count");
                report.add("trace.overhead_frac", overhead, "ratio");
            }
        }

        std::size_t attempted = 0, failed = 0, mismatched = 0;
        std::string problem;
        for (const StreamResult& r : passes) {
            attempted += r.attempted;
            failed += r.failed;
            mismatched += r.mismatched;
            if (problem.empty()) problem = r.first_problem;
        }
        const StreamResult& main_pass = passes.front();
        LatencyHist late_us;
        for (const StreamResult& r : passes) late_us.merge(r.late_us);

        if (args.trace == 0) {
            const std::vector<double>& cold = main_pass.cold_ms;
            const bool open = args.workload == "cold_mixed";
            // Open loop: every answer in the window, cold ones included.
            // Closed loop: the cold answers came between segments, not in
            // the measured window.
            LatencyHist all_us = main_pass.latency_us;
            if (open)
                for (double ms : cold) all_us.add(1e3 * ms);
            // Closed loop: the median over 1 s slices of each slice's
            // percentile, so a few disturbed seconds on a shared machine
            // cannot move the run's figure.
            // Windows too short to hold a whole slice use the whole record.
            const bool sliced = !main_pass.slice_p50_us.empty();
            const double warm_p50 = sliced ? median(main_pass.slice_p50_us)
                                           : main_pass.latency_us.percentile(50);
            const double warm_p99 = sliced ? median(main_pass.slice_p99_us)
                                           : main_pass.latency_us.percentile(99);
            report.add("setup_s", median(stack.setup_s), "s");
            report.add("qps", pass_qps(main_pass), "1/s");
            report.add("p50_us", open ? all_us.percentile(50) : warm_p50, "us");
            report.add("p99_us", open ? all_us.percentile(99) : warm_p99, "us");
            report.add("cold_p50_ms", median(cold), "ms");
            report.add("cold_tail_ms", tail_value(cold, 10), "ms");
            report.add("warm_p50_us", warm_p50, "us");
            report.add("warm_p99_us", warm_p99, "us");
            report.add("rss_mb", rss_mb(), "MB");
            std::printf("# %llu latency samples, %zu cold samples (%s)\n",
                        static_cast<unsigned long long>(all_us.count()),
                        cold.size(),
                        open ? "under warm load" : "sent one by one between segments");
        } else {
            probe_net(w.lines, w.answers, report);
            Attribution attr;
            probe_serve(stack, gen, report, attr);
            probe_kernels(stack, args.seed, report);
            report.add("trace.unattributed_frac.exact",
                       1.0 - attr.exact_core_ms / attr.exact_wall_ms, "ratio");
            report.add("trace.unattributed_frac.cold",
                       1.0 - attr.cold_parts_ms / attr.cold_wall_ms, "ratio");
            report.add("failed_frac",
                       attempted ? double(failed) / double(attempted) : 0.0,
                       "ratio");
        }

        if (late_us.count() > 0)
            std::printf("# open-loop generator sent late by p99 %.1f us, max "
                        "%.1f us\n",
                        late_us.percentile(99), late_us.percentile(100));
        std::printf("# checks: %zu/%zu socket answers pass (warm: bitwise "
                    "equal to in-process run_batch, cold: ok), %zu failed; %zu "
                    "invalid in-process answers; accuracy probe worst %.3f of "
                    "max(5%%, 2 ps), %zu over; cold counters %s\n",
                    attempted - failed - mismatched, attempted, failed,
                    w.invalid_reference, probe_worst, probe_failures,
                    args.trace == 1 ? (counters_match ? "match" : "MISMATCH")
                                    : "not checked (untraced)");
        const bool correct = failed == 0 && mismatched == 0 &&
                             w.invalid_reference == 0 && probe_failures == 0 &&
                             counters_match;
        if (!problem.empty()) std::printf("# first problem: %s\n", problem.c_str());
        std::printf("# %s metrics (%s):\n", args.workload.c_str(),
                    args.trace == 1 ? "per layer" : "end to end");
        report.print();
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                    "\"metrics\": %s}\n",
                    correct ? "true" : "false", attempted, failed + mismatched,
                    correct ? report.json().c_str() : "{}");
        std::fflush(stdout);
        return correct ? 0 : 1;
    } catch (const std::exception& e) {
        std::fflush(stdout);
        std::fprintf(stderr, "servebench: %s\n", e.what());
        return 1;
    }
}
