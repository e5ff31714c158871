// Serving-layer benchmark and correctness gates: the single-entry model
// pack (size, cold-load latency, bit-exact round trip), TimingService
// batch throughput (LUT fast path, exact transient path,
// serial-vs-parallel determinism), the 3-pin MIS arc path (6-D
// characterize-on-miss + surface build + warm throughput), the RC pi-load
// path (throughput + a loose LUT-vs-exact sanity gate; the tight 5% gate
// lives in test_serve_golden) and the socket front end (4 concurrent
// pipelined clients through net::NetServer; gated at >= 50% of the
// in-process warm LUT rate -- the median ratio of three interleaved
// in-process/socket pairs, each side timed over a fixed >= 150 ms window
// -- with a bitwise-identity check against the same batch run in process).
// Results are written as machine-readable BENCH_serve.json ({"threads",
// "model_store": {...}, "timing_service": {...}, "mis3": {...},
// "pi_load": {...}, "net": {...}}) for CI trend tracking, next to
// BENCH_perf.json; set MCSM_BENCH_JSON to change the path, or =0 to skip
// the file.
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/parallel.h"
#include "core/characterizer.h"
#include "net/client.h"
#include "net/query_text.h"
#include "net/server.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"

using namespace mcsm;
namespace fs = std::filesystem;

namespace {

double wall_ms(const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// Repeats `pass` until a fixed >= 150 ms window is filled and returns the
// mean ms per pass: long enough to span many scheduler time slices, so an
// A/B ratio of two such samples is not decided by one of them.
double window_ms_per_pass(const std::function<void()>& pass) {
    constexpr double kWindowMs = 150.0;
    int passes = 0;
    double elapsed = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    while (elapsed < kWindowMs) {
        pass();
        ++passes;
        elapsed = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    }
    return elapsed / passes;
}

double best_of(int reps, const std::function<void()>& fn) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) best = std::min(best, wall_ms(fn));
    return best;
}

// Off-grid query mix over both arcs of the NOR2 surface family plus the
// INV_X1 SIS arc; i indexes a deterministic pattern.
serve::TimingQuery mixed_query(std::size_t i) {
    serve::TimingQuery q;
    if (i % 4 == 0) {
        q.cell = "INV_X1";
        q.pins = {"A"};
        q.slews = {(25 + 11.0 * (i % 31)) * 1e-12};
    } else {
        q.cell = "NOR2";
        q.pins = {"A", "B"};
        q.slews = {(30 + 7.0 * (i % 37)) * 1e-12,
                   (40 + 9.0 * (i % 29)) * 1e-12};
        q.skews = {0.0, (static_cast<double>(i % 41) - 20.0) * 9e-12};
    }
    q.inputs_rise = (i % 2) == 1;
    q.load_cap = (1.5 + 0.8 * static_cast<double>(i % 23)) * 1e-15;
    return q;
}

}  // namespace

int main() {
    bench::Checker check;
    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);
    const core::Characterizer chr(lib);

    core::CharOptions copt;
    copt.transient_caps = false;
    copt.grid_points = 7;
    const core::CsmModel inv =
        chr.characterize("INV_X1", core::ModelKind::kSis, {"A"}, copt);
    const core::CsmModel nor =
        chr.characterize("NOR2", core::ModelKind::kMcsm, {"A", "B"}, copt);

    const fs::path dir = "serve_store_bench";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string pack_path = (dir / "nor.mcsmpack").string();
    const std::string nor_key =
        serve::ModelKey::arc("NOR2", {"A", "B"}).to_string();

    // --- model store: size, cold load, fidelity --------------------------
    {
        serve::PackWriter writer;
        writer.add_model(nor_key, nor);
        writer.write(pack_path);
    }
    const auto pack_bytes = fs::file_size(pack_path);
    const auto load_pack = [&] {
        return serve::MappedPack::map(pack_path)->materialize_model(nor_key);
    };

    const double load_pack_ms = best_of(3, [&] { (void)load_pack(); });

    check.check(serve::encode_model(load_pack()) == serve::encode_model(nor),
                "pack store round trip is bit-exact");
    // The cold-load latency is reported (below and in the JSON) but not
    // gated: sub-ms wall clocks are noise-dominated on shared CI runners.

    // --- timing service: surface build + warm batch throughput -----------
    serve::RepositoryOptions ropt;
    // The 3-pin section characterizes its 6-D model on miss; keep that and
    // the 1/2-pin fallbacks bench-fast.
    ropt.char_options = copt;
    ropt.char_options_mis3.grid_points = 4;
    ropt.char_options_mis3.cin_points = 5;
    serve::ModelRepository repo(&lib, ropt);
    repo.put(serve::ModelKey::arc("INV_X1", {"A"}), inv);
    repo.put(serve::ModelKey::arc("NOR2", {"A", "B"}), nor);

    serve::ServeOptions sopt;  // stock 1/2-pin surface grid
    // Bench-grade 3-pin knots: the stock 3-pin grid costs ~2k transients,
    // which is offline-build territory, not bench territory.
    sopt.slew_knots_mis3 = {60e-12, 250e-12};
    sopt.skew_knots_mis3 = {-1.0, 0.0, 1.0};
    sopt.skew_pair_knots_mis3 = {-1.0, 0.0, 1.0};
    sopt.load_knots_mis3 = {2e-15, 16e-15};
    serve::TimingService service(repo, sopt);

    // First batch touches all four arcs: its wall clock is the cold
    // surface-build cost (320 CSM transients per two-pin arc by default).
    std::vector<serve::TimingQuery> warmup;
    for (std::size_t i = 0; i < 8; ++i) warmup.push_back(mixed_query(i));
    const double surface_build_ms =
        wall_ms([&] { (void)service.run_batch(warmup); });

    const std::size_t batch_n = 20000;
    std::vector<serve::TimingQuery> batch;
    batch.reserve(batch_n);
    for (std::size_t i = 0; i < batch_n; ++i)
        batch.push_back(mixed_query(i));

    std::vector<serve::TimingResult> results;
    const double warm_ms = wall_ms([&] { results = service.run_batch(batch); });
    std::size_t valid = 0;
    for (const auto& r : results) valid += r.valid ? 1 : 0;
    check.check(valid == batch_n, "every warm LUT query succeeded");
    const double warm_qps = 1e3 * static_cast<double>(batch_n) / warm_ms;

    serve::ServeOptions serial_opt = sopt;
    serial_opt.threads = 1;
    serve::TimingService serial(repo, serial_opt);
    (void)serial.run_batch(warmup);
    const double serial_ms =
        wall_ms([&] { (void)serial.run_batch(batch); });
    const double serial_qps = 1e3 * static_cast<double>(batch_n) / serial_ms;

    // Determinism gate: parallel and serial services agree bitwise.
    {
        std::vector<serve::TimingQuery> probe;
        for (std::size_t i = 0; i < 256; ++i) probe.push_back(mixed_query(i));
        const auto a = service.run_batch(probe);
        const auto b = serial.run_batch(probe);
        bool same = true;
        for (std::size_t i = 0; i < probe.size(); ++i)
            same = same && a[i].delay == b[i].delay && a[i].slew == b[i].slew;
        check.check(same, "batch results identical across thread counts");
    }

    const std::size_t exact_n = 64;
    std::vector<serve::TimingQuery> exact_batch;
    for (std::size_t i = 0; i < exact_n; ++i) {
        serve::TimingQuery q = mixed_query(i);
        q.exact = true;
        exact_batch.push_back(q);
    }
    std::vector<serve::TimingResult> exact_results;
    const double exact_ms =
        wall_ms([&] { exact_results = service.run_batch(exact_batch); });
    const double exact_qps = 1e3 * static_cast<double>(exact_n) / exact_ms;
    std::size_t exact_valid = 0;
    for (const auto& r : exact_results) exact_valid += r.valid ? 1 : 0;
    check.check(exact_valid == exact_n, "every exact query succeeded");

    // --- 3-pin MIS arcs: characterize-on-miss + surface build + warm LUT --
    const auto mis3_query = [](std::size_t i) {
        serve::TimingQuery q;
        q.cell = "NAND3";
        q.pins = {"A", "B", "C"};
        q.inputs_rise = true;
        q.slews = {(70 + 9.0 * (i % 19)) * 1e-12,
                   (80 + 11.0 * (i % 13)) * 1e-12,
                   (90 + 13.0 * (i % 11)) * 1e-12};
        q.skews = {0.0, (static_cast<double>(i % 15) - 7.0) * 12e-12,
                   (static_cast<double>(i % 9) - 4.0) * 16e-12};
        q.load_cap = (3 + (i % 6) * 2) * 1e-15;
        return q;
    };
    const double mis3_cold_ms = wall_ms([&] {
        const auto r = service.run_one(mis3_query(0));
        check.check(r.valid, "cold 3-pin query succeeded");
    });
    const std::size_t mis3_n = 4000;
    std::vector<serve::TimingQuery> mis3_batch;
    for (std::size_t i = 0; i < mis3_n; ++i)
        mis3_batch.push_back(mis3_query(i));
    std::vector<serve::TimingResult> mis3_results;
    const double mis3_ms =
        wall_ms([&] { mis3_results = service.run_batch(mis3_batch); });
    std::size_t mis3_valid = 0;
    for (const auto& r : mis3_results) mis3_valid += r.valid ? 1 : 0;
    check.check(mis3_valid == mis3_n, "every warm 3-pin LUT query succeeded");
    const double mis3_qps = 1e3 * static_cast<double>(mis3_n) / mis3_ms;

    // --- RC pi loads: warm throughput + loose LUT-vs-exact sanity gate ----
    const auto pi_query = [&](std::size_t i) {
        serve::TimingQuery q = mixed_query(i);
        q.load_cap = (1 + (i % 3)) * 1e-15;
        q.c_near = (1 + (i % 4)) * 1e-15;
        q.r_wire = 300.0 + 90.0 * static_cast<double>(i % 11);
        q.c_far = (2 + (i % 7)) * 1e-15;
        return q;
    };
    const std::size_t pi_n = 10000;
    std::vector<serve::TimingQuery> pi_batch;
    for (std::size_t i = 0; i < pi_n; ++i) pi_batch.push_back(pi_query(i));
    std::vector<serve::TimingResult> pi_results;
    const double pi_ms =
        wall_ms([&] { pi_results = service.run_batch(pi_batch); });
    std::size_t pi_valid = 0;
    for (const auto& r : pi_results) pi_valid += r.valid ? 1 : 0;
    check.check(pi_valid == pi_n, "every warm pi-load LUT query succeeded");
    const double pi_qps = 1e3 * static_cast<double>(pi_n) / pi_ms;

    double pi_max_delay_err = 0.0;
    double pi_max_slew_err = 0.0;
    {
        // Accuracy probe inside the served domain (slew ratios <= ~2,
        // normalized skews within the knot hull): it gates the
        // effective-capacitance machinery, not stock-grid extrapolation
        // at extreme coordinates.
        const auto pi_probe_query = [](std::size_t i) {
            serve::TimingQuery q;
            if (i % 3 == 0) {
                q.cell = "INV_X1";
                q.pins = {"A"};
                q.slews = {(50 + 15.0 * (i % 11)) * 1e-12};
            } else {
                q.cell = "NOR2";
                q.pins = {"A", "B"};
                const double slew_a = (60 + 12.0 * (i % 9)) * 1e-12;
                const double slew_b = slew_a * (0.7 + 0.1 * (i % 8));
                const double u = (static_cast<double>(i % 13) - 6.0) / 4.0;
                const double delta = u * 0.5 * (slew_a + slew_b);
                q.slews = {slew_a, slew_b};
                q.skews = {0.0, delta - 0.5 * (slew_b - slew_a)};
            }
            q.inputs_rise = (i % 2) == 1;
            q.load_cap = (1 + (i % 3)) * 1e-15;
            q.c_near = (1 + (i % 4)) * 1e-15;
            q.r_wire = 300.0 + 90.0 * static_cast<double>(i % 11);
            q.c_far = (2 + (i % 7)) * 1e-15;
            return q;
        };
        std::vector<serve::TimingQuery> probe;
        std::vector<serve::TimingQuery> probe_exact;
        for (std::size_t i = 0; i < 24; ++i) {
            probe.push_back(pi_probe_query(i));
            probe_exact.push_back(probe.back());
            probe_exact.back().exact = true;
        }
        const auto lut = service.run_batch(probe);
        const auto ref = service.run_batch(probe_exact);
        // Errors are measured against max(20%, 8 ps) -- like the golden
        // gate's tolerance shape, an absolute floor keeps near-zero MIS
        // delays (output fired by the earlier edge) from exploding a
        // relative metric.
        const auto err_of = [](double got, double want) {
            return std::abs(got - want) /
                   std::max(8e-12, 0.2 * std::abs(want));
        };
        std::size_t compared = 0;
        for (std::size_t i = 0; i < probe.size(); ++i) {
            if (!lut[i].valid || !ref[i].valid) continue;
            ++compared;
            pi_max_delay_err =
                std::max(pi_max_delay_err, err_of(lut[i].delay, ref[i].delay));
            pi_max_slew_err =
                std::max(pi_max_slew_err, err_of(lut[i].slew, ref[i].slew));
        }
        // Guard against a vacuous pass: failed probes must fail the gate,
        // not silently shrink the comparison set to nothing.
        check.check(compared == probe.size(),
                    "every pi-load accuracy probe evaluated on both paths");
        // Loose sanity bound -- the tight randomized 5% gate lives in
        // test_serve_golden; this guards against the effective-capacitance
        // path regressing wholesale.
        check.check(pi_max_delay_err < 1.0 && pi_max_slew_err < 1.0,
                    "pi-load LUT path stays within max(20%, 8 ps) of the "
                    "exact path");
    }

    // --- socket front end: 4 concurrent pipelined clients -----------------
    const std::size_t net_clients = 4;
    const std::size_t net_per_client = 5000;
    const std::size_t net_total = net_clients * net_per_client;
    double net_qps = 0.0;
    double net_ref_qps = 0.0;
    {
        net::NetServerOptions nopt;
        nopt.unix_path = (dir / "bench_net.sock").string();
        nopt.batch_max = 4096;
        nopt.linger_us = 200;
        net::NetServer server(service, nopt);
        std::thread server_thread([&] { server.run(); });

        // Requests render outside the timed window, and the timed client
        // loop is send-everything then drain-to-EOF: the measurement is
        // the serving stack (line split, parse, batch, eval, format,
        // socket I/O), not client-side formatting.
        std::vector<std::string> request(net_clients);
        std::vector<serve::TimingQuery> net_ref;
        net_ref.reserve(net_total);
        bool net_lines_parse = true;
        for (std::size_t c = 0; c < net_clients; ++c) {
            for (std::size_t i = 0; i < net_per_client; ++i) {
                const std::string line = net::format_query_line(
                    mixed_query(c * net_per_client + i));
                request[c] += line;
                request[c] += '\n';
                serve::TimingQuery q;
                net_lines_parse =
                    net_lines_parse && net::parse_query_line(line, q);
                net_ref.push_back(q);
            }
        }
        check.check(net_lines_parse, "every rendered query line parses");
        // In-process reference over the SAME parsed queries: what the
        // socket responses must match bitwise. Its wall clock, taken
        // back-to-back with a socket run, is the fair throughput baseline
        // (warm_qps was measured minutes earlier in this process; clock
        // throttling between sections would skew a cross-section ratio
        // both ways). Each side of a pair repeats its pass over a fixed
        // >= 150 ms window (one pass is ~20-40 ms), and three interleaved
        // reference/socket pairs, gated on the median per-pair ratio, keep
        // one descheduled run (parallel ctest, a noisy neighbour) from
        // deciding the gate. The bitwise check reads the last socket pass.
        std::vector<serve::TimingResult> ref_results;
        std::vector<std::string> received(net_clients);
        struct Pair {
            double ref_ms;
            double net_ms;
        };
        std::vector<Pair> pairs;
        for (int pair = 0; pair < 3; ++pair) {
            const double ref_ms = window_ms_per_pass(
                [&] { ref_results = service.run_batch(net_ref); });
            const double net_ms = window_ms_per_pass([&] {
                for (std::string& sink : received) sink.clear();
                std::vector<std::thread> clients;
                for (std::size_t c = 0; c < net_clients; ++c) {
                    clients.emplace_back([&, c] {
                        net::LineClient cli =
                            net::LineClient::connect_unix(nopt.unix_path);
                        cli.send_text(request[c]);
                        cli.shutdown_write();
                        std::string& sink = received[c];
                        char buf[1 << 16];
                        for (;;) {
                            const ssize_t n =
                                ::recv(cli.fd(), buf, sizeof buf, 0);
                            if (n <= 0) break;
                            sink.append(buf, static_cast<std::size_t>(n));
                        }
                    });
                }
                for (auto& t : clients) t.join();
            });
            pairs.push_back({ref_ms, net_ms});
        }
        server.stop();
        server_thread.join();
        // Socket share of the in-process rate per pair; the reported rates
        // come from the median pair.
        std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
            return a.ref_ms / a.net_ms < b.ref_ms / b.net_ms;
        });
        const Pair& mid = pairs[pairs.size() / 2];
        const double net_ratio = mid.ref_ms / mid.net_ms;
        net_qps = 1e3 * static_cast<double>(net_total) / mid.net_ms;
        net_ref_qps = 1e3 * static_cast<double>(net_total) / mid.ref_ms;

        // Bitwise identity + per-connection ordering: response i on each
        // connection carries id i and the exact doubles run_batch produced.
        std::size_t matched = 0;
        for (std::size_t c = 0; c < net_clients; ++c) {
            std::size_t pos = 0;
            std::size_t idx = 0;
            while (pos < received[c].size() && idx < net_per_client) {
                const std::size_t nl = received[c].find('\n', pos);
                if (nl == std::string::npos) break;
                std::uint64_t id = 0;
                const serve::TimingResult got = net::parse_result_line(
                    received[c].substr(pos, nl - pos), id);
                const serve::TimingResult& want =
                    ref_results[c * net_per_client + idx];
                // Response ids are 1-based per connection (0 is reserved
                // for connection-level errors).
                if (id == idx + 1 && got.valid && want.valid &&
                    got.delay == want.delay && got.slew == want.slew &&
                    got.path == want.path)
                    ++matched;
                ++idx;
                pos = nl + 1;
            }
        }
        check.check(matched == net_total,
                    "socket responses are bitwise-identical to the "
                    "in-process batch (" + std::to_string(matched) + "/" +
                        std::to_string(net_total) + ")");
        std::string ratios;
        for (const Pair& p : pairs) {
            if (!ratios.empty()) ratios += '/';
            ratios += std::to_string(p.ref_ms / p.net_ms);
        }
        check.check(net_ratio >= 0.5,
                    "socket front end holds >= 50% of in-process warm LUT "
                    "throughput with 4 concurrent clients (median of the "
                    "pair ratios " + ratios + ")");
    }

    // Measurements done; drop the scratch store before any early return in
    // the reporting below can leak it.
    fs::remove_all(dir);

    // --- report ----------------------------------------------------------
    std::printf("# store: single-entry pack %zu B, cold load %.3f ms\n",
                static_cast<std::size_t>(pack_bytes), load_pack_ms);
    std::printf("# serve: surfaces built in %.1f ms; warm LUT batch %zu "
                "queries -> %.0f q/s (%zu threads), %.0f q/s serial; exact "
                "transient path %.0f q/s\n",
                surface_build_ms, batch_n, warm_qps, hardware_threads(),
                serial_qps, exact_qps);
    std::printf("# serve/mis3: cold 3-pin query (6-D characterize + "
                "surface) %.0f ms; warm 3-pin LUT %.0f q/s\n",
                mis3_cold_ms, mis3_qps);
    std::printf("# serve/pi: warm pi-load LUT %.0f q/s; LUT vs exact max "
                "err delay %.0f%%, slew %.0f%% of the max(20%%, 8 ps) "
                "bound (24-query probe)\n",
                pi_qps, 100.0 * pi_max_delay_err, 100.0 * pi_max_slew_err);
    std::printf("# serve/net: %zu pipelined clients x %zu queries over a "
                "unix socket -> %.0f q/s (%.0f%% of in-process warm LUT)\n",
                net_clients, net_per_client, net_qps,
                100.0 * net_qps / net_ref_qps);

    const char* path_env = std::getenv("MCSM_BENCH_JSON");
    const std::string json_path =
        path_env == nullptr ? "BENCH_serve.json" : path_env;
    if (json_path != "0") {
        std::FILE* f = std::fopen(json_path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench_serve: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"threads\": %zu,\n", hardware_threads());
        std::fprintf(f,
                     "  \"model_store\": {\"pack_bytes\": %zu, "
                     "\"cold_load_pack_ms\": %.4f},\n",
                     static_cast<std::size_t>(pack_bytes), load_pack_ms);
        std::fprintf(
            f,
            "  \"timing_service\": {\"surface_build_ms\": %.2f, "
            "\"warm_batch_size\": %zu, \"warm_lut_qps\": %.0f, "
            "\"warm_lut_qps_serial\": %.0f, \"exact_qps\": %.0f},\n",
            surface_build_ms, batch_n, warm_qps, serial_qps, exact_qps);
        std::fprintf(f,
                     "  \"mis3\": {\"cold_first_query_ms\": %.1f, "
                     "\"warm_lut_qps\": %.0f},\n",
                     mis3_cold_ms, mis3_qps);
        std::fprintf(f,
                     "  \"pi_load\": {\"warm_lut_qps\": %.0f, "
                     "\"max_delay_err_of_bound\": %.4f, "
                     "\"max_slew_err_of_bound\": %.4f},\n",
                     pi_qps, pi_max_delay_err, pi_max_slew_err);
        std::fprintf(f,
                     "  \"net\": {\"clients\": %zu, \"queries\": %zu, "
                     "\"net_qps\": %.0f, \"in_process_qps\": %.0f, "
                     "\"ratio\": %.3f}\n}\n",
                     net_clients, net_total, net_qps, net_ref_qps,
                     net_qps / net_ref_qps);
        std::fclose(f);
        std::printf("# wrote %s\n", json_path.c_str());
    }

    return check.exit_code();
}
