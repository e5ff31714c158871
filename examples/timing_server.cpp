// Thin CLI server loop over the serving stack: reads timing-query batches
// from a file or stdin and streams results as CSV, demonstrating
// end-to-end throughput of ModelRepository + TimingService across the full
// scenario space (1/2/3-pin MIS arcs, linear and RC pi loads, Vdd/temp
// corners). Run with --help for the query grammar.
#include <csignal>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cells/library.h"
#include "net/query_text.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

using namespace mcsm;

namespace {

constexpr const char* kUsage = R"(timing_server -- batched CSM timing queries over the serve stack

Usage:
  timing_server --demo          built-in sweep (also the CTest smoke run);
                                prints an observability snapshot at exit
  timing_server <batch-file>    one query per line, batch flushed at EOF
  timing_server -               same, reading stdin; a line "flush"
                                executes the pending batch immediately and
                                a line "stats" prints the current
                                observability snapshot to stderr
  timing_server --stats         (combinable with any mode) print the
                                observability snapshot -- cache hit/miss
                                counters and per-query latency percentiles
                                -- to stderr at exit
  timing_server --help          this text

Query line (whitespace-separated; '#' starts a comment):
  <cell> <pins> <rise|fall> <slews_ps> <skews_ps> <load_fF> [option...]

  <pins>      1-3 comma-separated switching pins (2-3 -> MIS arc served
              from a skew-aware surface)
  <slews_ps>  per-pin 0-100% input ramps [ps], comma-separated
  <skews_ps>  per-pin edge offsets [ps], comma-separated; a lone "0"
              means simultaneous switching for any pin count
  <load_fF>   lumped output load [fF]

  options (any order, after the load):
    pi=<c_near_fF>:<r_ohm>:<c_far_fF>   RC pi load on top of load_fF
    vdd=<V>                             supply corner (default: nominal)
    temp=<degC>                         temperature corner (default 25)
    exact                               force the transient path

  examples:
    NOR2 A,B fall 80,120 0,50 4
    NAND3 A,B,C rise 80,100,120 0,40,80 6 pi=1:300:4 vdd=1.1 temp=85
    INV_X1 A rise 100 0 2 exact

  A 3-pin arc is served from a 6-D surface ([slew_a, slew_b, slew_c,
  skew_b, skew_c, load]); its first (cold) query characterizes a 6-D model
  and runs one CSM transient per surface knot -- about 2k transients with
  the default knots, vs ~450 for a 2-pin arc -- so warm it offline or
  persist surfaces via MCSM_SURFACE_DIR.

Result CSV:  index,cell,delay_ps,slew_ps,path,error

Environment:
  MCSM_MODEL_DIR    model store directory, one <key>.mcsmpack per model
                    (default: in-memory only). Models missing from the
                    store are characterized on demand and written back
                    (corner models under corner-suffixed keys), so the
                    second run serves from disk.
  MCSM_SURFACE_DIR  arc-surface store directory, one <arc>.mcsmpack per
                    arc: cold surface builds are persisted and mapped
                    zero-parse by later runs.
  MCSM_TRACE=<path>         capture a Chrome trace-event JSON of the run
                            (load in Perfetto / chrome://tracing); spans
                            cover batches, queries, characterizations and
                            SPICE solves.
  MCSM_TRACE_DETAIL=1       with MCSM_TRACE: also emit per-Newton-phase
                            spans (assemble/factor/solve) -- much larger.
  MCSM_OBS_JSON=<path>      write the observability snapshot (counters,
                            gauges, latency histograms) as JSON at exit.
)";

// Batch flush on SIGINT/SIGTERM: the handler just raises a flag; the
// stdin read loop is installed WITHOUT SA_RESTART so a blocking getline
// fails with EINTR, the loop falls through, and the final run(batch)
// executes the still-pending queries before exit -- a Ctrl-C'd pipeline
// still gets answers for everything it submitted.
volatile std::sig_atomic_t g_stop = 0;

void install_signal_handlers() {
    // Results often stream into a pipe (head, awk); a closed reader must
    // surface as a failed printf, not a process-killing SIGPIPE mid-batch.
    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa{};
    sa.sa_handler = [](int) { g_stop = 1; };
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

void stream_results(const std::vector<serve::TimingQuery>& batch,
                    const std::vector<serve::TimingResult>& results,
                    std::size_t base_index) {
    for (std::size_t i = 0; i < results.size(); ++i) {
        const serve::TimingResult& r = results[i];
        if (r.valid)
            std::printf("%zu,%s,%.4f,%.4f,%s,\n", base_index + i,
                        batch[i].cell.c_str(), r.delay * 1e12,
                        r.slew * 1e12,
                        r.path == serve::ResultPath::kLut ? "lut" : "tran");
        else
            std::printf("%zu,%s,,,error,%s\n", base_index + i,
                        batch[i].cell.c_str(), r.error.c_str());
    }
}

std::vector<serve::TimingQuery> demo_batch() {
    std::vector<serve::TimingQuery> batch;
    for (int i = 0; i < 600; ++i) {
        serve::TimingQuery q;
        if (i % 3 == 0) {
            q.cell = "INV_X1";
            q.pins = {"A"};
            q.slews = {(30 + 12.0 * (i % 17)) * 1e-12};
        } else {
            q.cell = i % 3 == 1 ? "NOR2" : "NAND2";
            q.pins = {"A", "B"};
            q.slews = {(40 + 8.0 * (i % 13)) * 1e-12,
                       (50 + 9.0 * (i % 11)) * 1e-12};
            q.skews = {0.0, (static_cast<double>(i % 21) - 10.0) * 15e-12};
        }
        q.inputs_rise = (i % 2) == 1;
        q.load_cap = (2 + (i % 8)) * 1e-15;
        // A slice of the sweep exercises the expanded scenario space: RC
        // pi loads and a hot/low-voltage corner.
        if (i % 7 == 3) {
            q.c_near = 1e-15;
            q.r_wire = 400.0 + 40.0 * (i % 9);
            q.c_far = (2 + (i % 5)) * 1e-15;
        }
        if (i % 5 == 2) q.corner = serve::Corner{1.1, 85.0};
        batch.push_back(q);
    }
    // A 3-pin MIS section (every combination of leading/lagging B and C
    // edges through the stack), small because its cold cost is a 6-D model
    // characterization plus one transient per surface knot.
    for (int i = 0; i < 60; ++i) {
        serve::TimingQuery q;
        q.cell = "NAND3";
        q.pins = {"A", "B", "C"};
        q.inputs_rise = true;  // NMOS stack discharge: the stack-effect arc
        q.slews = {(60 + 10.0 * (i % 9)) * 1e-12,
                   (70 + 12.0 * (i % 7)) * 1e-12,
                   (80 + 14.0 * (i % 5)) * 1e-12};
        q.skews = {0.0, (static_cast<double>(i % 7) - 3.0) * 30e-12,
                   (static_cast<double>(i % 11) - 5.0) * 20e-12};
        q.load_cap = (2 + (i % 6) * 3) * 1e-15;
        if (i % 4 == 1) {
            q.c_near = 1e-15;
            q.r_wire = 500.0;
            q.c_far = 4e-15;
        }
        batch.push_back(q);
    }
    return batch;
}

}  // namespace

int main(int argc, char** argv) {
    install_signal_handlers();
    bool demo = false;
    bool stats = false;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help") {
            std::fputs(kUsage, stdout);
            return 0;
        } else if (arg == "--demo") {
            demo = true;
        } else if (arg == "--stats") {
            stats = true;
        } else {
            positional.push_back(arg);
        }
    }
    // The demo doubles as the smoke/CI run; always leave its obs snapshot
    // in the log so cache behavior regressions are visible there.
    if (demo) stats = true;

    const tech::Technology tech = tech::make_tech130();
    const cells::CellLibrary lib(tech);

    serve::RepositoryOptions ropt;
    if (const char* dir = std::getenv("MCSM_MODEL_DIR")) ropt.dir = dir;
    // Demo-grade characterize-on-miss settings; a production store is
    // characterized offline with the full paper-faithful options and this
    // server only ever loads it.
    ropt.char_options.transient_caps = false;
    ropt.char_options.grid_points = 7;
    ropt.char_options_mis3.grid_points = 4;
    serve::ModelRepository repo(&lib, ropt);

    serve::ServeOptions sopt;
    if (const char* dir = std::getenv("MCSM_SURFACE_DIR"))
        sopt.surface_dir = dir;
    if (demo) {
        // Keep the smoke run's cold 3-pin surface small; real servers keep
        // the stock grid and amortize it via MCSM_SURFACE_DIR.
        sopt.slew_knots_mis3 = {50e-12, 280e-12};
        sopt.skew_knots_mis3 = {-1.5, 0.0, 1.5};
        sopt.skew_pair_knots_mis3 = {-1.5, 0.0, 1.5};
        sopt.load_knots_mis3 = {2e-15, 20e-15};
    }
    serve::TimingService service(repo, sopt);

    std::size_t served = 0;
    double busy_ms = 0.0;
    const auto run = [&](std::vector<serve::TimingQuery>& batch) {
        if (batch.empty()) return;
        const auto t0 = std::chrono::steady_clock::now();
        const std::vector<serve::TimingResult> results =
            service.run_batch(batch);
        const auto t1 = std::chrono::steady_clock::now();
        stream_results(batch, results, served);
        busy_ms +=
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        served += batch.size();
        batch.clear();
    };

    std::printf("index,cell,delay_ps,slew_ps,path,error\n");
    std::vector<serve::TimingQuery> batch;
    if (demo) {
        batch = demo_batch();
        run(batch);
        // Second pass is the warm steady state: every arc surface cached.
        batch = demo_batch();
        run(batch);
    } else {
        std::ifstream file;
        if (!positional.empty() && positional[0] != "-") {
            file.open(positional[0]);
            if (!file) {
                std::fprintf(stderr, "timing_server: cannot open %s\n",
                             positional[0].c_str());
                return 1;
            }
        }
        std::istream& in = file.is_open() ? file : std::cin;
        std::string line;
        while (std::getline(in, line)) {
            if (line == "flush") {
                run(batch);
                continue;
            }
            if (line == "stats") {
                std::fputs(obs::snapshot().format_human().c_str(), stderr);
                continue;
            }
            serve::TimingQuery q;
            try {
                // Shared wire grammar (net/query_text): the same line
                // parses identically here and across a socket, and numbers
                // go through std::from_chars -- a comma-radix LC_NUMERIC
                // locale can no longer truncate "2.5" to 2.
                if (net::parse_query_line(line, q)) batch.push_back(q);
            } catch (const std::exception& e) {
                std::fprintf(stderr, "# skipped (%s): %s\n", e.what(),
                             line.c_str());
            }
            if (g_stop != 0) break;
        }
        // EOF or signal: execute whatever is still pending (run() skips
        // the spurious empty flush when the stream ended cleanly on a
        // "flush" line).
        run(batch);
    }

    std::fprintf(stderr,
                 "# served %zu queries in %.1f ms (%.0f queries/sec, "
                 "surfaces cached: %zu)\n",
                 served, busy_ms,
                 busy_ms > 0.0 ? 1e3 * static_cast<double>(served) / busy_ms
                               : 0.0,
                 service.surface_count());
    if (stats) std::fputs(obs::snapshot().format_human().c_str(), stderr);
    if (const char* json_path = std::getenv("MCSM_OBS_JSON")) {
        if (obs::write_snapshot_json(json_path))
            std::fprintf(stderr, "# wrote obs snapshot %s\n", json_path);
        else
            std::fprintf(stderr, "# cannot write obs snapshot %s\n",
                         json_path);
    }
    return 0;
}
