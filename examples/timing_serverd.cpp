// The serve tier's front end: the socket server (net/server) over the full
// serving stack, plus the pack-store utilities that feed it. One binary
// covers the operational loop: answer queries from stdin, serve them over
// unix/TCP sockets with micro-batching, build an mmap pack from a per-file
// store, hot-reload it in place, and talk to a running daemon as a client.
// Run with --help.
#include <fcntl.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cells/library.h"
#include "net/client.h"
#include "net/query_text.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "serve/mapped_store.h"
#include "serve/repository.h"
#include "serve/timing_service.h"
#include "tech/tech130.h"

using namespace mcsm;

namespace {

constexpr const char* kUsage = R"(timing_serverd -- CSM timing queries over the serve stack

Usage:
  timing_serverd [serve options]
      Answer query lines from stdin on stdout, each response as soon as it
      is computed (an in-process server on a private unix socket). Serve a
      file by redirecting it: timing_serverd < queries.txt.
      SIGINT/SIGTERM stop reading; every query already read is answered.

  timing_serverd [--unix <path>] [--port <n>] [serve options]
      Serve the same protocol on a unix socket and/or TCP loopback port.
      --port 0 binds an ephemeral port; the bound address is announced on
      stdout as "# listening unix=<path> tcp=<port>" before serving.
      SIGINT/SIGTERM flush the pending batch, drain responses and exit.

  timing_serverd --client --unix <path> | --client --port <n>
      Pipe stdin to a running daemon and print each response as it
      arrives. At EOF the write side half-closes, so the daemon flushes
      the final batch.

  timing_serverd --build-pack <pack> --model-dir <dir> [--surface-dir <dir>]
      Merge a store's single-entry packs (*.mcsmpack) into one mmap-able
      pack file (published durably: fsync + rename) and exit. Write the
      pack outside the store directories.

  timing_serverd --demo [serve options]
      Self-contained smoke run (also the CTest wiring): starts an
      in-process server on a unix socket and, through real client
      connections, checks ping, flush, stats and malformed lines, sends a
      660-query sweep (1/2/3-pin arcs, pi loads, a 1.1 V / 85 C corner)
      twice -- every answer ok, no surface built in the second pass --
      and checks that the stdin loop streams. Prints the obs snapshot at
      exit. With --model-dir/--surface-dir it leaves a store behind.

Serve options:
  --pack <path>        mmap pack served zero-parse (models + surfaces);
                       hot-reloadable
  --reload-ms <n>      poll the pack file for replacement every n ms
                       (a "reload" protocol line forces a check any time)
  --model-dir <dir>    model store fallback (one pack per model); misses
                       characterize on demand and write back (corner
                       models under corner-suffixed keys)
  --surface-dir <dir>  surface store fallback (one pack per arc); cold
                       surface builds are written back
  --batch-max <n>      micro-batch size cap              (default 512)
  --linger-us <n>      micro-batch latency bound in us   (default 200)
  --max-pending <n>    admission cap; excess queries get "err <id> busy"
  --max-conns <n>      concurrent connection cap         (default 64)
  --threads <n>        TimingService batch fan-out       (default: cores)

Protocol (one line per request and per response):
  in:   a query line (below), or a control line:
          flush    run the pending batch now
          ping     answered "pong"
          stats    answered "stats <nbytes>" + the obs snapshot JSON
          reload   re-map a replaced --pack: "reload ok|noop <generation>"
  out:  ok <id> <delay_s> <slew_s> <lut|tran>
        err <id> <message>
  <id> counts query lines per connection from 1 ("err 0" is a
  connection-level error). Doubles are shortest round-trip, so a result
  reparses bit-exactly.

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
  the default knots, vs ~450 for a 2-pin arc -- so warm it offline and
  persist it with --surface-dir, or serve it from a --pack.

Environment (honoured by every binary of the library):
  MCSM_TRACE=<path>      capture a Chrome trace-event JSON of the run (load
                         in Perfetto / chrome://tracing); spans cover
                         batches, queries, characterizations and SPICE
                         solves
  MCSM_TRACE_DETAIL=1    with MCSM_TRACE: also emit per-Newton-phase spans
                         (assemble/factor/solve) -- much larger
  MCSM_OBS_JSON=<path>   write the obs snapshot (counters, gauges, latency
                         histograms) as JSON at exit
)";

// Signal targets: the daemon's (or demo's) server, and an eventfd that
// stops pipe_lines from reading further input. Both are one eventfd
// write, so the handler stays async-signal-safe.
net::NetServer* g_server = nullptr;
int g_input_stop = -1;

void raise_input_stop() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(g_input_stop, &one, sizeof one);
}

void install_signal_handlers() {
    // MSG_NOSIGNAL covers the server's own sends; SIG_IGN covers anything
    // else (a response stream written to a closed stdout pipe).
    std::signal(SIGPIPE, SIG_IGN);
    g_input_stop = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    require(g_input_stop >= 0, "timing_serverd: eventfd failed");
    struct sigaction sa{};
    sa.sa_handler = [](int) {
        if (g_server != nullptr) g_server->stop();
        raise_input_stop();
    };
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
}

struct Args {
    std::string unix_path;
    int port = -1;
    std::string pack;
    std::string build_pack;
    std::string model_dir;
    std::string surface_dir;
    long batch_max = 512;
    long linger_us = 200;
    long max_pending = 1 << 16;
    long max_conns = 64;
    long threads = 0;
    long reload_ms = 0;
    bool client = false;
    bool demo = false;
};

long parse_long(const std::string& value, const char* flag) {
    char* end = nullptr;
    const long v = std::strtol(value.c_str(), &end, 10);
    require(end == value.c_str() + value.size() && !value.empty() && v >= 0,
            std::string("timing_serverd: bad value for ") + flag + ": " +
                value);
    return v;
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            require(i + 1 < argc,
                    "timing_serverd: " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help") {
            std::fputs(kUsage, stdout);
            std::exit(0);
        } else if (arg == "--unix") {
            a.unix_path = value();
        } else if (arg == "--port") {
            a.port = static_cast<int>(parse_long(value(), "--port"));
        } else if (arg == "--pack") {
            a.pack = value();
        } else if (arg == "--build-pack") {
            a.build_pack = value();
        } else if (arg == "--model-dir") {
            a.model_dir = value();
        } else if (arg == "--surface-dir") {
            a.surface_dir = value();
        } else if (arg == "--batch-max") {
            a.batch_max = parse_long(value(), "--batch-max");
        } else if (arg == "--linger-us") {
            a.linger_us = parse_long(value(), "--linger-us");
        } else if (arg == "--max-pending") {
            a.max_pending = parse_long(value(), "--max-pending");
        } else if (arg == "--max-conns") {
            a.max_conns = parse_long(value(), "--max-conns");
        } else if (arg == "--threads") {
            a.threads = parse_long(value(), "--threads");
        } else if (arg == "--reload-ms") {
            a.reload_ms = parse_long(value(), "--reload-ms");
        } else if (arg == "--client") {
            a.client = true;
        } else if (arg == "--demo") {
            a.demo = true;
        } else {
            std::fprintf(stderr, "timing_serverd: unknown flag %s\n",
                         arg.c_str());
            std::exit(2);
        }
    }
    return a;
}

int run_build_pack(const Args& a) {
    require(!a.model_dir.empty() || !a.surface_dir.empty(),
            "timing_serverd: --build-pack needs --model-dir and/or "
            "--surface-dir");
    const serve::PackWriter writer =
        serve::pack_from_dirs(a.model_dir, a.surface_dir);
    require(writer.entry_count() > 0,
            "timing_serverd: store directories hold no pack-able entries");
    writer.write(a.build_pack);
    std::printf("# packed %zu entries into %s\n", writer.entry_count(),
                a.build_pack.c_str());
    return 0;
}

bool write_all(int fd, std::string_view text) {
    while (!text.empty()) {
        const ssize_t n = ::write(fd, text.data(), text.size());
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        text.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
}

// Streams `in_fd` to the server and the server's responses to `out_fd`: a
// sender thread forwards input as soon as it is read, and the calling
// thread writes every response line as soon as it arrives, so a user
// typing queries sees each answer before EOF. At input EOF, or when
// g_input_stop fires (SIGINT/SIGTERM), the write side half-closes; the
// server then answers every query it was sent and hangs up, which ends the
// loop.
void pipe_lines(net::LineClient& client, int in_fd, int out_fd) {
    std::thread sender([&client, in_fd] {
        char buf[1 << 16];
        bool mid_line = false;
        try {
            for (;;) {
                pollfd fds[2] = {{in_fd, POLLIN, 0},
                                 {g_input_stop, POLLIN, 0}};
                if (::poll(fds, 2, -1) < 0 && errno != EINTR) break;
                if (fds[1].revents != 0) break;
                if (fds[0].revents == 0) continue;
                const ssize_t n = ::read(in_fd, buf, sizeof buf);
                if (n < 0 && errno == EINTR) continue;
                if (n <= 0) {
                    // A last line without its newline still counts.
                    if (mid_line) client.send_text("\n");
                    break;
                }
                client.send_text(
                    std::string_view(buf, static_cast<std::size_t>(n)));
                mid_line = buf[n - 1] != '\n';
            }
        } catch (const ModelError&) {
            // The server hung up; the response loop below sees it too.
        }
        client.shutdown_write();
    });
    for (;;) {
        std::string line;
        try {
            line = client.recv_line();
        } catch (const ModelError&) {
            break;  // the server answered everything and hung up
        }
        line += '\n';
        if (!write_all(out_fd, line)) break;
    }
    // The sender may still be waiting for input nobody will answer.
    raise_input_stop();
    sender.join();
}

int run_client(const Args& a) {
    require(!a.unix_path.empty() || a.port >= 0,
            "timing_serverd: --client needs --unix or --port");
    net::LineClient client =
        !a.unix_path.empty() ? net::LineClient::connect_unix(a.unix_path)
                             : net::LineClient::connect_tcp(a.port);
    pipe_lines(client, STDIN_FILENO, STDOUT_FILENO);
    return 0;
}

// Shared server scaffolding for the stdin, daemon and demo modes.
struct ServerStack {
    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    std::shared_ptr<serve::PackHost> pack;
    std::unique_ptr<serve::ModelRepository> repo;
    std::unique_ptr<serve::TimingService> service;
    std::unique_ptr<net::NetServer> server;
    std::thread loop;  // see run_in_background()

    ServerStack(const Args& a, const std::string& unix_path) {
        if (!a.pack.empty())
            pack = std::make_shared<serve::PackHost>(a.pack);

        serve::RepositoryOptions ropt;
        ropt.dir = a.model_dir;
        ropt.pack = pack;
        // Demo-grade characterize-on-miss settings: a production server
        // serves a store or pack characterized offline with the full
        // paper-faithful options.
        ropt.char_options.transient_caps = false;
        ropt.char_options.grid_points = 7;
        ropt.char_options_mis3.grid_points = 4;
        repo = std::make_unique<serve::ModelRepository>(&lib, ropt);

        serve::ServeOptions sopt;
        sopt.surface_dir = a.surface_dir;
        sopt.pack = pack;
        sopt.threads = static_cast<std::size_t>(a.threads);
        if (a.demo) {
            // Keep the demo's cold 3-pin surface small; real servers keep
            // the stock grid and amortize it through a store or pack.
            sopt.slew_knots_mis3 = {50e-12, 280e-12};
            sopt.skew_knots_mis3 = {-1.5, 0.0, 1.5};
            sopt.skew_pair_knots_mis3 = {-1.5, 0.0, 1.5};
            sopt.load_knots_mis3 = {2e-15, 20e-15};
        }
        service = std::make_unique<serve::TimingService>(*repo, sopt);

        net::NetServerOptions nopt;
        nopt.unix_path = unix_path;
        nopt.tcp_port = a.port;
        nopt.batch_max = static_cast<std::size_t>(a.batch_max);
        nopt.linger_us = a.linger_us;
        nopt.max_pending = static_cast<std::size_t>(a.max_pending);
        nopt.max_conns = static_cast<std::size_t>(a.max_conns);
        nopt.pack = pack;
        nopt.reload_poll_ms = a.reload_ms;
        server = std::make_unique<net::NetServer>(*service, nopt);
    }

    ServerStack(const ServerStack&) = delete;
    ServerStack& operator=(const ServerStack&) = delete;

    // Runs the server loop on its own thread; destruction stops it (the
    // pending batch is answered) and joins.
    void run_in_background() {
        loop = std::thread([this] { server->run(); });
    }

    ~ServerStack() {
        if (loop.joinable()) {
            server->stop();
            loop.join();
        }
    }
};

// The exit line: the socket tier's counters, read from obs.
void print_net_counters() {
    const auto n = [](const char* name) { return obs::counter(name).value(); };
    std::fprintf(stderr,
                 "# conns accepted=%lld refused=%lld; queries served=%lld "
                 "rejected=%lld parse_errors=%lld; batches=%lld\n",
                 n("net.accepted"), n("net.refused"), n("net.served"),
                 n("net.rejected"), n("net.parse_errors"), n("net.batches"));
}

int run_daemon(const Args& a) {
    ServerStack stack(a, a.unix_path);
    g_server = stack.server.get();
    std::printf("# listening unix=%s tcp=%d\n",
                a.unix_path.empty() ? "-" : a.unix_path.c_str(),
                stack.server->tcp_port());
    std::fflush(stdout);
    stack.server->run();
    g_server = nullptr;
    print_net_counters();
    return 0;
}

// A fresh mkdtemp directory (mode 0700): its socket is reachable by this
// user only. Removed on scope exit, after the server unlinked the socket.
struct PrivateDir {
    std::string path;
    PrivateDir() {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "timing_serverd.XXXXXX")
                .string();
        require(::mkdtemp(tmpl.data()) != nullptr,
                "timing_serverd: cannot create a private socket directory");
        path = tmpl;
    }
    PrivateDir(const PrivateDir&) = delete;
    PrivateDir& operator=(const PrivateDir&) = delete;
    ~PrivateDir() { ::rmdir(path.c_str()); }
};

int run_stdin(const Args& a) {
    const PrivateDir dir;
    {
        const std::string sock = dir.path + "/serve.sock";
        ServerStack stack(a, sock);
        stack.run_in_background();
        net::LineClient client = net::LineClient::connect_unix(sock);
        pipe_lines(client, STDIN_FILENO, STDOUT_FILENO);
    }
    print_net_counters();
    return 0;
}

// The demo sweep: 1- and 2-pin INV_X1/NOR2/NAND2 arcs with a pi load on 1
// query in 7 and the 1.1 V / 85 C corner on 1 in 5, plus a 3-pin NAND3
// section on the demo's reduced 3-pin knots.
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
        if (i % 7 == 3) {
            q.c_near = 1e-15;
            q.r_wire = 400.0 + 40.0 * (i % 9);
            q.c_far = (2 + (i % 5)) * 1e-15;
        }
        if (i % 5 == 2) q.corner = serve::Corner{1.1, 85.0};
        batch.push_back(q);
    }
    // Every combination of leading/lagging B and C edges through the stack;
    // small because its cold cost is a 6-D model characterization plus one
    // transient per surface knot.
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

// Sends `text` (query lines plus a flush) and counts the "ok" answers
// among the next `queries` responses.
std::size_t count_ok(net::LineClient& client, const std::string& text,
                     std::size_t queries) {
    client.send_text(text);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < queries; ++i)
        if (client.recv_line().rfind("ok ", 0) == 0) ++ok;
    return ok;
}

// Drives pipe_lines over a pipe and waits (bounded) for the first answer
// while the pipe's write end is still open.
bool first_answer_streams(const std::string& sock) {
    int in[2];
    int out[2];
    require(::pipe2(in, O_CLOEXEC) == 0 && ::pipe2(out, O_CLOEXEC) == 0,
            "timing_serverd: pipe failed");
    net::LineClient client = net::LineClient::connect_unix(sock);
    std::thread pump([&] {
        pipe_lines(client, in[0], out[1]);
        ::close(out[1]);
    });
    write_all(in[1], "INV_X1 A rise 100 0 2\nflush\n");
    std::string got;
    bool streamed = false;
    while (!streamed) {
        pollfd p{out[0], POLLIN, 0};
        char buf[4096];
        if (::poll(&p, 1, 10000) <= 0) break;
        const ssize_t n = ::read(out[0], buf, sizeof buf);
        if (n <= 0) break;
        got.append(buf, static_cast<std::size_t>(n));
        streamed = got.find('\n') != std::string::npos &&
                   got.rfind("ok 1 ", 0) == 0;
    }
    ::close(in[1]);  // EOF: the loop half-closes and ends once answered
    pump.join();
    ::close(in[0]);
    ::close(out[0]);
    return streamed;
}

int run_demo(const Args& a) {
    // The socket lives in the working directory (CTest runs each test in
    // its own build dir).
    const std::string sock = "timing_serverd_demo.sock";
    int failures = 0;
    const auto expect = [&](bool ok, const char* what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "# demo FAIL: %s\n", what);
        }
    };
    {
        ServerStack stack(a, sock);
        g_server = stack.server.get();
        stack.run_in_background();
        try {
            net::LineClient client = net::LineClient::connect_unix(sock);
            expect(client.request("ping") == "pong", "ping/pong");
            client.send_line("INV_X1 A rise 100 0 2");
            client.send_line("INV_X1 A rise 140 0 4");
            client.send_line("not a query at all");
            client.send_line("flush");
            for (int i = 0; i < 3; ++i) {
                std::uint64_t id = 0;
                const serve::TimingResult r =
                    net::parse_result_line(client.recv_line(), id);
                if (id <= 2)
                    expect(r.valid && r.delay > 0.0 && r.slew > 0.0,
                           "query result valid");
                else
                    expect(!r.valid, "malformed line reported as error");
            }
            const std::string stats = client.request("stats");
            expect(stats.rfind("stats ", 0) == 0, "stats header");
            const std::size_t nbytes = static_cast<std::size_t>(
                std::strtoull(stats.c_str() + 6, nullptr, 10));
            const std::string json = client.recv_bytes(nbytes);
            expect(json.find("serve.query.lut") != std::string::npos,
                   "stats json carries serve counters");
            expect(client.recv_line().empty(), "stats payload line ends");

            const std::vector<serve::TimingQuery> sweep = demo_batch();
            std::string text;
            for (const serve::TimingQuery& q : sweep) {
                text += net::format_query_line(q);
                text += '\n';
            }
            text += "flush\n";
            const obs::Counter& built = obs::counter("serve.surface.miss");
            expect(count_ok(client, text, sweep.size()) == sweep.size(),
                   "cold sweep: every answer ok");
            const long long built_cold = built.value();
            // Second pass is the warm steady state: every surface cached.
            expect(count_ok(client, text, sweep.size()) == sweep.size(),
                   "warm sweep: every answer ok");
            expect(built.value() == built_cold,
                   "warm sweep builds no surface");

            expect(first_answer_streams(sock),
                   "stdin loop answers before its input closes");
        } catch (const std::exception& e) {
            ++failures;
            std::fprintf(stderr, "# demo FAIL: %s\n", e.what());
        }
        g_server = nullptr;
    }
    std::fputs(obs::snapshot().format_human().c_str(), stderr);
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        install_signal_handlers();
        const Args args = parse_args(argc, argv);
        if (!args.build_pack.empty()) return run_build_pack(args);
        if (args.client) return run_client(args);
        if (args.demo) return run_demo(args);
        if (args.unix_path.empty() && args.port < 0) return run_stdin(args);
        return run_daemon(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "timing_serverd: %s\n", e.what());
        return 1;
    }
}
