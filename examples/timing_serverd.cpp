// Network timing daemon: the socket front end (net/server) over the full
// serving stack, plus the pack-store utilities that feed it. One binary
// covers the operational loop: build an mmap pack from a per-file store,
// serve it over unix/TCP sockets with micro-batching, hot-reload it in
// place, and talk to a running daemon as a client. Run with --help.
#include <csignal>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
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

constexpr const char* kUsage = R"(timing_serverd -- socket timing server over an mmap'd model pack

Usage:
  timing_serverd [--unix <path>] [--port <n>] [serve options]
      Serve the line protocol (same query grammar as timing_server; see
      timing_server --help) on a unix socket and/or TCP loopback port.
      --port 0 binds an ephemeral port; the bound address is announced on
      stdout as "# listening unix=<path> tcp=<port>" before serving.
      SIGINT/SIGTERM flush the pending batch, drain responses and exit.

  timing_serverd --build-pack <pack> --model-dir <dir> [--surface-dir <dir>]
      Merge a store's single-entry packs (*.mcsmpack) into one mmap-able
      pack file (published durably: fsync + rename) and exit. Write the
      pack outside the store directories.

  timing_serverd --client --unix <path> | --client --port <n>
      Pipe stdin to a running daemon and stream its responses to stdout
      (write side half-closes at EOF, so the daemon flushes the final
      batch). Sized for operational batches, not bulk transfers: input is
      sent before responses are read.

  timing_serverd --demo
      Self-contained smoke run (also the CTest wiring): starts an
      in-process server on a unix socket, exercises queries, flush, stats
      and malformed lines through a real client connection, prints the
      server counters and exits.

Serve options:
  --pack <path>        mmap pack served zero-parse (models + surfaces);
                       hot-reloadable
  --reload-ms <n>      poll the pack file for replacement every n ms
                       (a "reload" protocol line forces a check any time)
  --model-dir <dir>    model store fallback (one pack per model); misses
                       characterize on demand and write back
  --surface-dir <dir>  surface store fallback (one pack per arc)
  --batch-max <n>      micro-batch size cap              (default 512)
  --linger-us <n>      micro-batch latency bound in us   (default 200)
  --max-pending <n>    admission cap; excess queries get "err <id> busy"
  --max-conns <n>      concurrent connection cap         (default 64)
  --threads <n>        TimingService batch fan-out       (default: cores)
)";

net::NetServer* g_server = nullptr;

void install_signal_handlers() {
    // MSG_NOSIGNAL covers the server's own sends; SIG_IGN covers anything
    // else (a client CLI writing to a closed stdout pipe).
    std::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa{};
    // NetServer::stop() is one eventfd write -- async-signal-safe.
    sa.sa_handler = [](int) {
        if (g_server != nullptr) g_server->stop();
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

int run_client(const Args& a) {
    require(!a.unix_path.empty() || a.port >= 0,
            "timing_serverd: --client needs --unix or --port");
    net::LineClient client =
        !a.unix_path.empty() ? net::LineClient::connect_unix(a.unix_path)
                             : net::LineClient::connect_tcp(a.port);
    std::string input;
    std::string line;
    while (std::getline(std::cin, line)) {
        input += line;
        input += '\n';
    }
    client.send_text(input);
    // Half-close: the daemon sees EOF, flushes the final batch and closes
    // after draining -- the recv loop below then terminates cleanly.
    client.shutdown_write();
    for (;;) {
        try {
            line = client.recv_line();
        } catch (const ModelError&) {
            break;  // server closed after the drain
        }
        std::printf("%s\n", line.c_str());
    }
    return 0;
}

// Shared server scaffolding for daemon and demo mode.
struct ServerStack {
    tech::Technology tech = tech::make_tech130();
    cells::CellLibrary lib{tech};
    std::shared_ptr<serve::PackHost> pack;
    std::unique_ptr<serve::ModelRepository> repo;
    std::unique_ptr<serve::TimingService> service;
    std::unique_ptr<net::NetServer> server;

    ServerStack(const Args& a, const std::string& unix_path) {
        if (!a.pack.empty())
            pack = std::make_shared<serve::PackHost>(a.pack);

        serve::RepositoryOptions ropt;
        ropt.dir = a.model_dir;
        ropt.pack = pack;
        // Demo-grade characterize-on-miss settings (see timing_server): a
        // production daemon serves a pre-characterized pack/store.
        ropt.char_options.transient_caps = false;
        ropt.char_options.grid_points = 7;
        ropt.char_options_mis3.grid_points = 4;
        repo = std::make_unique<serve::ModelRepository>(&lib, ropt);

        serve::ServeOptions sopt;
        sopt.surface_dir = a.surface_dir;
        sopt.pack = pack;
        sopt.threads = static_cast<std::size_t>(a.threads);
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
};

void print_counters(const net::NetServer& server) {
    const net::NetServer::Counters c = server.counters();
    std::fprintf(stderr,
                 "# conns accepted=%llu refused=%llu; queries served=%llu "
                 "rejected=%llu parse_errors=%llu; batches=%llu\n",
                 static_cast<unsigned long long>(c.accepted),
                 static_cast<unsigned long long>(c.refused),
                 static_cast<unsigned long long>(c.served),
                 static_cast<unsigned long long>(c.rejected),
                 static_cast<unsigned long long>(c.parse_errors),
                 static_cast<unsigned long long>(c.batches));
}

int run_daemon(const Args& a) {
    require(!a.unix_path.empty() || a.port >= 0,
            "timing_serverd: need --unix and/or --port (or --demo)");
    ServerStack stack(a, a.unix_path);
    g_server = stack.server.get();
    std::printf("# listening unix=%s tcp=%d\n",
                a.unix_path.empty() ? "-" : a.unix_path.c_str(),
                stack.server->tcp_port());
    std::fflush(stdout);
    stack.server->run();
    g_server = nullptr;
    print_counters(*stack.server);
    return 0;
}

int run_demo(Args a) {
    // Everything in the working directory (CTest runs each test in its
    // own build dir); a tiny single-pin arc keeps the cold cost at one
    // characterization plus a 2-D surface build.
    const std::string sock = "timing_serverd_demo.sock";
    a.batch_max = 8;
    a.linger_us = 1000;
    ServerStack stack(a, sock);
    g_server = stack.server.get();
    std::thread loop([&] { stack.server->run(); });

    int failures = 0;
    const auto expect = [&](bool ok, const char* what) {
        if (!ok) {
            ++failures;
            std::fprintf(stderr, "# demo FAIL: %s\n", what);
        }
    };
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
    } catch (const std::exception& e) {
        ++failures;
        std::fprintf(stderr, "# demo FAIL: %s\n", e.what());
    }

    stack.server->stop();
    loop.join();
    g_server = nullptr;
    print_counters(*stack.server);
    return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    install_signal_handlers();
    const Args args = parse_args(argc, argv);
    try {
        if (!args.build_pack.empty()) return run_build_pack(args);
        if (args.client) return run_client(args);
        if (args.demo) return run_demo(args);
        return run_daemon(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "timing_serverd: %s\n", e.what());
        return 1;
    }
}
