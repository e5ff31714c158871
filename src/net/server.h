// Socket front end of the serving tier: an epoll event loop that accepts
// concurrent clients speaking the line protocol of net/query_text and
// feeds their queries to one shared TimingService in MICRO-BATCHES.
//
// Why batch at the socket layer: run_batch() amortizes its warm-up and
// fan-out over the whole batch, so per-query dispatch would waste the
// thread pool on bursty many-client load. The server instead accumulates
// parsed queries from every connection into one pending batch and executes
// it inline on the loop thread when EITHER batch_max queries are pending
// OR the oldest pending query has waited linger_us microseconds (the
// latency bound), OR a client sent "flush" / reached EOF. While a batch
// runs, arriving bytes simply queue in kernel socket buffers -- that
// backpressure is the batching under load.
//
// Per-connection ordering: responses come back in the order the
// connection submitted its queries (batch results are in query order and
// pending entries preserve arrival order). Ordering across connections is
// unspecified.
//
// Control lines (everything else is a query line):
//   ping    -> "pong"
//   flush   -> execute the pending batch now
//   stats   -> "stats <nbytes>\n" + the obs snapshot JSON (length-prefixed
//              because the payload spans lines)
//   reload  -> PackHost::refresh() on the configured pack;
//              "reload ok <generation>" / "reload noop <generation>" /
//              "err 0 reload: no pack configured"
//
// Admission: when max_pending queries are already waiting, new queries are
// rejected immediately with "err <id> busy ..." instead of queueing
// unboundedly -- the client sees the overload instead of a growing tail
// latency.
//
// Accounting lives in obs, like every other layer's: net.accepted,
// net.refused (over max_conns), net.served, net.batches, net.rejected
// (admission), net.parse_errors, net.reloads and the net.batch_size
// histogram. The "stats" line returns them with the rest of the registry.
//
// Shutdown: stop() is async-signal-safe (one eventfd write), so SIGTERM/
// SIGINT handlers can call it directly; the loop then executes the still-
// pending batch, flushes every connection's responses best-effort and
// returns from run(). All sends use MSG_NOSIGNAL: a client that vanished
// mid-response costs an EPIPE on that connection, never a process-killing
// SIGPIPE.
#ifndef MCSM_NET_SERVER_H
#define MCSM_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/mapped_store.h"
#include "serve/timing_service.h"

namespace mcsm::net {

struct NetServerOptions {
    // Unix-domain listener path ("" disables). A stale socket file from a
    // crashed server is unlinked before bind.
    std::string unix_path;
    // TCP loopback (127.0.0.1) listener port: -1 disables, 0 binds an
    // ephemeral port (read it back via NetServer::tcp_port()).
    int tcp_port = -1;
    // Micro-batching: execute when batch_max queries are pending, or when
    // the oldest has waited linger_us.
    std::size_t batch_max = 512;
    long linger_us = 200;
    // Admission: pending-query cap; excess queries get "err <id> busy".
    std::size_t max_pending = 1 << 16;
    // Longest accepted request line, terminated or not. A connection that
    // sends a longer one gets "err 0 line too long" and is closed (no way
    // to resync a line protocol mid-line).
    std::size_t max_line = 4096;
    // Connection cap; excess accepts are refused with an error line.
    std::size_t max_conns = 64;
    // Pack behind the service, target of the "reload" command and of
    // reload polling; may be null (reload then reports an error).
    std::shared_ptr<serve::PackHost> pack;
    // When > 0, the loop calls pack->refresh() at this period -- hot
    // reload without any client sending "reload".
    long reload_poll_ms = 0;
};

class NetServer {
public:
    // Binds the configured listeners eagerly (throws ModelError on bind
    // failure); serving starts with run().
    NetServer(serve::TimingService& service, NetServerOptions options);
    ~NetServer();

    NetServer(const NetServer&) = delete;
    NetServer& operator=(const NetServer&) = delete;

    // Bound TCP port (resolves an ephemeral bind), -1 when disabled.
    int tcp_port() const { return tcp_port_; }

    // Runs the event loop on the calling thread until stop().
    void run();

    // Requests run() to wind down: flush the pending batch, best-effort
    // drain of response buffers, return. Async-signal-safe; callable from
    // any thread and from SIGTERM/SIGINT handlers.
    void stop();

private:
    struct Conn;
    struct Pending {
        std::shared_ptr<Conn> conn;
        std::uint64_t seq = 0;
    };

    void accept_ready(int listen_fd);
    void conn_readable(const std::shared_ptr<Conn>& conn);
    void handle_line(const std::shared_ptr<Conn>& conn,
                     std::string_view line);
    void run_pending_batch();
    // Queues one response line (newline appended) and flushes immediately:
    // control/error responses only. Batch responses append straight to the
    // connection buffer in run_pending_batch and flush ONCE per
    // connection, so a batch costs O(connections) send() calls, not
    // O(queries).
    void respond(const std::shared_ptr<Conn>& conn, std::string_view line);
    void try_flush(const std::shared_ptr<Conn>& conn);
    void close_conn(const std::shared_ptr<Conn>& conn);
    void update_epoll(const std::shared_ptr<Conn>& conn, bool want_write);
    int loop_timeout_ms() const;

    serve::TimingService* service_;
    NetServerOptions options_;

    int epoll_fd_ = -1;
    int wake_fd_ = -1;   // eventfd; stop() writes it
    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;

    std::atomic<bool> stopping_{false};

    // Loop-thread state (never touched concurrently).
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<Pending> pending_;
    // Parsed queries: slot i belongs to pending_[i]. Slots past
    // pending_.size() keep their buffers, so a steady stream of queries
    // parses without allocating (at most batch_max slots).
    std::vector<serve::TimingQuery> queries_;
    std::chrono::steady_clock::time_point batch_deadline_{};
    std::chrono::steady_clock::time_point next_reload_{};
};

}  // namespace mcsm::net

#endif  // MCSM_NET_SERVER_H
