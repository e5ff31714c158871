// Socket front end of the serving tier: an epoll event loop that accepts
// concurrent clients speaking the line protocol of net/query_text and
// feeds their queries to one shared TimingService in MICRO-BATCHES.
//
// Why batch at the socket layer: run_batch() amortizes its warm-up and
// fan-out over the whole batch, so per-query dispatch would waste the
// thread pool on bursty many-client load. The server instead accumulates
// parsed queries from every connection into one pending batch and runs it
// when EITHER batch_max queries are pending OR the oldest pending query
// has waited linger_us microseconds (the latency bound), OR a client sent
// "flush" / reached EOF. While a batch runs, arriving bytes simply queue
// in kernel socket buffers -- that backpressure is the batching under
// load. A query line is copied when it arrives and parsed when its batch
// runs, inside the batch's fan-out; a line that does not parse gets its
// error reply and never reaches the service.
//
// Warm and cold queries part at the batch. The loop thread runs
// TimingService::run_resident inline: it answers every invalid query and
// every query whose surface (LUT) or model (exact) is already resident,
// adopting a LUT surface the served pack holds on the spot, and produces
// nothing. The rest -- queries that need a characterization, a surface
// build or a store file -- go to the COLD LANE, one server-owned thread
// that runs the blocking run_batch on everything queued and posts the
// answers back through the wake eventfd. So a cold build never stalls the
// other connections; queries on the lane wait for each other, in arrival
// order. The lane is not a pool worker: its run_batch fans out over the
// pool like any other caller (a worker's nested fan-out would run inline
// on one thread). Exact queries on resident models still run inline, and
// an exact query whose model the pack holds but nobody fetched yet goes
// to the lane (materializing copies and audits the model's tables). Pack
// refreshes ("reload" and the reload_poll_ms timer) run on the lane too:
// mapping and checksumming a pack is not free.
//
// Per-connection ordering: every reply to a request line -- answers,
// per-line errors, busy rejections and control replies alike -- leaves in
// request order. A reply that is ready while an earlier line's reply is
// still outstanding (in the pending batch or on the cold lane) is held
// until that one is sent; a connection with nothing outstanding appends
// straight to its output. Only a connection-level "err 0" that closes the
// connection skips the order. Ordering across connections is unspecified.
//
// Control lines (everything else is a query line):
//   ping    -> "pong"
//   flush   -> execute the pending batch now
//   stats   -> "stats <nbytes>\n" + the obs snapshot JSON (length-prefixed
//              because the payload spans lines)
//   reload  -> PackHost::refresh() on the configured pack, on the cold
//              lane; "reload ok <generation>" / "reload noop <generation>"
//              / "err 0 reload: no pack configured"
//
// Admission: when max_pending query lines are already waiting (in the
// pending batch, malformed ones included, or on the cold lane), new ones
// are rejected with "err <id> busy ..." instead of queueing unboundedly --
// the client sees the overload instead of a growing tail latency.
//
// Output bound: while a connection's unsent plus held reply bytes exceed
// batch_max * max_line, the loop stops reading and handling its lines, and
// resumes once its output drained, so a client that pipelines and never
// reads cannot grow the server. A client that sends everything before
// reading must keep its replies far below that bound, or it deadlocks
// against it.
//
// Accounting lives in obs, like every other layer's: net.accepted,
// net.refused (over max_conns), net.served, net.batches, net.rejected
// (admission), net.parse_errors, net.reloads, the net.batch_size
// histogram (query lines per batch, malformed ones included), and for the
// split:
//   net.deferred          counter: queries handed to the cold lane
//   net.cold_queue_depth  gauge: lane jobs (queries, reloads) not yet
//                         answered
//   net.buffered_bytes    gauge: unsent plus held reply bytes over all
//                         connections
//   net.loop_batch_ns     histogram: wall time of each batch's inline
//                         part (parse and run_resident) on the loop
//                         thread
// The "stats" line returns them with the rest of the registry.
//
// Shutdown: stop() is async-signal-safe (one eventfd write), so SIGTERM/
// SIGINT handlers can call it directly; the loop then executes the still-
// pending batch, waits for the cold lane to answer what it holds, flushes
// every connection's responses best-effort and returns from run(). All
// sends use MSG_NOSIGNAL: a client that vanished mid-response costs an
// EPIPE on that connection, never a process-killing SIGPIPE.
#ifndef MCSM_NET_SERVER_H
#define MCSM_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotations.h"
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
    // Admission: cap on queries pending or on the cold lane; excess
    // queries get "err <id> busy".
    std::size_t max_pending = 1 << 16;
    // Longest accepted request line, terminated or not. A connection that
    // sends a longer one gets "err 0 line too long" and is closed (no way
    // to resync a line protocol mid-line). batch_max * max_line also
    // bounds each connection's buffered replies (see Output bound).
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

    // Runs the event loop, and the cold lane's thread, until stop().
    void run();

    // Requests run() to wind down: flush the pending batch, answer what
    // the cold lane holds, best-effort drain of response buffers, return.
    // Async-signal-safe; callable from any thread and from SIGTERM/SIGINT
    // handlers.
    void stop();

private:
    struct Conn;
    // Where a reply goes: its connection and its place in that
    // connection's request order. A null conn marks the reload_poll_ms
    // timer's refresh, which answers nobody.
    struct Pending {
        std::shared_ptr<Conn> conn;
        std::uint64_t id = 0;     // query id (0 for a reload)
        std::uint64_t reply = 0;  // reply number on conn
        // A pending query's line: [text_at, text_at + text_len) of
        // pending_text_, parsed when the batch runs.
        std::size_t text_at = 0;
        std::size_t text_len = 0;
    };
    // Cold-lane work: one query, or (reload) one pack refresh.
    struct LaneJob {
        serve::TimingQuery query;
        bool reload = false;
    };
    // A lane answer: the query's result, or the reload's reply line.
    struct LaneDone {
        serve::TimingResult result;
        std::string reload_reply;
    };

    void accept_ready(int listen_fd);
    void conn_readable(const std::shared_ptr<Conn>& conn);
    // Handles the complete lines buffered in conn->in, stopping early
    // (paused) while the connection's output is over the bound.
    void handle_lines(const std::shared_ptr<Conn>& conn);
    void handle_line(const std::shared_ptr<Conn>& conn,
                     std::string_view line);
    // Parses the pending batch's lines, answers its resident queries
    // inline and hands the rest to the cold lane. Answers append to the
    // connection buffers and flush ONCE per connection, so a batch costs
    // O(connections) send() calls, not O(queries).
    void run_pending_batch();
    void submit_to_lane(LaneJob job, Pending route);
    // Places every answer the lane posted, in each connection's order.
    void collect_lane();
    // Body of the cold lane's thread.
    void lane_loop();
    // Places the connection's next reply (newline appended) in request
    // order and flushes: control replies and busy rejections.
    void respond(const std::shared_ptr<Conn>& conn, std::string_view line);
    void try_flush(const std::shared_ptr<Conn>& conn);
    void close_conn(const std::shared_ptr<Conn>& conn);
    void update_epoll(Conn& conn);
    int loop_timeout_ms() const;

    serve::TimingService* service_;
    NetServerOptions options_;
    // Per-connection output bound [bytes]: batch_max * max_line.
    std::size_t output_bound_ = 0;

    int epoll_fd_ = -1;
    int wake_fd_ = -1;   // eventfd; stop() and the cold lane write it
    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = -1;

    std::atomic<bool> stopping_{false};

    // Loop-thread state (never touched concurrently).
    std::vector<std::shared_ptr<Conn>> conns_;
    std::vector<Pending> pending_;
    std::vector<Pending> batch_;  // the running batch (keeps its buffer)
    std::string pending_text_;    // the pending queries' lines, back to back
    // Per-slot batch state, at most batch_max slots that keep their
    // buffers across batches: line_errors_[i] is batch_[i]'s parse error
    // (empty when it parsed); queries_ holds the parsed queries, moved to
    // the front in batch order, and results_ their answers.
    std::vector<std::string> line_errors_;
    std::vector<serve::TimingQuery> queries_;
    std::vector<serve::TimingResult> results_;
    // One route per job handed to the lane, in submission order (the lane
    // answers in that order).
    std::deque<Pending> lane_routes_;
    std::size_t deferred_ = 0;  // queries on the lane (count as pending)
    std::size_t buffered_ = 0;  // net.buffered_bytes, summed over conns_
    bool poll_reload_queued_ = false;  // the timer's refresh is on the lane
    // Paused connections whose output drained: their buffered lines are
    // handled at the end of the loop iteration.
    std::vector<std::shared_ptr<Conn>> resumed_;
    std::chrono::steady_clock::time_point batch_deadline_{};
    std::chrono::steady_clock::time_point next_reload_{};

    // Shared with the cold lane's thread.
    Mutex lane_mutex_;
    std::condition_variable_any lane_cv_;
    std::vector<LaneJob> lane_jobs_ MCSM_GUARDED_BY(lane_mutex_);
    std::vector<LaneDone> lane_done_ MCSM_GUARDED_BY(lane_mutex_);
    bool lane_stop_ MCSM_GUARDED_BY(lane_mutex_) = false;
    std::thread lane_;
};

}  // namespace mcsm::net

#endif  // MCSM_NET_SERVER_H
