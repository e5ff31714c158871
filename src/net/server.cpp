#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <span>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"
#include "net/query_text.h"
#include "obs/metrics.h"
#include "spice/ekv_lanes.h"

namespace mcsm::net {

namespace {

void set_nonblocking(int fd) {
    // All sockets run nonblocking: the loop must never sleep inside a
    // read/write, only in epoll_wait.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    require(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
            "NetServer: cannot set O_NONBLOCK");
}

}  // namespace

struct NetServer::Conn {
    int fd = -1;
    std::string in;   // unconsumed request bytes
    // Response bytes; [out_sent, out.size()) is still unsent. The offset
    // (instead of erase-from-front) keeps partial sends O(1); the buffer
    // resets once fully drained.
    std::string out;
    std::size_t out_sent = 0;
    std::uint64_t seq = 0;  // queries received (the response ids)
    // Replies are numbered in request order: `replies` numbers issued,
    // `placed` of them appended to `out`. A reply ready before an earlier
    // one waits in `held`, keyed by its number.
    std::uint64_t replies = 0;
    std::uint64_t placed = 0;
    std::map<std::uint64_t, std::string> held;
    std::size_t held_bytes = 0;
    std::size_t counted = 0;         // this conn's share of buffered_
    std::uint32_t events = EPOLLIN;  // registered epoll interest
    bool eof = false;     // peer half-closed; close once answered
    bool paused = false;  // reading stopped: output over the bound

    bool drained() const { return out_sent >= out.size(); }
    std::size_t buffered() const {
        return out.size() - out_sent + held_bytes;
    }
    // Every reply owed so far is on the wire.
    bool answered() const { return placed == replies && drained(); }

    // Places reply `r`, which write(s) appends to s: straight onto `out`
    // when every earlier reply is placed (no allocation), else held until
    // they are.
    template <typename Write>
    void place(std::uint64_t r, Write&& write) {
        if (r != placed) {
            std::string line;
            write(line);
            held_bytes += line.size();
            held.emplace(r, std::move(line));
            return;
        }
        write(out);
        ++placed;
        for (auto it = held.begin(); it != held.end() && it->first == placed;
             it = held.erase(it)) {
            out += it->second;
            held_bytes -= it->second.size();
            ++placed;
        }
    }
};

NetServer::NetServer(serve::TimingService& service, NetServerOptions options)
    : service_(&service), options_(std::move(options)) {
    require(options_.batch_max >= 1, "NetServer: batch_max must be >= 1");
    require(options_.max_line >= 64, "NetServer: max_line must be >= 64");
    require(!options_.unix_path.empty() || options_.tcp_port >= 0,
            "NetServer: no listener configured (unix_path or tcp_port)");
    output_bound_ = options_.batch_max * options_.max_line;

    // Register the solver's dispatched lane width up front so the `stats`
    // snapshot reports it even when the serve tier never builds a solver
    // workspace (pure pack serving).
    obs::gauge("solver.simd.width").set(spice::ekv_lane_width());

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    require(epoll_fd_ >= 0, "NetServer: epoll_create1 failed");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    require(wake_fd_ >= 0, "NetServer: eventfd failed");
    // The epoll payload is always data.ptr: member addresses mark the
    // wake eventfd and the listeners, a Conn* marks a connection -- no
    // fd/ptr union ambiguity.
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = &wake_fd_;
    require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
            "NetServer: epoll_ctl(wake) failed");

    const auto add_listener = [&](int fd, int* marker) {
        set_nonblocking(fd);
        require(::listen(fd, 64) == 0, "NetServer: listen failed");
        epoll_event lev{};
        lev.events = EPOLLIN;
        lev.data.ptr = marker;
        require(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &lev) == 0,
                "NetServer: epoll_ctl(listener) failed");
    };

    if (!options_.unix_path.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        require(options_.unix_path.size() < sizeof(addr.sun_path),
                "NetServer: unix socket path too long: " +
                    options_.unix_path);
        std::memcpy(addr.sun_path, options_.unix_path.c_str(),
                    options_.unix_path.size() + 1);
        unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        require(unix_fd_ >= 0, "NetServer: socket(AF_UNIX) failed");
        // A previous server that crashed leaves the socket file behind;
        // bind would fail with EADDRINUSE on the stale path.
        ::unlink(options_.unix_path.c_str());
        require(::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "NetServer: bind failed for " + options_.unix_path);
        add_listener(unix_fd_, &unix_fd_);
    }
    if (options_.tcp_port >= 0) {
        tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        require(tcp_fd_ >= 0, "NetServer: socket(AF_INET) failed");
        const int one = 1;
        ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(options_.tcp_port));
        require(::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr),
                       sizeof addr) == 0,
                "NetServer: TCP bind failed on port " +
                    std::to_string(options_.tcp_port));
        socklen_t len = sizeof addr;
        require(::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr),
                              &len) == 0,
                "NetServer: getsockname failed");
        tcp_port_ = ntohs(addr.sin_port);
        add_listener(tcp_fd_, &tcp_fd_);
    }
}

NetServer::~NetServer() {
    for (const auto& conn : conns_)
        if (conn->fd >= 0) ::close(conn->fd);
    if (unix_fd_ >= 0) ::close(unix_fd_);
    if (tcp_fd_ >= 0) ::close(tcp_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (!options_.unix_path.empty())
        ::unlink(options_.unix_path.c_str());
}

void NetServer::stop() {
    stopping_.store(true, std::memory_order_release);
    // One counter write; async-signal-safe, so SIGTERM handlers may call
    // stop() directly.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof one);
}

void NetServer::update_epoll(Conn& conn) {
    // A paused or half-closed peer is not read (level-triggered EOF would
    // wake the loop on every pass until the cold lane answers it).
    const std::uint32_t events = (conn.paused || conn.eof ? 0u : EPOLLIN) |
                                 (conn.drained() ? 0u : EPOLLOUT);
    if (conn.fd < 0 || conn.events == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = &conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
        conn.events = events;
}

void NetServer::try_flush(const std::shared_ptr<Conn>& conn) {
    static obs::Gauge& buffered = obs::gauge("net.buffered_bytes");
    while (conn->fd >= 0 && !conn->drained()) {
        // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE on this
        // connection instead of a process-wide SIGPIPE.
        const ssize_t n =
            ::send(conn->fd, conn->out.data() + conn->out_sent,
                   conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
        if (n > 0) {
            conn->out_sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        close_conn(conn);  // EPIPE/ECONNRESET/...: peer is gone
        return;
    }
    if (conn->drained()) {
        conn->out.clear();
        conn->out_sent = 0;
    }
    if (conn->fd < 0) return;
    buffered_ = buffered_ - conn->counted + conn->buffered();
    conn->counted = conn->buffered();
    buffered.set(static_cast<long long>(buffered_));
    if (conn->paused && conn->buffered() == 0) {
        conn->paused = false;
        resumed_.push_back(conn);
    }
    update_epoll(*conn);
    // Half-closed peer: close once every reply it is owed is on the wire.
    if (conn->eof && conn->answered()) close_conn(conn);
}

void NetServer::respond(const std::shared_ptr<Conn>& conn,
                        std::string_view line) {
    conn->place(conn->replies++, [&](std::string& out) {
        out += line;
        out += '\n';
    });
    try_flush(conn);
}

void NetServer::close_conn(const std::shared_ptr<Conn>& conn) {
    if (conn->fd < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
    buffered_ -= conn->counted;
    conn->counted = 0;
    obs::gauge("net.buffered_bytes").set(static_cast<long long>(buffered_));
    conn->held.clear();
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
        if (it->get() == conn.get()) {
            conns_.erase(it);
            break;
        }
    }
    // Entries of this conn still pending or on the cold lane keep their
    // shared_ptr; their answers are dropped on the floor.
}

void NetServer::accept_ready(int listen_fd) {
    for (;;) {
        const int fd = ::accept4(listen_fd, nullptr, nullptr,
                                 SOCK_CLOEXEC | SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR) continue;
            return;  // EAGAIN or transient accept error: back to the loop
        }
        if (conns_.size() >= options_.max_conns) {
            obs::counter("net.refused").add();
            const char msg[] = "err 0 busy: connection limit reached\n";
            [[maybe_unused]] const ssize_t n =
                ::send(fd, msg, sizeof msg - 1, MSG_NOSIGNAL);
            ::close(fd);
            continue;
        }
        if (listen_fd == tcp_fd_) {
            const int one = 1;
            // Responses are small and latency-bound; never Nagle them.
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = conn.get();
        if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            ::close(fd);
            continue;
        }
        conns_.push_back(std::move(conn));
        obs::counter("net.accepted").add();
    }
}

void NetServer::handle_line(const std::shared_ptr<Conn>& conn,
                            std::string_view line) {
    if (line.empty()) return;
    if (line == "flush") {
        run_pending_batch();
        return;
    }
    if (line == "ping") {
        respond(conn, "pong");
        return;
    }
    if (line == "stats") {
        const std::string json = obs::snapshot().to_json();
        // Length-prefixed: the JSON payload spans lines.
        std::string reply = "stats ";
        reply += std::to_string(json.size());
        reply += '\n';
        reply += json;
        respond(conn, reply);
        return;
    }
    if (line == "reload") {
        if (!options_.pack) {
            respond(conn, "err 0 reload: no pack configured");
            return;
        }
        submit_to_lane(LaneJob{{}, true}, Pending{conn, 0, conn->replies++});
        return;
    }

    // A blank or comment line (parse_query_line's rule: no first token, or
    // one starting with '#') gets no response and consumes no id.
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string_view::npos || line[first] == '#') return;
    // Everything else is a query line; it consumes one sequence id so the
    // client can correlate responses even across errors. It is parsed when
    // its batch runs.
    const std::uint64_t id = ++conn->seq;
    if (pending_.size() + deferred_ >= options_.max_pending) {
        obs::counter("net.rejected").add();
        std::string reply = "err ";
        reply += std::to_string(id);
        reply += " busy: server at max_pending, retry later";
        respond(conn, reply);
        return;
    }
    if (pending_.empty())
        batch_deadline_ = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.linger_us);
    pending_.push_back(
        {conn, id, conn->replies++, pending_text_.size(), line.size()});
    pending_text_ += line;
    if (pending_.size() >= options_.batch_max) run_pending_batch();
}

void NetServer::run_pending_batch() {
    // EOF-triggered and timer-triggered flushes race an already-empty
    // queue; never pay a batch for zero queries.
    if (pending_.empty()) return;
    static obs::Counter& batches = obs::counter("net.batches");
    static obs::Counter& served = obs::counter("net.served");
    static obs::Counter& parse_errors = obs::counter("net.parse_errors");
    static obs::Histogram& batch_size = obs::histogram("net.batch_size");
    static obs::Histogram& loop_batch_ns =
        obs::histogram("net.loop_batch_ns");
    batch_.swap(pending_);
    const std::size_t n = batch_.size();
    if (queries_.size() < n) {
        queries_.resize(n);
        line_errors_.resize(n);
    }
    batches.add();
    batch_size.observe(static_cast<double>(n));
    const std::uint64_t t0 = obs::now_ns();
    // The lines parse in the batch's own fan-out, in chunks of kGrain:
    // parsing one takes well under a microsecond, so a batch smaller than
    // a chunk stays on this thread. A line that does not parse leaves its
    // message in line_errors_ (parse errors always carry one).
    constexpr std::size_t kGrain = 64;
    parallel_for(
        (n + kGrain - 1) / kGrain,
        [&](std::size_t chunk) {
            const std::size_t end = std::min(n, (chunk + 1) * kGrain);
            for (std::size_t i = chunk * kGrain; i < end; ++i) {
                const std::string_view line(
                    pending_text_.data() + batch_[i].text_at,
                    batch_[i].text_len);
                line_errors_[i].clear();
                try {
                    parse_query_line(line, queries_[i]);
                } catch (const std::exception& e) {
                    line_errors_[i] = e.what();
                }
            }
        },
        service_->options().threads);
    pending_text_.clear();
    // Only parsed queries reach the service: they move to the front in
    // batch order (swaps keep every slot's buffers).
    std::size_t parsed = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (!line_errors_[i].empty()) continue;
        if (parsed != i) std::swap(queries_[parsed], queries_[i]);
        ++parsed;
    }
    const std::vector<std::size_t> cold =
        parsed == 0 ? std::vector<std::size_t>{}
                    : service_->run_resident(
                          std::span<const serve::TimingQuery>(
                              queries_.data(), parsed),
                          results_);
    loop_batch_ns.observe(static_cast<double>(obs::now_ns() - t0));
    // Slot i's query is queries_[k], k counting the slots that parsed;
    // `cold` lists, ascending, the k the lane answers.
    std::size_t k = 0;
    std::size_t next_cold = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Pending& p = batch_[i];
        if (!line_errors_[i].empty()) {
            parse_errors.add();
            if (p.conn->fd < 0) continue;
            p.conn->place(p.reply, [&](std::string& out) {
                out += "err ";
                out += std::to_string(p.id);
                out += ' ';
                out += line_errors_[i];
                out += '\n';
            });
            continue;
        }
        const std::size_t q = k++;
        if (next_cold < cold.size() && cold[next_cold] == q) {
            ++next_cold;
            if (p.conn->fd >= 0)
                submit_to_lane(LaneJob{queries_[q], false}, std::move(p));
            continue;
        }
        if (p.conn->fd < 0) continue;  // disconnected while queued
        p.conn->place(p.reply, [&](std::string& out) {
            append_result_line(out, p.id, results_[q]);
            out += '\n';
        });
    }
    served.add(static_cast<long long>(parsed - cold.size()));
    batch_.clear();
    // ONE flush per connection for the whole batch (answers were only
    // placed above); this also closes half-closed peers whose last
    // responses just materialized.
    for (std::size_t i = conns_.size(); i > 0; --i) {
        const std::shared_ptr<Conn> conn = conns_[i - 1];
        if (conn->buffered() != conn->counted || conn->eof) try_flush(conn);
    }
}

void NetServer::submit_to_lane(LaneJob job, Pending route) {
    static obs::Counter& deferred = obs::counter("net.deferred");
    static obs::Gauge& depth = obs::gauge("net.cold_queue_depth");
    if (!job.reload) {
        ++deferred_;
        deferred.add();
    }
    lane_routes_.push_back(std::move(route));
    depth.set(static_cast<long long>(lane_routes_.size()));
    {
        MutexLock lock(lane_mutex_);
        lane_jobs_.push_back(std::move(job));
    }
    lane_cv_.notify_one();
}

void NetServer::collect_lane() {
    static obs::Counter& served = obs::counter("net.served");
    static obs::Gauge& depth = obs::gauge("net.cold_queue_depth");
    std::vector<LaneDone> done;
    {
        MutexLock lock(lane_mutex_);
        done.swap(lane_done_);
    }
    for (LaneDone& d : done) {
        const Pending route = std::move(lane_routes_.front());
        lane_routes_.pop_front();
        const bool query = route.id != 0;
        if (query) {
            --deferred_;
            served.add();
        }
        if (!route.conn) {
            poll_reload_queued_ = false;
            continue;
        }
        if (route.conn->fd < 0) continue;  // disconnected meanwhile
        route.conn->place(route.reply, [&](std::string& out) {
            if (query)
                append_result_line(out, route.id, d.result);
            else
                out += d.reload_reply;
            out += '\n';
        });
        try_flush(route.conn);
    }
    depth.set(static_cast<long long>(lane_routes_.size()));
}

// Condition-variable wait: the lock travels through std::unique_lock, which
// the thread-safety analysis cannot follow (see ThreadPool::worker_loop).
void NetServer::lane_loop() MCSM_NO_THREAD_SAFETY_ANALYSIS {
    std::vector<LaneJob> jobs;
    std::vector<serve::TimingQuery> queries;
    for (;;) {
        {
            std::unique_lock<Mutex> lock(lane_mutex_);
            lane_cv_.wait(lock,
                          [this] { return lane_stop_ || !lane_jobs_.empty(); });
            if (lane_jobs_.empty()) return;  // stopping, nothing left
            jobs.swap(lane_jobs_);
        }
        // Everything queued runs as one blocking batch; pack refreshes
        // follow it.
        queries.clear();
        for (LaneJob& job : jobs)
            if (!job.reload) queries.push_back(std::move(job.query));
        std::vector<serve::TimingResult> results;
        if (!queries.empty()) {
            try {
                results = service_->run_batch(queries);
            } catch (const std::exception& e) {
                results.assign(queries.size(), serve::TimingResult{});
                for (serve::TimingResult& r : results) r.error = e.what();
            }
        }
        std::vector<LaneDone> done(jobs.size());
        for (std::size_t j = 0, k = 0; j < jobs.size(); ++j) {
            if (!jobs[j].reload) {
                done[j].result = std::move(results[k++]);
                continue;
            }
            bool swapped = false;
            try {
                swapped = options_.pack->refresh();
            } catch (const std::exception&) {
                // A failed refresh keeps the current mapping serving.
            }
            if (swapped) obs::counter("net.reloads").add();
            done[j].reload_reply = swapped ? "reload ok " : "reload noop ";
            done[j].reload_reply += std::to_string(options_.pack->generation());
        }
        jobs.clear();
        {
            MutexLock lock(lane_mutex_);
            for (LaneDone& d : done) lane_done_.push_back(std::move(d));
        }
        const std::uint64_t one = 1;
        [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
    }
}

void NetServer::handle_lines(const std::shared_ptr<Conn>& conn) {
    std::size_t start = 0;
    while (conn->fd >= 0) {
        if (conn->buffered() > output_bound_) {
            // The client is not reading its replies: take no more of its
            // lines until they drained (try_flush resumes it).
            conn->paused = true;
            update_epoll(*conn);
            break;
        }
        const std::size_t nl = conn->in.find('\n', start);
        // The cap holds for every line, terminated or not, so the outcome
        // never depends on how the kernel split the bytes. Past it the
        // framing cannot be trusted and there is no way to resync: tell
        // the peer, ahead of any reply still owed, and hang up.
        const std::size_t end =
            nl == std::string::npos ? conn->in.size() : nl;
        if (end - start > options_.max_line) {
            conn->out += "err 0 line too long\n";
            try_flush(conn);
            close_conn(conn);
            return;
        }
        if (nl == std::string::npos) break;
        std::string_view line(conn->in.data() + start, nl - start);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        start = nl + 1;
        handle_line(conn, line);
    }
    conn->in.erase(0, start);
}

void NetServer::conn_readable(const std::shared_ptr<Conn>& conn) {
    char buf[16384];
    handle_lines(conn);  // lines left over from a pause
    for (;;) {
        if (conn->fd < 0 || conn->paused) return;
        const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn->in.append(buf, static_cast<std::size_t>(n));
            handle_lines(conn);
            continue;
        }
        if (n == 0) {
            // Peer half-closed: its last (possibly unterminated) partial
            // line is dropped, its pending queries still run, and the
            // connection closes once the responses drained.
            conn->eof = true;
            run_pending_batch();
            if (conn->fd >= 0) try_flush(conn);
            return;
        }
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        close_conn(conn);
        return;
    }
}

int NetServer::loop_timeout_ms() const {
    const auto now = std::chrono::steady_clock::now();
    long timeout = -1;
    if (!pending_.empty()) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              batch_deadline_ - now)
                              .count();
        timeout = left < 0 ? 0 : left;
    }
    if (options_.pack && options_.reload_poll_ms > 0) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              next_reload_ - now)
                              .count();
        const long reload = left < 0 ? 0 : left;
        timeout = timeout < 0 ? reload : std::min(timeout, reload);
    }
    if (timeout > 1000) timeout = 1000;  // bounded wake-up for stop()
    return static_cast<int>(timeout);
}

void NetServer::run() {
    // The cold lane lives exactly as long as run(): joined on every way
    // out, after it answered everything queued.
    lane_ = std::thread([this] { lane_loop(); });
    struct LaneJoin {
        NetServer* server;
        ~LaneJoin() {
            {
                MutexLock lock(server->lane_mutex_);
                server->lane_stop_ = true;
            }
            server->lane_cv_.notify_all();
            server->lane_.join();
        }
    } lane_join{this};

    next_reload_ = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(options_.reload_poll_ms);
    epoll_event events[64];
    while (!stopping_.load(std::memory_order_acquire)) {
        const int n =
            ::epoll_wait(epoll_fd_, events, 64, loop_timeout_ms());
        if (n < 0) {
            if (errno == EINTR) continue;
            throw ModelError("NetServer: epoll_wait failed");
        }
        for (int i = 0; i < n; ++i) {
            const epoll_event& ev = events[i];
            if (ev.data.ptr == &wake_fd_) {
                std::uint64_t drain = 0;
                [[maybe_unused]] const ssize_t r =
                    ::read(wake_fd_, &drain, sizeof drain);
                collect_lane();
                continue;
            }
            if (ev.data.ptr == &unix_fd_ || ev.data.ptr == &tcp_fd_) {
                accept_ready(*static_cast<int*>(ev.data.ptr));
                continue;
            }
            // Connection event: find the owning shared_ptr (the epoll
            // payload is the raw Conn*; conns_ is small).
            std::shared_ptr<Conn> conn;
            for (const auto& c : conns_)
                if (c.get() == ev.data.ptr) {
                    conn = c;
                    break;
                }
            if (!conn) continue;  // closed earlier this wake-up
            if (ev.events & (EPOLLHUP | EPOLLERR)) {
                conn->eof = true;
                conn_readable(conn);  // drain what the kernel still has
                // A paused peer that hung up will never read its backlog.
                if (conn->fd >= 0 && (conn->drained() || conn->paused))
                    close_conn(conn);
                continue;
            }
            if (ev.events & EPOLLIN) conn_readable(conn);
            if (conn->fd >= 0 && (ev.events & EPOLLOUT)) try_flush(conn);
        }
        const auto now = std::chrono::steady_clock::now();
        if (!pending_.empty() && now >= batch_deadline_)
            run_pending_batch();
        if (options_.pack && options_.reload_poll_ms > 0 &&
            now >= next_reload_) {
            if (!poll_reload_queued_) {
                poll_reload_queued_ = true;
                submit_to_lane(LaneJob{{}, true}, Pending{});
            }
            next_reload_ =
                now + std::chrono::milliseconds(options_.reload_poll_ms);
        }
        while (!resumed_.empty()) {
            std::vector<std::shared_ptr<Conn>> ready;
            ready.swap(resumed_);
            for (const std::shared_ptr<Conn>& conn : ready)
                conn_readable(conn);
        }
    }
    // Graceful wind-down: answer what was already submitted, the cold
    // lane's share included, push the bytes out best-effort, then let the
    // destructor close everything.
    run_pending_batch();
    while (!lane_routes_.empty()) {
        pollfd wake{wake_fd_, POLLIN, 0};
        if (::poll(&wake, 1, -1) < 0 && errno != EINTR)
            throw ModelError("NetServer: poll failed");
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drain, sizeof drain);
        collect_lane();
    }
    for (std::size_t i = conns_.size(); i > 0; --i) try_flush(conns_[i - 1]);
}

}  // namespace mcsm::net
