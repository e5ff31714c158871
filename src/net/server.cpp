#include "net/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.h"
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
    std::uint64_t seq = 0;     // queries received (the response ids)
    std::uint64_t queued = 0;  // queries of this conn in pending_
    bool eof = false;          // peer half-closed; close once drained
    bool want_write = false;   // EPOLLOUT currently armed

    bool drained() const { return out_sent >= out.size(); }
};

NetServer::NetServer(serve::TimingService& service, NetServerOptions options)
    : service_(&service), options_(std::move(options)) {
    require(options_.batch_max >= 1, "NetServer: batch_max must be >= 1");
    require(options_.max_line >= 64, "NetServer: max_line must be >= 64");
    require(!options_.unix_path.empty() || options_.tcp_port >= 0,
            "NetServer: no listener configured (unix_path or tcp_port)");

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

void NetServer::update_epoll(const std::shared_ptr<Conn>& conn,
                             bool want_write) {
    if (conn->fd < 0 || conn->want_write == want_write) return;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev) == 0)
        conn->want_write = want_write;
}

void NetServer::try_flush(const std::shared_ptr<Conn>& conn) {
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
    update_epoll(conn, !conn->drained());
    // Half-closed peer: close once every response is on the wire and no
    // query of this connection is still waiting in the pending batch.
    if (conn->eof && conn->drained() && conn->queued == 0)
        close_conn(conn);
}

void NetServer::respond(const std::shared_ptr<Conn>& conn,
                        std::string_view line) {
    if (conn->fd < 0) return;  // disconnected while its batch ran
    conn->out += line;
    conn->out += '\n';
    try_flush(conn);
}

void NetServer::close_conn(const std::shared_ptr<Conn>& conn) {
    if (conn->fd < 0) return;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    ::close(conn->fd);
    conn->fd = -1;
    for (auto it = conns_.begin(); it != conns_.end(); ++it) {
        if (it->get() == conn.get()) {
            conns_.erase(it);
            break;
        }
    }
    // Entries of this conn still in pending_ keep their shared_ptr; the
    // batch runs them and respond() drops the answers on the floor.
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
    if (line.empty() || line == "ping") {
        if (line == "ping") respond(conn, "pong");
        return;
    }
    if (line == "flush") {
        run_pending_batch();
        return;
    }
    if (line == "stats") {
        const std::string json = obs::snapshot().to_json();
        // Length-prefixed: the JSON payload spans lines.
        respond(conn, "stats " + std::to_string(json.size()) + "\n" + json);
        return;
    }
    if (line == "reload") {
        if (!options_.pack) {
            respond(conn, "err 0 reload: no pack configured");
            return;
        }
        const bool swapped = options_.pack->refresh();
        respond(conn, std::string("reload ") + (swapped ? "ok " : "noop ") +
                          std::to_string(options_.pack->generation()));
        if (swapped) obs::counter("net.reloads").add();
        return;
    }

    // Everything else is a query line; it consumes one sequence id so the
    // client can correlate responses even across errors.
    const std::uint64_t id = ++conn->seq;
    if (pending_.size() >= options_.max_pending) {
        obs::counter("net.rejected").add();
        respond(conn, "err " + std::to_string(id) +
                          " busy: server at max_pending, retry later");
        return;
    }
    if (queries_.size() == pending_.size()) queries_.emplace_back();
    try {
        if (!parse_query_line(line, queries_[pending_.size()])) {
            --conn->seq;  // blank/comment: no response, no id consumed
            return;
        }
    } catch (const std::exception& e) {
        obs::counter("net.parse_errors").add();
        respond(conn,
                "err " + std::to_string(id) + " " + std::string(e.what()));
        return;
    }
    if (pending_.empty())
        batch_deadline_ = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(options_.linger_us);
    ++conn->queued;
    pending_.push_back({conn, id});
    if (pending_.size() >= options_.batch_max) run_pending_batch();
}

void NetServer::run_pending_batch() {
    // EOF-triggered and timer-triggered flushes race an already-empty
    // queue; never pay a run_batch() for zero queries.
    if (pending_.empty()) return;
    std::vector<Pending> batch;
    batch.swap(pending_);
    const std::span<const serve::TimingQuery> queries(queries_.data(),
                                                      batch.size());
    obs::counter("net.batches").add();
    obs::histogram("net.batch_size")
        .observe(static_cast<double>(queries.size()));
    const std::vector<serve::TimingResult> results =
        service_->run_batch(queries);
    for (std::size_t i = 0; i < results.size(); ++i) {
        Conn& conn = *batch[i].conn;
        --conn.queued;
        if (conn.fd < 0) continue;  // disconnected while the batch ran
        append_result_line(conn.out, batch[i].seq, results[i]);
        conn.out += '\n';
    }
    obs::counter("net.served").add(static_cast<long long>(results.size()));
    // ONE flush per connection for the whole batch (responses were only
    // appended above); this also closes half-closed peers whose last
    // responses just materialized.
    for (std::size_t i = conns_.size(); i > 0; --i) {
        const std::shared_ptr<Conn> conn = conns_[i - 1];
        if (!conn->drained() || conn->eof) try_flush(conn);
    }
}

void NetServer::conn_readable(const std::shared_ptr<Conn>& conn) {
    char buf[16384];
    for (;;) {
        if (conn->fd < 0) return;
        const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
        if (n > 0) {
            conn->in.append(buf, static_cast<std::size_t>(n));
            std::size_t start = 0;
            for (;;) {
                const std::size_t nl = conn->in.find('\n', start);
                // The cap holds for every line, terminated or not, so the
                // outcome never depends on how the kernel split the bytes.
                // Past it the framing cannot be trusted and there is no way
                // to resync: tell the peer and hang up.
                const std::size_t end =
                    nl == std::string::npos ? conn->in.size() : nl;
                if (end - start > options_.max_line) {
                    respond(conn, "err 0 line too long");
                    close_conn(conn);
                    return;
                }
                if (nl == std::string::npos) break;
                std::string_view line(conn->in.data() + start, nl - start);
                if (!line.empty() && line.back() == '\r')
                    line.remove_suffix(1);
                start = nl + 1;
                handle_line(conn, line);
                if (conn->fd < 0) return;
            }
            conn->in.erase(0, start);
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
                if (conn->fd >= 0 && conn->drained()) close_conn(conn);
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
            if (options_.pack->refresh()) obs::counter("net.reloads").add();
            next_reload_ =
                now + std::chrono::milliseconds(options_.reload_poll_ms);
        }
    }
    // Graceful wind-down: answer what was already submitted, push the
    // bytes out best-effort, then let the destructor close everything.
    run_pending_batch();
    for (std::size_t i = conns_.size(); i > 0; --i) try_flush(conns_[i - 1]);
}

}  // namespace mcsm::net
