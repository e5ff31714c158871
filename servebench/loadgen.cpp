#include "loadgen.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <ctime>
#include <deque>
#include <stdexcept>
#include <string_view>

#include "net/client.h"
#include "stats.h"

namespace servebench {

namespace {

// No drain may take longer than this after the window closes: a server
// that stops answering fails the run instead of hanging it.
constexpr double kDrainLimitS = 60.0;

struct Conn {
    mcsm::net::LineClient client;
    int fd = -1;
    std::string out;
    std::size_t out_sent = 0;
    std::string in;
    struct Pending {
        std::size_t line = 0;
        double t0 = 0.0;  // send time (closed loop) or due time (open loop)
        bool measured = false;
    };
    std::deque<Pending> pending;
    std::uint64_t answers = 0;  // ids are 1-based per connection

    explicit Conn(mcsm::net::LineClient c)
        : client(std::move(c)), fd(client.fd()) {
        const int flags = ::fcntl(fd, F_GETFL, 0);
        if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0)
            throw std::runtime_error("loadgen: cannot set O_NONBLOCK");
    }

    void queue(const Line& line, std::size_t index, double t0,
               bool measured) {
        out += line.text;
        out += '\n';
        pending.push_back({index, t0, measured});
    }

    void flush() {
        while (out_sent < out.size()) {
            const ssize_t n = ::send(fd, out.data() + out_sent,
                                     out.size() - out_sent, MSG_NOSIGNAL);
            if (n > 0) {
                out_sent += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
            throw std::runtime_error("loadgen: send failed");
        }
        out.clear();
        out_sent = 0;
    }

    bool want_write() const { return out_sent < out.size(); }
};

std::vector<Conn> connect_all(const std::string& path, std::size_t n) {
    std::vector<Conn> conns;
    conns.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        conns.emplace_back(mcsm::net::LineClient::connect_unix(path));
    return conns;
}

// Checks one answer line against the oldest pending query of `c`; returns
// that query. Problems are counted into `res`, never thrown: a wrong answer
// fails the run through the result, after the stream drained.
Conn::Pending take_answer(Conn& c, std::string_view text,
                          const std::vector<Line>& lines, StreamResult& res) {
    if (c.pending.empty())
        throw std::runtime_error("loadgen: answer without a pending query");
    const Conn::Pending p = c.pending.front();
    c.pending.pop_front();
    ++c.answers;
    const bool ok = text.rfind("ok ", 0) == 0;
    const std::size_t id_at = ok ? 3 : 4;
    const std::size_t id_end = text.find(' ', id_at);
    const std::string_view id =
        text.substr(id_at, id_end == std::string_view::npos
                               ? std::string_view::npos
                               : id_end - id_at);
    const auto note = [&](std::size_t& counter) {
        ++counter;
        if (res.first_problem.empty())
            res.first_problem = std::string(text) + "  <- " + lines[p.line].text;
    };
    if (!ok) {
        note(res.failed);
    } else if (id != std::to_string(c.answers) ||
               id_end == std::string_view::npos) {
        note(res.mismatched);
    } else if (!lines[p.line].expect.empty() &&
               text.substr(id_end) != lines[p.line].expect) {
        note(res.mismatched);
    }
    return p;
}

// Reads every available byte of `c` and hands each complete line to `on`.
template <typename F>
void read_answers(Conn& c, F&& on) {
    char buf[65536];
    for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        throw std::runtime_error("loadgen: server closed the connection");
    }
    std::size_t start = 0;
    for (;;) {
        const std::size_t nl = c.in.find('\n', start);
        if (nl == std::string::npos) break;
        on(std::string_view(c.in.data() + start, nl - start));
        start = nl + 1;
    }
    c.in.erase(0, start);
}

void wait_io(std::vector<Conn>& conns, double timeout_s) {
    std::vector<pollfd> fds(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
        fds[i].fd = conns[i].fd;
        fds[i].events = POLLIN;
        if (conns[i].want_write()) fds[i].events |= POLLOUT;
    }
    timeout_s = std::clamp(timeout_s, 0.0, 0.05);
    timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = static_cast<long>(timeout_s * 1e9);
    const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n < 0 && errno != EINTR)
        throw std::runtime_error("loadgen: ppoll failed");
}

bool all_drained(const std::vector<Conn>& conns) {
    return std::all_of(conns.begin(), conns.end(), [](const Conn& c) {
        return c.pending.empty() && !c.want_write();
    });
}

}  // namespace

StreamResult run_closed_loop(const std::string& socket_path,
                             const std::vector<Line>& lines,
                             const ClosedLoopSpec& spec) {
    StreamResult res;
    std::vector<Conn> conns = connect_all(socket_path, spec.conns);
    std::vector<std::size_t> next(spec.conns);
    const std::size_t n_lines = lines.size();
    const double t_begin = now_s();
    const double t_meas = t_begin + spec.warmup_s;
    const double t_end = t_meas + spec.seconds;
    // Whole 1 s slices of the window; a trailing partial second is only
    // part of the window-wide record.
    std::vector<LatencyHist> slices(static_cast<std::size_t>(spec.seconds));

    const auto send_next = [&](std::size_t c, double now) {
        // Connection c walks the line pool from its own offset.
        const std::size_t idx = (c * (n_lines / spec.conns) + next[c]++) %
                                n_lines;
        conns[c].queue(lines[idx], idx, now, false);
        ++res.attempted;
    };
    for (std::size_t c = 0; c < spec.conns; ++c)
        for (std::size_t w = 0; w < spec.window; ++w) send_next(c, t_begin);

    for (;;) {
        for (Conn& c : conns) c.flush();
        const double now = now_s();
        if (now >= t_end && all_drained(conns)) break;
        if (now >= t_end + kDrainLimitS)
            throw std::runtime_error("loadgen: closed-loop drain timed out");
        wait_io(conns, t_end - now);
        for (std::size_t ci = 0; ci < conns.size(); ++ci) {
            read_answers(conns[ci], [&](std::string_view text) {
                const double t = now_s();
                const Conn::Pending p = take_answer(conns[ci], text, lines, res);
                if (t >= t_meas && t < t_end) {
                    res.latency_us.add(1e6 * (t - p.t0));
                    ++res.answered_in_window;
                    const auto s = static_cast<std::size_t>(t - t_meas);
                    if (s < slices.size()) slices[s].add(1e6 * (t - p.t0));
                }
                if (t < t_end) send_next(ci, t);
            });
        }
    }
    res.window_s = spec.seconds;
    for (const LatencyHist& s : slices) {
        res.slice_p50_us.push_back(s.percentile(50));
        res.slice_p99_us.push_back(s.percentile(99));
    }
    return res;
}

StreamResult run_open_loop(const std::string& socket_path,
                           const std::vector<Line>& warm,
                           const std::vector<Line>& cold,
                           const OpenLoopSpec& spec) {
    StreamResult res;
    // Connections [0, warm_conns) are warm, the last one is the cold one.
    std::vector<Conn> conns = connect_all(socket_path, spec.warm_conns + 1);
    Conn& cold_conn = conns.back();
    const double t_begin = now_s();
    const double t_meas = t_begin + spec.warmup_s;
    const double t_end = t_meas + spec.seconds;
    std::vector<std::size_t> sent(spec.warm_conns, 0);
    const auto due_of = [&](std::size_t c, std::size_t k) {
        // Connections are phase-staggered inside one period.
        const double phase = double(c) / double(spec.warm_conns);
        return t_begin + (double(k) + phase) / spec.rate_per_conn;
    };
    double next_cold = t_begin;
    std::size_t cold_next = 0;

    for (;;) {
        double now = now_s();
        for (std::size_t c = 0; c < spec.warm_conns; ++c) {
            for (;;) {
                const double due = due_of(c, sent[c]);
                if (due > now || due >= t_end) break;
                const std::size_t idx =
                    (c * (warm.size() / spec.warm_conns) + sent[c]) %
                    warm.size();
                const bool measured = due >= t_meas;
                conns[c].queue(warm[idx], idx, due, measured);
                if (measured) res.late_us.add(1e6 * (now - due));
                ++sent[c];
                ++res.attempted;
            }
        }
        if (cold_conn.pending.empty() && now >= next_cold && now < t_end) {
            if (cold_next >= cold.size())
                throw std::runtime_error("loadgen: out of fresh cold lines");
            cold_conn.queue(cold[cold_next], cold_next, now, now >= t_meas);
            ++cold_next;
            ++res.attempted;
            ++res.cold_sent;
        }
        for (Conn& c : conns) c.flush();
        now = now_s();
        if (now >= t_end && all_drained(conns)) break;
        if (now >= t_end + kDrainLimitS)
            throw std::runtime_error("loadgen: open-loop drain timed out");
        double wake = t_end;
        for (std::size_t c = 0; c < spec.warm_conns; ++c)
            wake = std::min(wake, due_of(c, sent[c]));
        if (cold_conn.pending.empty()) wake = std::min(wake, next_cold);
        wait_io(conns, now >= t_end ? 0.05 : wake - now);
        for (std::size_t ci = 0; ci < conns.size(); ++ci) {
            const bool is_cold = ci == spec.warm_conns;
            const std::vector<Line>& pool = is_cold ? cold : warm;
            read_answers(conns[ci], [&](std::string_view text) {
                const double t = now_s();
                const Conn::Pending p = take_answer(conns[ci], text, pool, res);
                const double lat = t - p.t0;
                if (t >= t_meas && t < t_end) ++res.answered_in_window;
                if (is_cold) {
                    next_cold = t + spec.think_factor * lat;
                    if (p.measured) res.cold_ms.push_back(1e3 * lat);
                } else if (p.measured) {
                    res.latency_us.add(1e6 * lat);
                }
            });
        }
    }
    res.window_s = spec.seconds;
    return res;
}

StreamResult run_cold_serial(const std::string& socket_path,
                             const std::vector<Line>& cold, std::size_t first,
                             std::size_t n) {
    StreamResult res;
    if (first + n > cold.size())
        throw std::runtime_error("loadgen: out of fresh cold lines");
    mcsm::net::LineClient client =
        mcsm::net::LineClient::connect_unix(socket_path);
    for (std::size_t k = first; k < first + n; ++k) {
        const double t0 = now_s();
        const std::string answer = client.request(cold[k].text);
        res.cold_ms.push_back(1e3 * (now_s() - t0));
        ++res.attempted;
        ++res.cold_sent;
        if (answer.rfind("ok ", 0) != 0) {
            ++res.failed;
            if (res.first_problem.empty())
                res.first_problem = answer + "  <- " + cold[k].text;
        }
    }
    return res;
}

void absorb(StreamResult& total, const StreamResult& part) {
    total.attempted += part.attempted;
    total.failed += part.failed;
    total.mismatched += part.mismatched;
    if (total.first_problem.empty()) total.first_problem = part.first_problem;
    total.window_s += part.window_s;
    total.latency_us.merge(part.latency_us);
    total.slice_p50_us.insert(total.slice_p50_us.end(),
                              part.slice_p50_us.begin(),
                              part.slice_p50_us.end());
    total.slice_p99_us.insert(total.slice_p99_us.end(),
                              part.slice_p99_us.begin(),
                              part.slice_p99_us.end());
    total.answered_in_window += part.answered_in_window;
    total.late_us.merge(part.late_us);
    total.cold_ms.insert(total.cold_ms.end(), part.cold_ms.begin(),
                         part.cold_ms.end());
    total.cold_sent += part.cold_sent;
}

}  // namespace servebench
