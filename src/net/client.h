// Minimal blocking line-protocol client for NetServer: used by
// timing_serverd's stdin and --client modes, the socket integration tests
// and the benches. Handles
// connect (unix / TCP loopback), buffered line reads and SIGPIPE-free
// sends; callers speak the net/query_text grammar through it.
#ifndef MCSM_NET_CLIENT_H
#define MCSM_NET_CLIENT_H

#include <string>
#include <string_view>

namespace mcsm::net {

class LineClient {
public:
    // Both throw ModelError when the connection fails.
    static LineClient connect_unix(const std::string& path);
    static LineClient connect_tcp(int port);  // 127.0.0.1:port

    LineClient(LineClient&& other) noexcept;
    LineClient& operator=(LineClient&& other) noexcept;
    LineClient(const LineClient&) = delete;
    LineClient& operator=(const LineClient&) = delete;
    ~LineClient();

    // Sends raw bytes (callers append their own '\n's); a pipelining
    // client pushes thousands of request lines in one call. SIGPIPE-free;
    // throws ModelError when the peer is gone.
    void send_text(std::string_view text);

    // Sends one line (appending '\n').
    void send_line(std::string_view line);

    // Blocks for the next response line (without the newline); throws
    // ModelError on EOF or socket error.
    std::string recv_line();

    // Reads exactly `n` payload bytes (for length-prefixed responses like
    // "stats <nbytes>").
    std::string recv_bytes(std::size_t n);

    // send_line + recv_line, the one-shot convenience.
    std::string request(const std::string& line);

    // Half-close the write side: the server sees EOF, flushes the pending
    // batch, and the remaining responses stay readable.
    void shutdown_write();

    int fd() const { return fd_; }

private:
    explicit LineClient(int fd) : fd_(fd) {}

    int fd_ = -1;
    std::string buf_;  // received-but-unconsumed bytes
};

}  // namespace mcsm::net

#endif  // MCSM_NET_CLIENT_H
