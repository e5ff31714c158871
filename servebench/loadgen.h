// Socket load generator: one client thread driving several unix-socket
// connections to a net::NetServer hosted in the same process.
//
// Closed loop: every connection keeps a fixed window of pipelined queries
// in flight and sends its next query when an answer comes back, so a slower
// server receives less load. Open loop: warm connections send on a fixed
// schedule whatever the server does, and every answer is timed from when its
// query was due, so a stalled server charges the stall to every query that
// waited behind it; one more connection sends cold queries closed loop with
// a think time. Both check every answer as it arrives: warm answers must
// equal, byte for byte, the in-process run_batch answer to the same line
// (shortest round-trip doubles, so equal text means equal bits), cold
// answers must be valid.
#ifndef SERVEBENCH_LOADGEN_H
#define SERVEBENCH_LOADGEN_H

#include <cstddef>
#include <string>
#include <vector>

#include "stats.h"

namespace servebench {

// One rendered query line and the text its answer must end with after the
// id (" <delay> <slew> <lut|tran>"); an empty `expect` accepts any "ok".
struct Line {
    std::string text;
    std::string expect;
};

struct ClosedLoopSpec {
    std::size_t conns = 4;
    std::size_t window = 32;
    double warmup_s = 0.5;
    double seconds = 10.0;
};

struct OpenLoopSpec {
    std::size_t warm_conns = 3;
    double rate_per_conn = 600.0;  // warm queries per second per connection
    // Think time after each cold answer, as a multiple of its latency: the
    // loop thread then spends about 1 / (1 + think) of the time on cold work.
    double think_factor = 2.0;
    double warmup_s = 0.5;
    double seconds = 10.0;
};

struct StreamResult {
    std::size_t attempted = 0;   // queries sent
    std::size_t failed = 0;      // "err" answers (busy included)
    std::size_t mismatched = 0;  // answers that differ from the reference
    std::string first_problem;   // first failed/mismatched answer
    double window_s = 0.0;       // measured window
    // Warm answers [us]: closed loop, those received in the window, timed
    // from send; open loop, those due in the window, timed from due time.
    LatencyHist latency_us;
    // Closed loop only: p50 and p99 of each 1 s slice of the window, for
    // percentiles that one disturbed second cannot move.
    std::vector<double> slice_p50_us;
    std::vector<double> slice_p99_us;
    std::size_t answered_in_window = 0;  // answers received in the window
    // Open loop only: how late the generator sent warm queries [us]. Cold
    // answers' latencies [ms] and cold queries sent.
    LatencyHist late_us;
    std::vector<double> cold_ms;
    std::size_t cold_sent = 0;
};

StreamResult run_closed_loop(const std::string& socket_path,
                             const std::vector<Line>& lines,
                             const ClosedLoopSpec& spec);

// Cold line k is sent as the k-th cold query; `cold` must hold more lines
// than the run can send (the run fails rather than repeat a corner).
StreamResult run_open_loop(const std::string& socket_path,
                           const std::vector<Line>& warm,
                           const std::vector<Line>& cold,
                           const OpenLoopSpec& spec);

// Sends cold[first, first + n) one at a time on one connection, with
// nothing else in flight: unloaded cold-answer latencies [ms]. Answers must
// be "ok".
StreamResult run_cold_serial(const std::string& socket_path,
                             const std::vector<Line>& cold, std::size_t first,
                             std::size_t n);

// Folds `part` into `total`: counts and windows add, samples concatenate.
void absorb(StreamResult& total, const StreamResult& part);

}  // namespace servebench

#endif  // SERVEBENCH_LOADGEN_H
