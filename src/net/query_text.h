// Text codec of the timing-query wire protocol, shared by the socket
// server (net/server), its clients and the benches: ONE grammar, ONE
// parser, so a query file pipes unchanged into timing_serverd (stdin or
// socket) and a client can replay an in-process batch.
//
// Query line (whitespace-separated; '#' starts a comment):
//   <cell> <pins> <rise|fall> <slews_ps> <skews_ps> <load_fF> [option...]
//   options: pi=<c_near_fF>:<r_ohm>:<c_far_fF>  vdd=<V>  temp=<degC>  exact
//
// Numbers are parsed with std::from_chars (common/fp_text.h
// parse_double_token): locale-independent '.' radix, whole-token, finite
// -- a server running under a comma-radix locale reads "2.5" as 2.5, and
// trailing junk is a per-line error instead of a silently truncated value.
//
// Result line (full precision, machine-first):
//   ok <id> <delay_s> <slew_s> <lut|tran>
//   err <id> <message...>
// Doubles are rendered with std::to_chars shortest-round-trip form, so
// parsing a result line recovers the exact bits run_batch produced.
// <id> is an opaque caller token (the per-connection sequence number for
// the socket server).
#ifndef MCSM_NET_QUERY_TEXT_H
#define MCSM_NET_QUERY_TEXT_H

#include <cstdint>
#include <string>
#include <string_view>

#include "serve/timing_service.h"

namespace mcsm::net {

// Parses one query line into `q`. Returns false for blank/comment lines;
// throws ModelError on malformed ones (report per line, keep the stream).
// Every field of `q` is overwritten, but its buffers are reused, so a
// caller that parses a stream into recycled queries does not allocate.
bool parse_query_line(std::string_view line, serve::TimingQuery& q);

// Renders `q` as one protocol query line (no trailing newline). The
// inverse direction of parse_query_line up to unit scaling: numbers are
// shortest-round-trip, so feeding the SAME line to a socket server and an
// in-process parse_query_line + run_batch yields bitwise-equal results.
std::string format_query_line(const serve::TimingQuery& q);

// Renders `result` as one protocol result line (no trailing newline).
// Shortest-round-trip doubles: the text recovers the exact bits, so a
// socket client can assert bitwise equality against an in-process
// run_batch. The append form is the server's hot path: it extends `out`
// in place, no per-response allocation.
void append_result_line(std::string& out, std::uint64_t id,
                        const serve::TimingResult& result);
std::string format_result_line(std::uint64_t id,
                               const serve::TimingResult& result);

// Parses a result line back into (id, result); throws ModelError on
// malformed input. The client-side inverse of format_result_line.
serve::TimingResult parse_result_line(std::string_view line,
                                      std::uint64_t& id);

}  // namespace mcsm::net

#endif  // MCSM_NET_QUERY_TEXT_H
