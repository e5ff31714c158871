#include "net/query_text.h"

#include <charconv>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/fp_text.h"

namespace mcsm::net {

namespace {

// Hot path: the server parses one line per query, so tokenization is
// plain string_view scanning -- no stringstream, no allocation beyond the
// strings the query itself stores.

std::string_view next_token(std::string_view& rest) {
    std::size_t i = 0;
    while (i < rest.size() && (rest[i] == ' ' || rest[i] == '\t')) ++i;
    std::size_t j = i;
    while (j < rest.size() && rest[j] != ' ' && rest[j] != '\t') ++j;
    const std::string_view token = rest.substr(i, j - i);
    rest.remove_prefix(j);
    return token;
}

double parse_number(std::string_view token, std::string_view line) {
    double v = 0.0;
    // Branch before building the message: require(cond, string) evaluates
    // its argument eagerly, which would put three allocations on the
    // per-number hot path.
    if (!parse_double_token(token, v)) [[unlikely]]
        throw ModelError("bad number '" + std::string(token) +
                         "': " + std::string(line));
    return v;
}

// Splits a comma-separated field, invoking consume(item) per element.
template <typename Fn>
void split_csv(std::string_view csv, const Fn& consume) {
    while (true) {
        const std::size_t comma = csv.find(',');
        consume(csv.substr(0, comma));
        if (comma == std::string_view::npos) return;
        csv.remove_prefix(comma + 1);
    }
}

std::size_t csv_count(std::string_view csv) {
    std::size_t n = 1;
    for (const char c : csv) n += c == ',' ? 1 : 0;
    return n;
}

// The list parsers refill `out` in place, keeping its capacity.
void parse_ps_list(std::string_view csv, std::string_view line,
                   std::vector<double>& out) {
    out.clear();
    out.reserve(csv_count(csv));
    split_csv(csv, [&](std::string_view item) {
        out.push_back(parse_number(item, line) * 1e-12);
    });
}

void parse_name_list(std::string_view csv, std::vector<std::string>& out) {
    out.clear();
    out.reserve(csv_count(csv));
    split_csv(csv,
              [&](std::string_view item) { out.emplace_back(item); });
}

// Shortest-round-trip rendering (std::to_chars default): the fewest
// digits that parse back to the exact double.
void append_double(std::string& s, double v) {
    char buf[32];
    s.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

void append_csv_ps(std::string& s, const std::vector<double>& vals) {
    for (std::size_t i = 0; i < vals.size(); ++i) {
        if (i != 0) s += ',';
        append_double(s, vals[i] * 1e12);
    }
}

}  // namespace

bool parse_query_line(std::string_view line, serve::TimingQuery& q) {
    std::string_view rest = line;
    const std::string_view cell = next_token(rest);
    if (cell.empty() || cell[0] == '#') return false;
    const std::string_view pins = next_token(rest);
    const std::string_view dir = next_token(rest);
    const std::string_view slews = next_token(rest);
    const std::string_view skews = next_token(rest);
    const std::string_view load_ff = next_token(rest);
    if (load_ff.empty()) [[unlikely]]
        throw ModelError("malformed query line: " + std::string(line));
    if (dir != "rise" && dir != "fall") [[unlikely]]
        throw ModelError("edge direction must be rise|fall: " +
                         std::string(line));
    // Reset every field, but keep q's buffers: parsing a stream into the
    // same query objects then allocates nothing.
    std::string cell_buf = std::move(q.cell);
    std::vector<std::string> pin_buf = std::move(q.pins);
    std::vector<double> slew_buf = std::move(q.slews);
    std::vector<double> skew_buf = std::move(q.skews);
    q = serve::TimingQuery{};
    cell_buf.assign(cell);
    q.cell = std::move(cell_buf);
    parse_name_list(pins, pin_buf);
    q.pins = std::move(pin_buf);
    q.inputs_rise = dir == "rise";
    parse_ps_list(slews, line, slew_buf);
    q.slews = std::move(slew_buf);
    parse_ps_list(skews, line, skew_buf);
    q.skews = std::move(skew_buf);
    // A lone "0" means simultaneous switching for any pin count (the
    // service wants either an empty list or one skew per pin).
    if (q.skews.size() == 1 && q.skews[0] == 0.0 && q.pins.size() > 1)
        q.skews.clear();
    q.load_cap = parse_number(load_ff, line) * 1e-15;

    for (;;) {
        const std::string_view opt = next_token(rest);
        if (opt.empty()) break;
        if (opt == "exact") {
            q.exact = true;
        } else if (opt.substr(0, 3) == "pi=") {
            std::vector<double> vals;
            std::string_view pi = opt.substr(3);
            while (true) {
                const std::size_t colon = pi.find(':');
                vals.push_back(parse_number(pi.substr(0, colon), line));
                if (colon == std::string_view::npos) break;
                pi.remove_prefix(colon + 1);
            }
            require(vals.size() == 3,
                    "bad pi load (want pi=<near_fF>:<r_ohm>:<c_far_fF>): " +
                        std::string(line));
            q.c_near = vals[0] * 1e-15;
            q.r_wire = vals[1];
            q.c_far = vals[2] * 1e-15;
        } else if (opt.substr(0, 4) == "vdd=") {
            q.corner.vdd = parse_number(opt.substr(4), line);
        } else if (opt.substr(0, 5) == "temp=") {
            q.corner.temp_c = parse_number(opt.substr(5), line);
        } else {
            throw ModelError("unknown query option " + std::string(opt) +
                             ": " + std::string(line));
        }
    }
    return true;
}

std::string format_query_line(const serve::TimingQuery& q) {
    std::string line = q.cell;
    line += ' ';
    for (std::size_t i = 0; i < q.pins.size(); ++i) {
        if (i != 0) line += ',';
        line += q.pins[i];
    }
    line += q.inputs_rise ? " rise " : " fall ";
    append_csv_ps(line, q.slews);
    line += ' ';
    if (q.skews.empty())
        line += '0';
    else
        append_csv_ps(line, q.skews);
    line += ' ';
    append_double(line, q.load_cap * 1e15);
    if (q.c_near != 0.0 || q.r_wire != 0.0 || q.c_far != 0.0) {
        line += " pi=";
        append_double(line, q.c_near * 1e15);
        line += ':';
        append_double(line, q.r_wire);
        line += ':';
        append_double(line, q.c_far * 1e15);
    }
    const serve::TimingQuery defaults;
    if (q.corner.vdd != defaults.corner.vdd) {
        line += " vdd=";
        append_double(line, q.corner.vdd);
    }
    if (q.corner.temp_c != defaults.corner.temp_c) {
        line += " temp=";
        append_double(line, q.corner.temp_c);
    }
    if (q.exact) line += " exact";
    return line;
}

void append_result_line(std::string& out, std::uint64_t id,
                        const serve::TimingResult& result) {
    // Hot path: one result line per served query. "ok " + u64 + two
    // shortest-round-trip doubles + " lut|tran" fits 96 bytes with room.
    char buf[96];
    char* p = buf;
    char* const end = buf + sizeof buf;
    if (result.valid) {
        std::memcpy(p, "ok ", 3);
        p = std::to_chars(p + 3, end, id).ptr;
        *p++ = ' ';
        p = std::to_chars(p, end, result.delay).ptr;
        *p++ = ' ';
        p = std::to_chars(p, end, result.slew).ptr;
        const std::string_view path =
            result.path == serve::ResultPath::kLut ? " lut" : " tran";
        std::memcpy(p, path.data(), path.size());
        out.append(buf, p + path.size());
        return;
    }
    out += "err ";
    out.append(buf, std::to_chars(buf, end, id).ptr);
    out += ' ';
    // Errors travel on one line; flatten any embedded newlines.
    for (char c : result.error) out += c == '\n' ? ' ' : c;
}

std::string format_result_line(std::uint64_t id,
                               const serve::TimingResult& result) {
    std::string line;
    append_result_line(line, id, result);
    return line;
}

serve::TimingResult parse_result_line(std::string_view line,
                                      std::uint64_t& id) {
    std::string_view rest = line;
    const std::string_view tag = next_token(rest);
    const std::string_view id_token = next_token(rest);
    std::uint64_t parsed = 0;
    bool id_ok = !id_token.empty();
    for (char c : id_token) {
        if (c < '0' || c > '9') {
            id_ok = false;
            break;
        }
        parsed = parsed * 10 + static_cast<std::uint64_t>(c - '0');
    }
    require(id_ok, "malformed result line: " + std::string(line));
    id = parsed;
    serve::TimingResult r;
    if (tag == "ok") {
        const std::string_view delay = next_token(rest);
        const std::string_view slew = next_token(rest);
        const std::string_view path = next_token(rest);
        r.valid = true;
        r.delay = parse_number(delay, line);
        r.slew = parse_number(slew, line);
        require(path == "lut" || path == "tran",
                "malformed result path: " + std::string(line));
        r.path = path == "lut" ? serve::ResultPath::kLut
                               : serve::ResultPath::kTransient;
        return r;
    }
    require(tag == "err", "malformed result line: " + std::string(line));
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
        rest.remove_prefix(1);
    r.error = rest.empty() ? "unknown server error" : std::string(rest);
    return r;
}

}  // namespace mcsm::net
