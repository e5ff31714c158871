#include "stats.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace servebench {

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    const std::size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1) return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return 0.5 * (lo + hi);
}

double tail_value(std::vector<double> v, std::size_t beyond) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    if (v.size() <= beyond) return v.back();
    return v[v.size() - 1 - beyond];
}

LatencyHist::LatencyHist() : counts_(kPerDecade * kDecades, 0) {}

void LatencyHist::add(double us) {
    const double pos = std::log10(std::max(us, kLowUs) / kLowUs) * kPerDecade;
    const auto b = std::min<std::size_t>(static_cast<std::size_t>(pos),
                                         counts_.size() - 1);
    ++counts_[b];
    ++count_;
}

void LatencyHist::merge(const LatencyHist& other) {
    for (std::size_t b = 0; b < counts_.size(); ++b)
        counts_[b] += other.counts_[b];
    count_ += other.count_;
}

double LatencyHist::percentile(double p) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(std::ceil(p / 100.0 * double(count_))), 1,
        count_);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < counts_.size(); ++b) {
        if (below + counts_[b] >= rank) {
            const double frac = double(rank - below) / double(counts_[b]);
            return kLowUs * std::pow(10.0, (double(b) + frac) / kPerDecade);
        }
        below += counts_[b];
    }
    return kLowUs * std::pow(10.0, double(kDecades));
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
    entries_.push_back({name, value, unit});
}

void Report::print() const {
    for (const Entry& e : entries_)
        std::printf("  %-34s %14.6g %s\n", e.name.c_str(), e.value,
                    e.unit.c_str());
}

std::string Report::json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i) out += ", ";
        out += json_string(entries_[i].name);
        out += ": {\"value\": ";
        out += fmt_double(entries_[i].value);
        out += ", \"unit\": ";
        out += json_string(entries_[i].unit);
        out += '}';
    }
    out += '}';
    return out;
}

std::string fmt_double(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

}  // namespace servebench
