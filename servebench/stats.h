// Order statistics and the metric report of one benchmark run.
#ifndef SERVEBENCH_STATS_H
#define SERVEBENCH_STATS_H

#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

// Seconds on the monotonic clock.
double now_s();

// Median with the midpoint rule for even counts (0 for an empty sample).
double median(std::vector<double> v);

// The highest percentile that still has at least `beyond` samples above it:
// the (beyond + 1)-th largest sample. Falls back to the maximum for samples
// too small to have that many.
double tail_value(std::vector<double> v, std::size_t beyond = 10);

// Latency record of fixed size: 200 log-spaced buckets per decade from
// 0.1 us to 1e9 us (1.2 % wide), so a multi-million-sample run costs no
// memory growth. Percentiles interpolate inside the bucket by rank.
class LatencyHist {
public:
    LatencyHist();
    void add(double us);
    void merge(const LatencyHist& other);
    std::uint64_t count() const { return count_; }
    // Nearest-rank percentile, p in (0, 100] (0 for an empty record).
    double percentile(double p) const;

private:
    static constexpr int kPerDecade = 200;
    static constexpr int kDecades = 10;
    static constexpr double kLowUs = 0.1;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
};

// Named metrics in print order. print() writes one "name value unit" line
// per metric; json() renders the {"name": {"value", "unit"}} object of the
// result line with every digit the double carries.
class Report {
public:
    void add(const std::string& name, double value, const std::string& unit);
    void print() const;
    std::string json() const;

private:
    struct Entry {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

// Shortest round-trip text of a double (non-finite values render as 0 so
// the result line stays valid JSON; callers check finiteness first).
std::string fmt_double(double v);

// Quotes `s` as a JSON string.
std::string json_string(const std::string& s);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H
