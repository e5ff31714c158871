#pragma once

// obs/metrics -- process-wide registry of named counters, gauges, and
// log-bucketed latency histograms.
//
// Design constraints, in order:
//   1. The hot path (Counter::add, Histogram::observe) is a relaxed atomic
//      add on a cache-line-padded thread-indexed shard -- no locks, no
//      allocation, no syscalls. Safe from pool workers and from code running
//      during static destruction (the registry is intentionally leaked).
//   2. Snapshotting is always safe concurrently with updates: readers use
//      relaxed loads and may observe a value mid-batch, never a torn one.
//   3. One build: the hooks are always compiled in. Their cost on the
//      Newton cycle is gated at < 2% in bench_solver_core, and `stats`, the
//      benches and MCSM_OBS_JSON all read this one registry.
//   4. Instrumentation never changes numeric results: the subsystem only
//      observes, and `set_enabled(false)` turns every update into a single
//      relaxed load + branch for overhead A/B measurements.
//
// Usage at a call site (the reference is resolved once, then reused):
//   static obs::Counter& hits = obs::counter("serve.surface.hit");
//   hits.add();
//
// Export: MCSM_OBS_JSON=<path> writes snapshot().to_json() to <path> at
// process exit, from any binary linked against the library.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace mcsm::obs {

constexpr bool compiled_in() { return true; }

// Runtime kill switch (default on). Only gates *updates*; snapshot always
// reads whatever was recorded. Used by the bench overhead A/B gate.
void set_enabled(bool on);
bool enabled();

// Monotonic clock for latency measurements, ns since an arbitrary epoch.
std::uint64_t now_ns();

namespace detail {

// One cache line per shard so concurrent writers on different cores don't
// bounce the same line. 16 shards is plenty for the pool sizes we run.
inline constexpr int kShards = 16;

struct alignas(64) PaddedI64 {
  std::atomic<long long> v{0};
};

// Cheap thread -> shard mapping; collisions are fine (atomics stay exact).
int shard_index();

}  // namespace detail

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(long long delta = 1) {
    if (!enabled()) return;
    shards_[detail::shard_index()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const {
    long long total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::PaddedI64 shards_[detail::kShards];
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(long long v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(long long delta) {
    if (!enabled()) return;
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  long long value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<long long> v_{0};
};

struct HistogramStats {
  long long count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

// Log-bucketed histogram: 4 buckets per octave (bucket k spans
// [2^(k/4), 2^((k+1)/4))), covering [1, 2^38) -- for nanosecond latencies
// that is 1 ns .. ~275 s. Values below/above clamp to the edge buckets.
// Percentiles are reconstructed at snapshot time from bucket counts,
// interpolated within the bucket and clamped to the observed [min, max].
class Histogram {
 public:
  static constexpr int kBucketsPerOctave = 4;
  static constexpr int kOctaves = 38;
  static constexpr int kBuckets = kBucketsPerOctave * kOctaves;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) {
    if (!enabled()) return;
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    update_min(v);
    update_max(v);
  }

  // Maps a value to its bucket. Exposed for the boundary-case tests.
  static int bucket_index(double v);
  // Lower edge of bucket i, i.e. 2^(i/4).
  static double bucket_lower_bound(int i);

  HistogramStats stats() const;
  void reset();

 private:
  void update_min(double v) {
    double cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(double v) {
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<long long> buckets_[kBuckets] = {};
  std::atomic<long long> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{1e300};
  std::atomic<double> max_{-1e300};
};

// Registry lookups. The returned references are process-lifetime stable
// (instruments are never destroyed); the lookup itself takes a mutex, so
// cache the reference in a function-local static at hot call sites.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name);

// RAII latency sample: observes elapsed ns into `h` on destruction.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h) : h_(&h), t0_(now_ns()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() { h_->observe(static_cast<double>(now_ns() - t0_)); }

 private:
  Histogram* h_;
  std::uint64_t t0_;
};

struct Snapshot {
  struct CounterEntry {
    std::string name;
    long long value = 0;
  };
  struct GaugeEntry {
    std::string name;
    long long value = 0;
  };
  struct HistogramEntry {
    std::string name;
    HistogramStats stats;
  };
  std::vector<CounterEntry> counters;    // sorted by name
  std::vector<GaugeEntry> gauges;        // sorted by name
  std::vector<HistogramEntry> histograms;  // sorted by name

  std::string to_json() const;
  std::string format_human() const;
};

// Consistent-enough point-in-time view: each instrument is read atomically
// per field; cross-instrument skew is possible and fine.
Snapshot snapshot();

}  // namespace mcsm::obs

