#include "obs/metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

namespace mcsm::obs {

namespace {

std::atomic<bool> g_enabled{true};

// The registry outlives everything -- pool workers may record metrics while
// other statics are being destroyed, so it is allocated once and leaked.
struct Registry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {

int shard_index() {
  // One stable shard id per thread; cheap (TLS load) and collision-tolerant.
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id & (kShards - 1);
}

}  // namespace detail

int Histogram::bucket_index(double v) {
  if (!(v >= 1.0)) return 0;  // negatives, zero, NaN -> lowest bucket
  int exp = 0;
  double m = std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  // Sub-bucket within the octave from the mantissa: boundaries at
  // 2^-1/2^0.75/... i.e. m in [0.5,0.5946) -> 0, [0.5946,0.7071) -> 1, ...
  int sub;
  if (m < 0.59460355750136053) {
    sub = 0;
  } else if (m < 0.70710678118654757) {
    sub = 1;
  } else if (m < 0.84089641525371450) {
    sub = 2;
  } else {
    sub = 3;
  }
  int idx = (exp - 1) * kBucketsPerOctave + sub;
  if (idx < 0) return 0;
  if (idx >= kBuckets) return kBuckets - 1;
  return idx;
}

double Histogram::bucket_lower_bound(int i) {
  if (i <= 0) return 1.0;
  if (i >= kBuckets) i = kBuckets - 1;
  return std::exp2(static_cast<double>(i) / kBucketsPerOctave);
}

HistogramStats Histogram::stats() const {
  HistogramStats out;
  long long counts[kBuckets];
  long long total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  out.count = total;
  out.sum = sum_.load(std::memory_order_relaxed);
  if (total == 0) return out;
  out.min = min_.load(std::memory_order_relaxed);
  out.max = max_.load(std::memory_order_relaxed);

  // Percentile: find the bucket holding the q-th sample, place the sample
  // inside it as if the bucket's samples were spread evenly over its
  // width, and clamp to the observed [min, max] (a bucket's lower edge
  // alone understates by up to a bucket width, ~19%). Uses the locally
  // captured counts so a concurrent observe() can't skew the walk.
  auto percentile = [&](double q) {
    const double rank = q * static_cast<double>(total - 1);
    long long seen = 0;
    int i = 0;
    for (; i < kBuckets - 1; ++i) {
      if (static_cast<double>(seen + counts[i]) > rank) break;
      seen += counts[i];
    }
    const double lo = bucket_lower_bound(i);
    const double hi = bucket_lower_bound(i + 1);
    const double frac =
        counts[i] > 0 ? (rank - static_cast<double>(seen) + 0.5) /
                            static_cast<double>(counts[i])
                      : 0.0;
    // min/max, not std::clamp: a snapshot racing the very first observe()
    // can read min > max, which std::clamp does not allow.
    return std::max(out.min, std::min(lo + frac * (hi - lo), out.max));
  };
  out.p50 = percentile(0.50);
  out.p95 = percentile(0.95);
  out.p99 = percentile(0.99);
  return out;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(1e300, std::memory_order_relaxed);
  max_.store(-1e300, std::memory_order_relaxed);
}

Counter& counter(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& gauge(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& histogram(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto& slot = r.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Snapshot snapshot() {
  Snapshot snap;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  snap.counters.reserve(r.counters.size());
  for (const auto& [name, c] : r.counters) {
    snap.counters.push_back({name, c->value()});
  }
  snap.gauges.reserve(r.gauges.size());
  for (const auto& [name, g] : r.gauges) {
    snap.gauges.push_back({name, g->value()});
  }
  snap.histograms.reserve(r.histograms.size());
  for (const auto& [name, h] : r.histograms) {
    snap.histograms.push_back({name, h->stats()});
  }
  return snap;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& e : counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, e.name);
    out += "\": " + std::to_string(e.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& e : gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, e.name);
    out += "\": " + std::to_string(e.value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& e : histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, e.name);
    out += "\": {\"count\": " + std::to_string(e.stats.count);
    out += ", \"sum\": " + fmt_double(e.stats.sum);
    out += ", \"min\": " + fmt_double(e.stats.min);
    out += ", \"max\": " + fmt_double(e.stats.max);
    out += ", \"p50\": " + fmt_double(e.stats.p50);
    out += ", \"p95\": " + fmt_double(e.stats.p95);
    out += ", \"p99\": " + fmt_double(e.stats.p99);
    out += "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string Snapshot::format_human() const {
  std::string out;
  char line[256];
  if (!counters.empty()) {
    out += "counters:\n";
    for (const auto& e : counters) {
      std::snprintf(line, sizeof(line), "  %-40s %lld\n", e.name.c_str(),
                    e.value);
      out += line;
    }
  }
  if (!gauges.empty()) {
    out += "gauges:\n";
    for (const auto& e : gauges) {
      std::snprintf(line, sizeof(line), "  %-40s %lld\n", e.name.c_str(),
                    e.value);
      out += line;
    }
  }
  if (!histograms.empty()) {
    out += "histograms:\n";
    for (const auto& e : histograms) {
      std::snprintf(line, sizeof(line),
                    "  %-40s count=%lld mean=%.3g p50=%.3g p95=%.3g p99=%.3g "
                    "max=%.3g\n",
                    e.name.c_str(), e.stats.count,
                    e.stats.count > 0
                        ? e.stats.sum / static_cast<double>(e.stats.count)
                        : 0.0,
                    e.stats.p50, e.stats.p95, e.stats.p99, e.stats.max);
      out += line;
    }
  }
  if (out.empty()) out = "(no metrics recorded)\n";
  return out;
}

namespace {

// MCSM_OBS_JSON=<path>: read once at start-up, the snapshot is written at
// exit -- the same zero-code export as MCSM_TRACE (obs/trace.cpp).
struct EnvSnapshot {
  EnvSnapshot() {
    const char* path = std::getenv("MCSM_OBS_JSON");
    if (path == nullptr || path[0] == '\0') return;
    static const std::string target = path;
    std::atexit([] {
      const std::string json = snapshot().to_json();
      std::FILE* f = std::fopen(target.c_str(), "w");
      bool ok = f != nullptr &&
                std::fwrite(json.data(), 1, json.size(), f) == json.size();
      ok = f != nullptr && std::fclose(f) == 0 && ok;
      if (!ok)
        std::fprintf(stderr, "obs: cannot write MCSM_OBS_JSON=%s\n",
                     target.c_str());
    });
  }
};

EnvSnapshot g_env_snapshot;

}  // namespace

}  // namespace mcsm::obs
