#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"

namespace mcsm::obs {

namespace detail {

std::atomic<bool> g_trace_on{false};
std::atomic<bool> g_trace_detail{false};

namespace {

// Per-thread ring buffer of completed spans. The buffer's own mutex
// serializes the (rare, tracing-enabled-only) writer commit against the
// stop_trace() drain; it is uncontended in steady state.
struct ThreadBuf {
  std::mutex mu;
  std::vector<TraceEvent> ring;
  std::size_t next = 0;     // write cursor
  std::size_t count = 0;    // total committed (may exceed ring size)
  int tid = 0;
};

struct TraceState {
  std::mutex mu;  // guards options/epoch/bufs registration
  TraceOptions options;
  std::uint64_t epoch = 0;          // bumped per start_trace
  std::uint64_t t_start_ns = 0;     // capture start, for relative timestamps
  std::vector<ThreadBuf*> bufs;     // registered thread buffers (leaked)
  int next_tid = 1;
};

TraceState& state() {
  static TraceState* s = new TraceState;
  return *s;
}

std::atomic<std::uint64_t> g_epoch{0};

ThreadBuf& thread_buf() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    buf = new ThreadBuf;  // leaked: must outlive detached pool threads
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mu);
    buf->tid = s.next_tid++;
    buf->ring.resize(std::max<std::size_t>(s.options.ring_events, 16));
    s.bufs.push_back(buf);
  }
  return *buf;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
}

struct EnvTrace {
  EnvTrace() {
    const char* path = std::getenv("MCSM_TRACE");
    if (path == nullptr || path[0] == '\0') return;
    TraceOptions opt;
    opt.path = path;
    const char* detail_env = std::getenv("MCSM_TRACE_DETAIL");
    opt.detail = detail_env != nullptr && detail_env[0] != '\0' &&
                 detail_env[0] != '0';
    start_trace(opt);
    std::atexit([] { stop_trace(); });
  }
};

EnvTrace g_env_trace;

}  // namespace

void commit_event(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                  std::string_view detail_label) {
  std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  ThreadBuf& buf = thread_buf();
  std::lock_guard<std::mutex> lock(buf.mu);
  TraceEvent& ev = buf.ring[buf.next];
  ev.name = name;
  ev.t0_ns = t0_ns;
  ev.t1_ns = t1_ns;
  ev.epoch = epoch;
  std::size_t n = std::min(detail_label.size(), sizeof(ev.detail) - 1);
  if (n > 0) std::memcpy(ev.detail, detail_label.data(), n);
  ev.detail[n] = '\0';
  buf.next = (buf.next + 1) % buf.ring.size();
  ++buf.count;
}

}  // namespace detail

void Span::begin(const char* name, std::string_view label) {
  name_ = name;
  t0_ns_ = now_ns();
  std::size_t n = std::min(label.size(), sizeof(label_) - 1);
  if (n > 0) std::memcpy(label_, label.data(), n);
  label_[n] = '\0';
}

void Span::end() {
  if (!detail::g_trace_on.load(std::memory_order_relaxed)) return;
  detail::commit_event(name_, t0_ns_, now_ns(), label_);
}

std::uint64_t DetailSpan::clock_ns() { return now_ns(); }

void start_trace(const TraceOptions& options) {
  detail::TraceState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.options = options;
  if (s.options.ring_events < 16) s.options.ring_events = 16;
  ++s.epoch;
  s.t_start_ns = now_ns();
  // Resize/clear existing thread buffers; events from earlier epochs are
  // filtered out at flush via the per-event epoch stamp.
  for (detail::ThreadBuf* buf : s.bufs) {
    std::lock_guard<std::mutex> blk(buf->mu);
    buf->ring.assign(s.options.ring_events, {});
    buf->next = 0;
    buf->count = 0;
  }
  detail::g_epoch.store(s.epoch, std::memory_order_release);
  detail::g_trace_detail.store(options.detail, std::memory_order_relaxed);
  detail::g_trace_on.store(true, std::memory_order_release);
}

bool trace_active() {
  return detail::g_trace_on.load(std::memory_order_relaxed);
}

bool stop_trace() {
  detail::TraceState& s = detail::state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!detail::g_trace_on.load(std::memory_order_relaxed)) return false;
  detail::g_trace_on.store(false, std::memory_order_release);
  detail::g_trace_detail.store(false, std::memory_order_relaxed);

  struct Flat {
    detail::TraceEvent ev;
    int tid;
  };
  std::vector<Flat> events;
  for (detail::ThreadBuf* buf : s.bufs) {
    std::lock_guard<std::mutex> blk(buf->mu);
    std::size_t n = std::min(buf->count, buf->ring.size());
    for (std::size_t i = 0; i < n; ++i) {
      const detail::TraceEvent& ev = buf->ring[i];
      if (ev.name != nullptr && ev.epoch == s.epoch) {
        events.push_back({ev, buf->tid});
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const Flat& a, const Flat& b) { return a.ev.t0_ns < b.ev.t0_ns; });

  std::string out = "{\"traceEvents\":[\n";
  char line[512];
  bool first = true;
  for (const Flat& f : events) {
    double ts_us =
        static_cast<double>(f.ev.t0_ns - std::min(f.ev.t0_ns, s.t_start_ns)) /
        1000.0;
    double dur_us = static_cast<double>(f.ev.t1_ns - f.ev.t0_ns) / 1000.0;
    std::string name;
    detail::append_escaped(name, f.ev.name);
    std::string args;
    if (f.ev.detail[0] != '\0') {
      args = ",\"args\":{\"detail\":\"";
      detail::append_escaped(args, f.ev.detail);
      args += "\"}";
    }
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"cat\":\"mcsm\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d%s}",
                  first ? "" : ",\n", name.c_str(), ts_us, dur_us, f.tid,
                  args.c_str());
    first = false;
    out += line;
  }
  out += "\n]}\n";

  std::FILE* file = std::fopen(s.options.path.c_str(), "w");
  if (file == nullptr) return false;
  bool ok = std::fwrite(out.data(), 1, out.size(), file) == out.size();
  ok = (std::fclose(file) == 0) && ok;
  return ok;
}

}  // namespace mcsm::obs
