#pragma once

// obs/trace -- RAII scoped spans emitting Chrome trace-event JSON.
//
// Spans are recorded into per-thread ring buffers (fixed capacity, oldest
// events overwritten) and flushed to a single JSON file on stop_trace().
// The output loads directly in chrome://tracing and in Perfetto
// (ui.perfetto.dev -> Open trace file).
//
// Cost model: with tracing inactive a Span constructor is one relaxed
// atomic load and a branch -- no clock read, no allocation. The fine-
// grained per-phase solver spans (assemble/factor/solve, fired every
// Newton iteration) additionally hide behind TraceOptions::detail /
// MCSM_TRACE_DETAIL=1 so a default trace of a full serve batch stays
// small and readable.
//
// Activation:
//   - programmatic: obs::start_trace({.path = "run.json"}); ... stop_trace();
//   - environment:  MCSM_TRACE=run.json (flushed at process exit);
//                   MCSM_TRACE_DETAIL=1 adds the per-iteration solver spans.
//
// Like the metrics registry, trace state is process-lifetime and leaked so
// spans fired from pool workers during shutdown stay safe.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mcsm::obs {

struct TraceOptions {
  std::string path = "mcsm_trace.json";
  std::size_t ring_events = 1 << 15;  // per thread
  bool detail = false;                // include per-iteration solver spans
};

// Starts capturing; replaces any active capture (previous events dropped).
void start_trace(const TraceOptions& options);

// Stops capturing and writes all buffered events to the configured path.
// Returns false if no capture was active or the file could not be written.
bool stop_trace();

bool trace_active();

namespace detail {

struct TraceEvent {
  const char* name = nullptr;  // static-lifetime string
  std::uint64_t t0_ns = 0;
  std::uint64_t t1_ns = 0;
  std::uint64_t epoch = 0;
  char detail[24] = {};  // optional label, e.g. cell name (truncated)
};

extern std::atomic<bool> g_trace_on;
extern std::atomic<bool> g_trace_detail;

void commit_event(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns,
                  std::string_view detail_label);

}  // namespace detail

// RAII span. `name` must be a static-lifetime string literal; the optional
// label is copied (truncated) into a small inline buffer -- no allocation.
class Span {
 public:
  explicit Span(const char* name) : Span(name, std::string_view{}) {}
  Span(const char* name, std::string_view label) {
    if (detail::g_trace_on.load(std::memory_order_relaxed)) begin(name, label);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (name_ != nullptr) end();
  }

 private:
  void begin(const char* name, std::string_view label);
  void end();

  const char* name_ = nullptr;
  std::uint64_t t0_ns_ = 0;
  char label_[sizeof(detail::TraceEvent{}.detail)] = {};
};

// Span that only records when TraceOptions::detail is set. Used for the
// per-Newton-iteration assemble/factor/solve phases, which would otherwise
// flood the ring buffers (and the viewer) on any real workload.
class DetailSpan {
 public:
  explicit DetailSpan(const char* name) {
    if (detail::g_trace_detail.load(std::memory_order_relaxed)) {
      name_ = name;
      t0_ns_ = clock_ns();
    }
  }
  DetailSpan(const DetailSpan&) = delete;
  DetailSpan& operator=(const DetailSpan&) = delete;
  ~DetailSpan() {
    if (name_ != nullptr) {
      detail::commit_event(name_, t0_ns_, clock_ns(), {});
    }
  }

 private:
  static std::uint64_t clock_ns();

  const char* name_ = nullptr;
  std::uint64_t t0_ns_ = 0;
};

}  // namespace mcsm::obs

