#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// In-memory span recorder for traced runs. Spans are taken around calls
/// into the library's public functions from the harness's own code; the
/// library itself is never instrumented. Each thread appends to its own
/// buffer (one lock per thread, at its first span), and the spans are
/// only read once every traced thread has joined.
///
/// A Scope on a null tracer records nothing, so one code path serves the
/// traced run and its untraced twin, and their difference is the tracing
/// overhead.
class Tracer {
 public:
  struct Span {
    const char* name;  // A string literal.
    uint64_t id;
    uint64_t parent;   // 0 for a root span.
    uint64_t op;       // The request, page or site the span worked for.
    int64_t start_ns;
    int64_t end_ns;
    int32_t thread;

    double micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
  };

  /// Parent marker: the innermost open span of the calling thread.
  static constexpr uint64_t kInherit = ~uint64_t{0};

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t op = 0,
          uint64_t parent = kInherit);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// 0 when the tracer is null.
    uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_{};
  };

  /// Every recorded span, by thread then start. Call only when no span is
  /// open on any thread.
  std::vector<Span> Spans() const;

  /// Writes the spans as CSV (name,id,parent,op,thread,start_ns,end_ns).
  bool WriteCsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<uint64_t> open;  // Ids of this thread's open spans.
    int32_t thread = 0;
  };

  Buffer* ThreadBuffer();
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  const uint64_t generation_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Aggregates over a span list.
struct SpanStats {
  int64_t count = 0;
  double total_us = 0.0;
  double mean_us() const {
    return count > 0 ? total_us / static_cast<double>(count) : 0.0;
  }
};
SpanStats Stats(const std::vector<Tracer::Span>& spans, const char* name);
/// Per-span durations (us) of every span named `name`.
std::vector<double> Durations(const std::vector<Tracer::Span>& spans,
                              const char* name);
/// Self time of the spans named `parent`: their total duration minus the
/// union of the intervals their direct children cover (children may run
/// concurrently on other threads; overlapping time counts once).
double SelfMicros(const std::vector<Tracer::Span>& spans, const char* parent);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
