#include "harness/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

namespace {

std::atomic<uint64_t> g_generations{1};

// The calling thread's buffer, valid while `generation` matches the
// tracer that registered it (generations are never reused, so a stale
// pointer from an earlier tracer is never followed).
struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

Tracer::Tracer()
    : generation_(g_generations.fetch_add(1)),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer::Buffer* Tracer::ThreadBuffer() {
  if (t_slot.generation == generation_) {
    return static_cast<Buffer*>(t_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buffer = buffers_.back().get();
  buffer->thread = static_cast<int32_t>(buffers_.size() - 1);
  buffer->spans.reserve(1 << 14);
  t_slot = ThreadSlot{generation_, buffer};
  return buffer;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t op,
                     uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Buffer* buffer = tracer_->ThreadBuffer();
  span_.name = name;
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != kInherit
                     ? parent
                     : (buffer->open.empty() ? 0 : buffer->open.back());
  span_.op = op;
  span_.thread = buffer->thread;
  buffer->open.push_back(span_.id);
  span_.start_ns = tracer_->NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  Buffer* buffer = tracer_->ThreadBuffer();
  buffer->open.pop_back();
  buffer->spans.push_back(span_);
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.thread != b.thread ? a.thread < b.thread : a.start_ns < b.start_ns;
  });
  return all;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "name,id,parent,op,thread,start_ns,end_ns\n");
  for (const Span& span : Spans()) {
    std::fprintf(out, "%s,%llu,%llu,%llu,%d,%lld,%lld\n", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.op), span.thread,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0;
}

SpanStats Stats(const std::vector<Tracer::Span>& spans, const char* name) {
  SpanStats stats;
  for (const Tracer::Span& span : spans) {
    if (std::strcmp(span.name, name) != 0) continue;
    ++stats.count;
    stats.total_us += span.micros();
  }
  return stats;
}

std::vector<double> Durations(const std::vector<Tracer::Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const Tracer::Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) out.push_back(span.micros());
  }
  return out;
}

double SelfMicros(const std::vector<Tracer::Span>& spans, const char* parent) {
  std::map<uint64_t, const Tracer::Span*> parents;
  for (const Tracer::Span& span : spans) {
    if (std::strcmp(span.name, parent) == 0) parents[span.id] = &span;
  }
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Tracer::Span& span : spans) {
    auto it = parents.find(span.parent);
    if (it == parents.end()) continue;
    // Clip to the parent's interval.
    int64_t begin = std::max(span.start_ns, it->second->start_ns);
    int64_t end = std::min(span.end_ns, it->second->end_ns);
    if (end > begin) children[span.parent].emplace_back(begin, end);
  }
  double self_ns = 0.0;
  for (const auto& [id, span] : parents) {
    int64_t covered = 0;
    auto& intervals = children[id];
    std::sort(intervals.begin(), intervals.end());
    int64_t run_begin = 0;
    int64_t run_end = -1;
    for (const auto& [begin, end] : intervals) {
      if (begin > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = begin;
        run_end = end;
      } else {
        run_end = std::max(run_end, end);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    self_ns += static_cast<double>(span->end_ns - span->start_ns - covered);
  }
  return self_ns / 1e3;
}

}  // namespace perfbench
