#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ntw {
namespace {

/// Pool instruments, registered once. Counters are updated per loop (not
/// per index), so instrumentation adds O(1) relaxed atomics per
/// ParallelFor — nothing on the index hot path.
struct PoolMetrics {
  obs::Counter* parallel_for;  // Fanned-out loops.
  obs::Counter* inline_loops;  // Loops degraded to inline execution.
  obs::Counter* tasks;         // Total indices executed.
  obs::Gauge* threads;         // Width of the most recent pool.

  static PoolMetrics& Get() {
    static PoolMetrics m{
        obs::Registry::Global().GetCounter("ntw.pool.parallel_for"),
        obs::Registry::Global().GetCounter("ntw.pool.inline_loops"),
        obs::Registry::Global().GetCounter("ntw.pool.tasks"),
        obs::Registry::Global().GetGauge("ntw.pool.threads"),
    };
    return m;
  }
};

/// Set while a thread is executing pool work, so nested ParallelFor calls
/// degrade to inline execution instead of deadlocking on a busy pool.
thread_local bool t_in_pool_work = false;

/// State shared between the caller of one ParallelFor and the helper tasks
/// it enqueued. Helpers may still be queued when the caller returns (they
/// will find the counter exhausted and exit), so lifetime is shared.
struct LoopState {
  size_t n = 0;
  const std::function<void(size_t)>* fn = nullptr;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::exception_ptr error;  // Guarded by mu; first failure wins.

  /// Runs index `i`, then claims indices until the range is drained.
  /// Returns how many it ran, for Complete().
  size_t Drain(size_t i) {
    size_t ran = 0;
    for (; i < n; i = next.fetch_add(1), ++ran) {
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    }
    return ran;
  }

  /// Counts `ran` indices done; the last one wakes the ParallelFor caller.
  void Complete(size_t ran) {
    if (completed.fetch_add(ran) + ran == n) {
      std::lock_guard<std::mutex> lock(mu);
      done_cv.notify_all();
    }
  }
};

}  // namespace

ThreadPool::ThreadPool(int threads) : threads_(threads < 1 ? 1 : threads) {
  PoolMetrics::Get().threads->Set(threads_);
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_work = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run.
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.tasks->Add(static_cast<int64_t>(n));
  // Inline paths: trivial loops, a serial pool, or a nested call from
  // inside pool work (the outer loop already owns the workers).
  if (n == 1 || threads_ == 1 || t_in_pool_work) {
    metrics.inline_loops->Add(1);
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  metrics.parallel_for->Add(1);
  obs::Span loop_span("pool.parallel_for");

  auto state = std::make_shared<LoopState>();
  state->n = n;
  state->fn = &fn;

  size_t helpers = static_cast<size_t>(threads_ - 1);
  if (helpers > n - 1) helpers = n - 1;  // The caller claims work too.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < helpers; ++i) {
      // The helper span records this worker's share of the loop — the
      // per-thread pool activity view of the trace. It opens only once
      // the helper holds an index and closes before Complete(), so no
      // span is written after ParallelFor returns (the Tracer's
      // quiescent point).
      queue_.push_back([state] {
        size_t first = state->next.fetch_add(1);
        if (first >= state->n) return;
        size_t ran = 0;
        {
          obs::Span span("pool.drain");
          ran = state->Drain(first);
        }
        state->Complete(ran);
      });
    }
  }
  cv_.notify_all();

  // The caller participates: this both bounds latency when the pool is
  // saturated and guarantees progress even if every worker is busy.
  bool was_in_pool_work = t_in_pool_work;
  t_in_pool_work = true;
  state->Complete(state->Drain(state->next.fetch_add(1)));
  t_in_pool_work = was_in_pool_work;

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] {
    return state->completed.load() == state->n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;  // NOLINT: intentional process lifetime.
int g_threads = 0;                   // 0 = hardware concurrency.

}  // namespace

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(
        g_threads > 0 ? g_threads : HardwareConcurrency());
  }
  return *g_pool;
}

void ThreadPool::SetGlobalThreads(int threads) {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_threads = threads < 0 ? 0 : threads;
  int width = g_threads > 0 ? g_threads : HardwareConcurrency();
  if (g_pool && g_pool->threads() != width) g_pool.reset();
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(width);
}

int ThreadPool::GlobalThreads() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool) return g_pool->threads();
  return g_threads > 0 ? g_threads : HardwareConcurrency();
}

int HardwareConcurrency() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

Result<int> ConfigureGlobalThreadPool(const Flags& flags) {
  NTW_ASSIGN_OR_RETURN(int64_t threads, flags.GetInt("threads", 0));
  if (threads < 0) {
    return Status::OutOfRange("--threads must be >= 0 (0 = hardware)");
  }
  ThreadPool::SetGlobalThreads(static_cast<int>(threads));
  return ThreadPool::GlobalThreads();
}

}  // namespace ntw
