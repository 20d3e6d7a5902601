#ifndef NTW_COMMON_THREAD_POOL_H_
#define NTW_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/result.h"

namespace ntw {

/// A fixed-size worker pool for the enumeration hot loops.
///
/// Determinism contract: ParallelFor(n, fn) runs fn(0..n-1) exactly once
/// each and returns only when all have finished. Which worker runs which
/// index is unspecified, so fn must confine its writes to per-index state
/// (the callers all write into pre-sized result slots and merge them
/// serially in index order afterwards). Under that discipline the
/// observable output of a parallel loop is byte-identical at every thread
/// count, including 1.
///
/// Nesting: a ParallelFor issued from inside a pool worker runs inline on
/// the calling thread (serially). This keeps nested fan-out (per-site loop
/// → per-round enumeration loop) deadlock-free without oversubscription.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the caller participates in every
  /// ParallelFor, so `threads` is the true parallel width). Clamped to ≥1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n); blocks until all complete. The
  /// first exception thrown by fn (if any) is rethrown in the caller once
  /// the loop has drained.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// The process-wide pool used by the enumeration stack. Created on first
  /// use with GlobalThreads() width.
  static ThreadPool& Global();

  /// Sets the width of the global pool (0 = hardware concurrency) and
  /// rebuilds it if it already exists. Must not be called while global
  /// ParallelFor loops are in flight — configure at startup or between
  /// runs.
  static void SetGlobalThreads(int threads);

  /// The width the global pool has (or would be created with).
  static int GlobalThreads();

 private:
  void WorkerLoop();

  int threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// std::thread::hardware_concurrency with a ≥1 floor.
int HardwareConcurrency();

/// Reads the process-wide `--threads` flag (0 or absent = hardware
/// concurrency) and configures the global pool. Returns the width in use,
/// or OutOfRange on a malformed or negative value.
Result<int> ConfigureGlobalThreadPool(const Flags& flags);

}  // namespace ntw

#endif  // NTW_COMMON_THREAD_POOL_H_
