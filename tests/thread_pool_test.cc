#include "common/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "gtest/gtest.h"

namespace ntw {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> counts(kN);
    pool.ParallelFor(kN, [&](size_t i) {
      counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(counts[i].load(), 1) << "index " << i << " with " << threads
                                     << " threads";
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, DeterministicSlotWritesMatchSerialResult) {
  std::vector<int64_t> serial(500);
  for (size_t i = 0; i < serial.size(); ++i) {
    serial[i] = static_cast<int64_t>(i * i + 7);
  }
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<int64_t> parallel(serial.size());
    pool.ParallelFor(parallel.size(), [&](size_t i) {
      parallel[i] = static_cast<int64_t>(i * i + 7);
    });
    EXPECT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 16;
  constexpr size_t kInner = 32;
  std::atomic<int> total{0};
  pool.ParallelFor(kOuter, [&](size_t) {
    pool.ParallelFor(kInner, [&](size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), static_cast<int>(kOuter * kInner));
}

TEST(ThreadPoolTest, ExceptionPropagatesAfterDraining) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                         completed.fetch_add(1, std::memory_order_relaxed);
                       }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 63);  // Every other index still ran.
}

TEST(ThreadPoolTest, WidthClampedToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  int calls = 0;
  pool.ParallelFor(5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

TEST(ThreadPoolTest, GlobalPoolConfigurableFromFlags) {
  const char* argv[] = {"tool", "--threads=3"};
  Result<Flags> flags = Flags::Parse(2, argv);
  ASSERT_TRUE(flags.ok());
  Result<int> width = ConfigureGlobalThreadPool(*flags);
  ASSERT_TRUE(width.ok());
  EXPECT_EQ(*width, 3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 3);
  EXPECT_EQ(ThreadPool::Global().threads(), 3);

  // 0 = hardware concurrency.
  const char* argv_hw[] = {"tool", "--threads=0"};
  Result<Flags> flags_hw = Flags::Parse(2, argv_hw);
  ASSERT_TRUE(flags_hw.ok());
  Result<int> hw = ConfigureGlobalThreadPool(*flags_hw);
  ASSERT_TRUE(hw.ok());
  EXPECT_EQ(*hw, HardwareConcurrency());

  // Negative values are rejected.
  const char* argv_bad[] = {"tool", "--threads=-2"};
  Result<Flags> flags_bad = Flags::Parse(2, argv_bad);
  ASSERT_TRUE(flags_bad.ok());
  EXPECT_FALSE(ConfigureGlobalThreadPool(*flags_bad).ok());

  ThreadPool::SetGlobalThreads(0);  // Restore the default for other tests.
}

}  // namespace
}  // namespace ntw
