// Unit tests for the bump allocator behind the arena DOM: alignment,
// string copies, the Reset() recycling contract (capacity retained and
// consolidated), and the fresh-vs-reused byte accounting.

#include "common/arena.h"

#include <cstdint>
#include <cstring>
#include <string>

#include "gtest/gtest.h"

namespace ntw {
namespace {

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  arena.Allocate(1, 1);
  char* p8 = arena.Allocate(8, 8);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p8) % 8, 0u);
  arena.Allocate(3, 1);
  char* p16 = arena.Allocate(16, alignof(std::max_align_t));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p16) % alignof(std::max_align_t), 0u);
}

TEST(ArenaTest, CopyStringIsStableAcrossLaterAllocations) {
  Arena arena;
  std::string_view a = arena.CopyString("hello");
  std::string_view b = arena.CopyString("world");
  for (int i = 0; i < 1000; ++i) arena.Allocate(64);
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "world");
}

TEST(ArenaTest, CopyEmptyStringTouchesNothing) {
  Arena arena;
  std::string_view v = arena.CopyString("");
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(ArenaTest, FirstCycleIsAllFreshBytes) {
  Arena arena(1024);
  arena.Allocate(100, 1);
  EXPECT_EQ(arena.used(), 100u);
  EXPECT_EQ(arena.fresh_bytes(), 100u);
  // Later allocations in the same (already-grown) chunk are not "fresh":
  // the chunk exists, only its first use grew capacity.
  arena.Allocate(100, 1);
  EXPECT_EQ(arena.used(), 200u);
  EXPECT_EQ(arena.fresh_bytes(), 100u);
}

TEST(ArenaTest, ResetRecyclesWithoutFreshGrowth) {
  Arena arena(1024);
  arena.Allocate(700, 1);
  size_t capacity = arena.capacity();
  arena.Reset();
  EXPECT_EQ(arena.used(), 0u);
  EXPECT_EQ(arena.fresh_bytes(), 0u);
  EXPECT_EQ(arena.capacity(), capacity);
  // The whole second cycle is served from recycled capacity.
  arena.Allocate(700, 1);
  EXPECT_EQ(arena.used(), 700u);
  EXPECT_EQ(arena.fresh_bytes(), 0u);
}

TEST(ArenaTest, ResetConsolidatesSpilledChunks) {
  Arena arena(256);
  // Spill across several chunks.
  for (int i = 0; i < 10; ++i) arena.Allocate(200, 1);
  size_t capacity = arena.capacity();
  EXPECT_GE(capacity, 2000u);
  arena.Reset();
  EXPECT_EQ(arena.capacity(), capacity);
  // After consolidation the same workload fits one contiguous run: no
  // fresh growth, and every allocation bumps within one chunk.
  for (int i = 0; i < 10; ++i) arena.Allocate(200, 1);
  EXPECT_EQ(arena.fresh_bytes(), 0u);
}

TEST(ArenaTest, OversizeAllocationGetsItsOwnChunk) {
  Arena arena(64);
  char* p = arena.Allocate(10000, 1);
  std::memset(p, 0xab, 10000);  // Must be fully writable.
  EXPECT_GE(arena.capacity(), 10000u);
  EXPECT_EQ(arena.fresh_bytes(), 10000u);
}

TEST(ArenaTest, GrowthIsGeometric) {
  Arena arena(128);
  // Repeatedly overflow; each new chunk is at least the prior capacity, so
  // chunk count grows logarithmically with total bytes.
  for (int i = 0; i < 100; ++i) arena.Allocate(120, 1);
  size_t first_capacity = arena.capacity();
  for (int i = 0; i < 1000; ++i) arena.Allocate(120, 1);
  // 10x the bytes should come nowhere near 10x the chunk count; capacity
  // doubling keeps the fresh-growth events rare.
  EXPECT_GE(arena.capacity(), first_capacity);
  arena.Reset();
  for (int i = 0; i < 1100; ++i) arena.Allocate(120, 1);
  EXPECT_EQ(arena.fresh_bytes(), 0u);
}

}  // namespace
}  // namespace ntw
