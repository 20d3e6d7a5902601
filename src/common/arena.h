#ifndef NTW_COMMON_ARENA_H_
#define NTW_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace ntw {

// Chunked bump allocator. Allocations are O(1) pointer bumps; nothing is
// freed individually — Reset() recycles every byte at once while keeping the
// underlying chunks, so a steady-state consumer (one page parse per request)
// performs no heap traffic at all after warm-up.
//
// Lifetime rule: every pointer or string_view handed out by an Arena is
// invalidated by Reset() and by the Arena's destruction. Nothing else ever
// moves an allocation.
//
// Not thread-safe; each Arena belongs to one request/buffer at a time.
class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(size_t min_chunk_bytes = kDefaultChunkBytes)
      : min_chunk_bytes_(min_chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `n` bytes aligned to `align` (a power of two, <= alignof(max_align_t)).
  char* Allocate(size_t n, size_t align = alignof(std::max_align_t));

  // Copies `s` into the arena and returns a view of the copy. Empty input
  // returns an empty view without touching the arena.
  std::string_view CopyString(std::string_view s);

  // Recycles all allocations. Chunk memory is retained; if the previous cycle
  // spilled into multiple chunks, they are consolidated into one large chunk
  // so subsequent cycles bump within a single run.
  void Reset();

  // Bytes handed out since the last Reset (including alignment padding).
  size_t used() const { return used_; }
  // Portion of used() that forced fresh chunk growth this cycle. The
  // difference used() - fresh_bytes() was served from recycled capacity.
  size_t fresh_bytes() const { return fresh_bytes_; }
  // Total bytes owned across all chunks.
  size_t capacity() const { return capacity_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  char* AllocateSlow(size_t n, size_t align);

  size_t min_chunk_bytes_;
  std::vector<Chunk> chunks_;
  char* ptr_ = nullptr;   // next free byte in the active (last) chunk
  char* end_ = nullptr;   // one past the active chunk
  size_t used_ = 0;
  size_t fresh_bytes_ = 0;
  size_t capacity_ = 0;
};

}  // namespace ntw

#endif  // NTW_COMMON_ARENA_H_
