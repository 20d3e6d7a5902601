#include "html/name_table.h"

#include <array>
#include <deque>
#include <functional>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>

namespace ntw::html {

namespace {

struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

using TransparentMap =
    std::unordered_map<std::string, NameTable::Interned, TransparentStringHash,
                       std::equal_to<>>;

}  // namespace

struct NameTable::Rep {
  mutable std::shared_mutex mu;
  TransparentMap map;
  // Stable storage for interned names: deque never moves existing elements.
  std::deque<std::string> names;
};

NameTable::NameTable() : rep_(new Rep) {}

NameTable& NameTable::Global() {
  static NameTable* table = new NameTable();
  return *table;
}

NameTable::Interned NameTable::Intern(std::string_view name) {
  // Front line: a tiny thread-local direct-mapped cache. Parsing interns the
  // same dozen tag and attribute names over and over, so one hash-free probe
  // with a full-string confirm hits almost always — cheaper than even an
  // unordered_map lookup. Collisions just overwrite the slot; correctness
  // rests entirely on the string comparison.
  struct Slot {
    std::string name;
    Interned interned;
  };
  thread_local std::array<Slot, 256> direct;
  Slot* slot = nullptr;
  if (!name.empty()) {
    size_t h = (name.size() * 131 +
                static_cast<unsigned char>(name.front()) * 31 +
                static_cast<unsigned char>(name.back())) &
               (direct.size() - 1);
    slot = &direct[h];
    if (slot->name == name) return slot->interned;
  }

  // Second line: a per-thread map of everything this thread has already
  // interned. The name universe (tags + attribute names) is tiny, so the
  // cache converges after the first few pages and parsing takes no locks.
  thread_local TransparentMap cache;
  if (auto it = cache.find(name); it != cache.end()) {
    if (slot != nullptr) {
      slot->name = name;
      slot->interned = it->second;
    }
    return it->second;
  }

  Interned interned;
  {
    std::shared_lock<std::shared_mutex> lock(rep_->mu);
    if (auto it = rep_->map.find(name); it != rep_->map.end()) {
      interned = it->second;
      lock.unlock();
      cache.emplace(std::string(name), interned);
      if (slot != nullptr) {
        slot->name = name;
        slot->interned = interned;
      }
      return interned;
    }
  }
  {
    std::unique_lock<std::shared_mutex> lock(rep_->mu);
    if (auto it = rep_->map.find(name); it != rep_->map.end()) {
      interned = it->second;
    } else {
      rep_->names.emplace_back(name);
      interned.id = static_cast<int32_t>(rep_->names.size()) - 1;
      interned.name = rep_->names.back();
      rep_->map.emplace(std::string(name), interned);
    }
  }
  cache.emplace(std::string(name), interned);
  if (slot != nullptr) {
    slot->name = name;
    slot->interned = interned;
  }
  return interned;
}

int32_t NameTable::Find(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(rep_->mu);
  if (auto it = rep_->map.find(name); it != rep_->map.end()) {
    return it->second.id;
  }
  return -1;
}

}  // namespace ntw::html
