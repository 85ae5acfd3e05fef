#include "nvm/cache_model.h"

#include <cassert>

namespace nvm {

CacheModel::CacheModel(uint64_t bytes, int ways) : ways_(ways) {
  assert(ways > 0);
  num_sets_ = bytes / 64 / static_cast<uint64_t>(ways);
  if (num_sets_ == 0) num_sets_ = 1;
  ways_store_.assign(num_sets_ * static_cast<uint64_t>(ways_), Way{});
}

CacheModel::AccessResult CacheModel::access(uint64_t line, bool is_write) {
  Way* set = set_of(line);
  tick_++;
  const uint64_t dirty = is_write ? 1 : 0;
  // Hit?
  for (int i = 0; i < ways_; i++) {
    if (set[i].tag == line) {
      set[i].stamp = (tick_ << 1) | (set[i].stamp & 1) | dirty;
      return {true, kNoLine};
    }
  }
  // Miss: install over the LRU way (or an invalid one).
  int victim = 0;
  for (int i = 1; i < ways_; i++) {
    if (set[i].tag == kNoLine) {
      victim = i;
      break;
    }
    if (set[i].lru() < set[victim].lru()) victim = i;
  }
  uint64_t evicted = kNoLine;
  if (set[victim].tag != kNoLine && set[victim].dirty()) evicted = set[victim].tag;
  set[victim] = Way{line, (tick_ << 1) | dirty};
  return {false, evicted};
}

bool CacheModel::clean(uint64_t line) {
  Way* set = set_of(line);
  for (int i = 0; i < ways_; i++) {
    if (set[i].tag == line) {
      const bool was_dirty = set[i].dirty();
      set[i].stamp &= ~uint64_t{1};
      return was_dirty;
    }
  }
  return false;
}

void CacheModel::reset() {
  ways_store_.assign(ways_store_.size(), Way{});
  tick_ = 0;
}

}  // namespace nvm
