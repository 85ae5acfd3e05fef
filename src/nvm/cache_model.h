// Set-associative tag model: the last-level cache (L3), and, with one way
// per set, the Memory-Mode DRAM-cache directory.
//
// The model tracks tags only (no data): the live bytes are in host memory;
// the model decides whether an instrumented access is a hit or miss and
// which dirty line an install evicts. That is all the timing model needs,
// and it is what makes the memcached working-set experiment (paper Fig 8)
// reproducible: the 32MB-vs-32GB cliff is purely a function of tag capacity.
//
// In Intel Memory Mode the memory controller keeps a directory (DIR in
// paper Fig 1a) that lets DRAM act as a direct-mapped, line-granularity
// cache of Optane; the paper's PDRAM proposal (Fig 5a) reuses it with
// reserve power. A 1-way CacheModel is exactly that directory: set =
// line % (bytes / 64), a hit is a tag match, and a miss replaces the one
// resident line, reporting it when dirty.
//
// Replacement is true-LRU within a set (deterministic, which the
// discrete-event engine requires for replayability).
#pragma once

#include <cstdint>
#include <vector>

namespace nvm {

class CacheModel {
 public:
  static constexpr uint64_t kNoLine = ~0ull;

  struct AccessResult {
    bool hit;
    uint64_t evicted_dirty_line;  // kNoLine if none
  };

  /// `bytes` total capacity, `ways` associativity; line size is 64 B.
  CacheModel(uint64_t bytes, int ways);

  /// Look up + install `line` (an address >> 6). `is_write` marks dirty.
  AccessResult access(uint64_t line, bool is_write);

  /// Remove `line` (clwb/clflush semantics: line is written back and, for
  /// modelling purposes, dropped from the dirty state). Returns true if the
  /// line was present and dirty.
  bool clean(uint64_t line);

  void reset();

  uint64_t num_sets() const { return num_sets_; }

 private:
  // The LRU tick and the dirty bit share one word, so a way is 16 bytes: a
  // 512 MiB directory holds 8M ways in 128 MiB. The 63-bit tick never
  // wraps, so LRU order does not depend on run length.
  struct Way {
    uint64_t tag = kNoLine;
    uint64_t stamp = 0;  // (lru tick << 1) | dirty

    uint64_t lru() const { return stamp >> 1; }
    bool dirty() const { return (stamp & 1) != 0; }
  };
  static_assert(sizeof(Way) == 16, "a way must stay 16 bytes (directory RSS)");

  int ways_;
  uint64_t num_sets_;
  uint64_t tick_ = 0;
  std::vector<Way> ways_store_;  // num_sets_ * ways_, row-major by set

  Way* set_of(uint64_t line) {
    return &ways_store_[(line % num_sets_) * static_cast<uint64_t>(ways_)];
  }
};

}  // namespace nvm
