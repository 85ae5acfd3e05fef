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

#include "util/page_block.h"

namespace nvm {

class CacheModel {
 public:
  static constexpr uint64_t kNoLine = ~0ull;
  static constexpr int kMaxWays = 16;

  struct AccessResult {
    bool hit;
    uint64_t evicted_dirty_line;  // kNoLine if none
  };

  /// `bytes` total capacity, `ways` associativity (1..kMaxWays); line size
  /// is 64 B.
  CacheModel(uint64_t bytes, int ways);

  /// Look up + install `line` (an address >> 6). `is_write` marks dirty.
  /// Throws std::out_of_range for a line at or past line_limit().
  AccessResult access(uint64_t line, bool is_write);

  /// Remove `line` (clwb/clflush semantics: line is written back and, for
  /// modelling purposes, dropped from the dirty state). Returns true if the
  /// line was present and dirty. Throws like access().
  bool clean(uint64_t line);

  void reset();

  /// Start the host cache miss on the set `line` maps to, ahead of an
  /// access. Changes nothing; a line past line_limit() is ignored.
  void prefetch(uint64_t line) const;

  uint64_t num_sets() const { return num_sets_; }

  /// One past the largest line id the model holds: its tag (line / sets + 1)
  /// must fit in 32 bits, and line * sets stay below 2^63 so that the
  /// reciprocal division is exact.
  uint64_t line_limit() const { return line_limit_; }

 private:
  // A set is `ways` packed 32-bit tags (line / sets + 1; 0 means empty)
  // followed by one byte per way: the recency rank (0 empty, 1 most recent)
  // and the dirty bit. So a way is 5 bytes: a 384 MiB directory holds 6M
  // ways in 30 MiB. The ranks of a set's n resident lines are always
  // 1..n, so LRU order does not depend on run length. The bytes start
  // zeroed on demand, which is the empty state.
  struct Set;

  int ways_;
  uint64_t num_sets_;
  uint64_t recip_;  // ceil(2^63 / num_sets_)
  uint64_t line_limit_;
  util::PageBlock store_;

  Set locate(uint64_t line) const;
};

}  // namespace nvm
