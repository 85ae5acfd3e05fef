// Ownership records (orecs) and the global version clock.
//
// The paper's best-performing PTMs ("orec-lazy", "orec-eager" from [38])
// coordinate concurrent transactions with a table of versioned locks in the
// style of TL2 [26] / TinySTM [27]: a word's pool offset hashes to one orec,
// so aliasing is the same wherever the pool lands; an orec holds either
// (version << 1) for an unlocked location or (owner_id << 1 | 1) while a
// transaction owns it. The table and the clock are *volatile* (DRAM): after
// a crash all speculation state is gone and versions restart from 1, which
// is safe because recovery quiesces all logs before new transactions run.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/page_block.h"

namespace ptm {

class OrecTable {
 public:
  static constexpr size_t kNumOrecs = 1u << 20;

  explicit OrecTable(const char* pool_base)
      : base_(reinterpret_cast<uintptr_t>(pool_base)), block_(kNumOrecs * sizeof(uint64_t)),
        orecs_(reinterpret_cast<std::atomic<uint64_t>*>(block_.data())) { reset(); }

  static bool is_locked(uint64_t v) { return (v & 1) != 0; }
  static uint64_t lock_word(uint32_t owner) { return (static_cast<uint64_t>(owner) << 1) | 1; }
  static uint32_t owner_of(uint64_t v) { return static_cast<uint32_t>(v >> 1); }
  static uint64_t version_of(uint64_t v) { return v >> 1; }
  static constexpr uint64_t version_word(uint64_t version) { return version << 1; }

  std::atomic<uint64_t>& for_addr(const void* addr) {
    const uintptr_t off = reinterpret_cast<uintptr_t>(addr) - base_;
    // Word-granularity hashing, as in the LLVM PTM plugin [39].
    const uint64_t h = (off >> 3) * 0x9e3779b97f4a7c15ull;
    return orecs_[(h >> 40) & (kNumOrecs - 1)];
  }

  std::atomic<uint64_t>& at(size_t i) { return orecs_[i]; }

  /// Current global time; transactions sample it at begin.
  uint64_t sample_clock() const { return clock_.load(std::memory_order_acquire); }

  /// Advance the clock for a committing writer; returns the write version.
  uint64_t tick() { return clock_.fetch_add(1, std::memory_order_acq_rel) + 1; }

  /// Drop all speculation state (startup / post-crash) by dropping its pages.
  void reset() {
    block_.zero_on_demand();
    clock_.store(1, std::memory_order_release);
  }

 private:
  uintptr_t base_;
  util::PageBlock block_;
  std::atomic<uint64_t>* orecs_;
  std::atomic<uint64_t> clock_{1};
};

// The orecs are lock-free atomics laid out as plain words and used without a
// constructor, as in shared memory: a zeroed page reads as unlocked version 0.
static_assert(OrecTable::version_word(0) == 0 && sizeof(std::atomic<uint64_t>) == 8 &&
              std::atomic<uint64_t>::is_always_lock_free);

}  // namespace ptm
