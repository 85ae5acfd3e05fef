// Persistent memory pool.
//
// Stands in for a DAX-mapped file on Optane (paper §III.A): a fixed-layout
// region holding a header, an application root area, the PTM runtime's
// per-thread metadata (transaction status words + redo/undo/alloc logs),
// and the persistent heap managed by alloc::PersistentAllocator.
//
// Layout (offsets from base):
//   [0,        4K)   PoolHeader
//   [4K,       8K)   root area (applications place their root struct here)
//   [8K,  8K+M*W)    runtime metadata: W = max_workers slots of M bytes
//   [heap_off, size) persistent heap
//
// Persistent pointers are raw host pointers: the pool mapping is stable for
// the lifetime of the process, and crash simulation reverts *contents* (via
// Memory's persisted image) rather than remapping. Log records that must
// survive recovery store pool offsets, not pointers.
//
// A fresh pool reads as all zeroes (bump-allocated log records rely on it),
// but only the pages a run touches become resident: see Pool::Pool.
#pragma once

#include <cstdint>
#include <memory>

#include "nvm/memory.h"
#include "util/page_block.h"

namespace nvm {

struct PoolHeader {
  uint64_t magic;
  uint64_t size;
  uint64_t meta_off;
  uint64_t meta_per_worker;
  uint64_t heap_off;
  uint64_t initialized;  // set after first-time format completes
};

class Pool {
 public:
  static constexpr uint64_t kMagic = 0x50544d504f4f4c31ull;  // "PTMPOOL1"
  static constexpr size_t kHeaderBytes = 4096;
  static constexpr size_t kRootBytes = 4096;

  explicit Pool(const SystemConfig& cfg);

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  char* base() const { return base_.data(); }
  size_t size() const { return cfg_.pool_size; }

  /// Application root area, cast to the application's root type. The root
  /// type must fit in kRootBytes and be trivially copyable.
  template <typename T>
  T* root() {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(sizeof(T) <= kRootBytes, "root type too large for root area");
    return reinterpret_cast<T*>(base() + kHeaderBytes);
  }

  /// Per-worker runtime metadata slot (the PTM runtime carves this up).
  char* worker_meta(int worker) {
    return base() + header()->meta_off +
           static_cast<uint64_t>(worker) * header()->meta_per_worker;
  }
  size_t worker_meta_bytes() const { return cfg_.per_worker_meta_bytes; }

  char* heap_base() { return base() + header()->heap_off; }
  size_t heap_bytes() const { return cfg_.pool_size - header()->heap_off; }

  PoolHeader* header() { return reinterpret_cast<PoolHeader*>(base()); }
  const PoolHeader* header() const { return reinterpret_cast<const PoolHeader*>(base()); }

  uint64_t offset_of(const void* p) const {
    return static_cast<uint64_t>(static_cast<const char*>(p) - base());
  }
  void* at(uint64_t off) { return base() + off; }
  bool contains(const void* p) const {
    return p >= base() && p < base() + cfg_.pool_size;
  }

  Memory& mem() { return *mem_; }
  /// The caller's config with the REPRO_* opt-in knobs applied (see
  /// SystemConfig); everything built over this pool reads this copy.
  const SystemConfig& config() const { return cfg_; }

  /// Simulate a power failure (crash_sim configs only): the heap reverts to
  /// its persisted image. Callers must then run PTM recovery before using
  /// the pool again.
  void simulate_power_failure(util::Rng& rng) { mem_->simulate_power_failure(rng); }

 private:
  SystemConfig cfg_;
  // Declared before mem_, which points into the block: the block outlives
  // the memory model, and is freed if Memory's constructor throws.
  util::PageBlock base_;
  std::unique_ptr<Memory> mem_;
};

}  // namespace nvm
