#include "alloc/persistent_alloc.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstring>
#include <new>
#include <stdexcept>

#include "analysis/rsan.h"
#include "nvm/memory.h"

namespace alloc {
namespace {

constexpr size_t kClassSizes[PersistentAllocator::kNumClasses] = {
    16,  32,  48,   64,   96,   128,  192,   256,
    384, 512, 1024, 2048, 4096, 8192, 16384, 65536};

constexpr uint64_t kHeaderMagicShift = 48;
constexpr uint64_t kHeaderMagic = 0xA10Cull;  // tag in the block header word

uint64_t make_header(int cls, size_t payload) {
  return (kHeaderMagic << kHeaderMagicShift) | (static_cast<uint64_t>(cls) << 40) |
         static_cast<uint64_t>(payload);
}

int header_class(uint64_t h) { return static_cast<int>((h >> 40) & 0xff); }
size_t header_size(uint64_t h) { return static_cast<size_t>(h & ((1ull << 40) - 1)); }
// assert-only; [[maybe_unused]] keeps NDEBUG builds warning-clean
[[maybe_unused]] bool header_valid(uint64_t h) {
  return (h >> kHeaderMagicShift) == kHeaderMagic;
}

}  // namespace

size_t PersistentAllocator::class_size(int cls) { return kClassSizes[cls]; }

int PersistentAllocator::class_for(size_t n) {
  for (int i = 0; i < kNumClasses; i++) {
    if (kClassSizes[i] >= n) return i;
  }
  return -1;
}

PersistentAllocator::PersistentAllocator(nvm::Pool& pool)
    : pool_(pool), heap_(pool.heap_base()), heap_bytes_(pool.heap_bytes()),
      max_workers_(pool.config().max_workers) {
  bump_ = reinterpret_cast<uint64_t*>(heap_);
  heads_ = bump_ + 1;
  const size_t header_words = 1 + static_cast<size_t>(max_workers_) * kNumClasses;
  data_start_ = (header_words * 8 + 63) & ~size_t{63};
  // A fresh pool's bump word reads 0: blocks start past the header, and the
  // first reserve_bump makes a high-water mark at or past it durable.
  bump_cache_.store(std::max<uint64_t>(*bump_, data_start_), std::memory_order_relaxed);
}

uint64_t PersistentAllocator::reserve_bump(sim::ExecContext& ctx, stats::TxCounters* c,
                                           size_t need, size_t align) {
  // rsan: allocator metadata is protected by its own atomics, not by orecs;
  // the CAS-max below is the declared synchronization for the bump word.
  analysis::Rsan* rs = pool_.mem().rsan();
  analysis::Rsan::UncoveredScope us(rs, ctx.worker_id());
  if (rs != nullptr) rs->on_atomic_rmw(ctx.worker_id(), bump_);
  // 1. Lock-free reservation in the volatile counter (no scheduling point).
  uint64_t old = bump_cache_.load(std::memory_order_relaxed);
  uint64_t start;
  do {
    start = (old + align - 1) & ~(align - 1);
    if (start + need > heap_bytes_) throw std::bad_alloc();
  } while (!bump_cache_.compare_exchange_weak(old, start + need, std::memory_order_acq_rel));

  // 2. Durably advance the persistent high-water mark (CAS-max: a slower
  //    worker persisting a smaller end must never regress it), then charge
  //    the store+flush+fence cost.
  // pmemlint: allow(cross-worker CAS-max; accounted and persisted via mem below)
  std::atomic_ref<uint64_t> hw(*bump_);
  uint64_t cur = hw.load(std::memory_order_relaxed);
  const uint64_t end = start + need;
  // pmemlint: allow(CAS-max declared to rsan via on_atomic_rmw above; accounted below)
  while (cur < end && !hw.compare_exchange_weak(cur, end, std::memory_order_acq_rel)) {
  }
  nvm::Memory& mem = pool_.mem();
  mem.account_store_in_place(ctx, c, bump_, nvm::Space::kData);
  mem.clwb(ctx, c, bump_);
  mem.sfence(ctx, c);
  return start;
}

void PersistentAllocator::persist_word(sim::ExecContext& ctx, stats::TxCounters* c,
                                       uint64_t* w, uint64_t v) {
  nvm::Memory& mem = pool_.mem();
  mem.store_word(ctx, c, w, v, nvm::Space::kData);
  mem.clwb(ctx, c, w);
  mem.sfence(ctx, c);
}

void* PersistentAllocator::alloc(sim::ExecContext& ctx, stats::TxCounters* c, size_t n) {
  if (n == 0) n = 8;
  const int cls = class_for(n);
  if (cls < 0) throw std::invalid_argument("allocation exceeds kMaxBlock");
  nvm::Memory& mem = pool_.mem();
  // rsan: free-list heads and links are per-worker allocator metadata with
  // no orec coverage by design; races on them are still checked.
  analysis::Rsan::UncoveredScope rsan_us(mem.rsan(), ctx.worker_id());

  uint64_t* head = head_slot(ctx.worker_id(), cls);
  const uint64_t head_off = mem.load_word(ctx, c, head, nvm::Space::kData);
  if (head_off != 0) {
    auto* payload = reinterpret_cast<uint64_t*>(heap_ + head_off);
    if (is_quarantined(payload - 1, 16)) {
      // Pop-time purge: a block quarantined after it entered the free list
      // is diverted here instead of being handed out. Its link word sits on
      // the damaged line itself, so the remainder of this list is cut, not
      // chased — the leak is bounded and deliberate (degraded mode).
      persist_word(ctx, c, head, 0);
      quarantined_blocks_++;
    } else {
      // Pop: the block's first payload word is the next-free offset.
      const uint64_t next = mem.load_word(ctx, c, payload, nvm::Space::kData);
      persist_word(ctx, c, head, next);
      return payload;
    }
  }

  // Fresh block from the bump region. The reservation is atomic; the block
  // header persists before the block is handed out, so recovery can always
  // trust block headers of logged allocations, and committed data never
  // sits beyond the persisted high-water mark.
  const size_t need = 8 + kClassSizes[cls];
  const uint64_t cur = reserve_bump(ctx, c, need, 8);
  auto* hdr = reinterpret_cast<uint64_t*>(heap_ + cur);
  mem.store_word(ctx, c, hdr, make_header(cls, kClassSizes[cls]), nvm::Space::kData);
  mem.clwb(ctx, c, hdr);
  mem.sfence(ctx, c);
  return hdr + 1;
}

void PersistentAllocator::free_block(sim::ExecContext& ctx, stats::TxCounters* c, void* p) {
  assert(pool_.contains(p));
  auto* payload = static_cast<uint64_t*>(p);
  // A quarantined block never re-enters circulation: these are the lines
  // recovery found damaged beyond repair, so the header word below may be
  // garbage and the space must stay out of the free lists.
  if (is_quarantined(payload - 1, 16)) {
    quarantined_blocks_++;
    return;
  }
  const uint64_t hdr = *(payload - 1);
  assert(header_valid(hdr) && "free of a non-heap block");
  const int cls = header_class(hdr);
  nvm::Memory& mem = pool_.mem();
  // rsan: same contract as alloc() — allocator metadata, no orec coverage.
  analysis::Rsan::UncoveredScope rsan_us(mem.rsan(), ctx.worker_id());

  uint64_t* head = head_slot(ctx.worker_id(), cls);
  const uint64_t old_head = mem.load_word(ctx, c, head, nvm::Space::kData);
  // Invalidate stale transactional readers before clobbering the word.
  if (reclaim_hook_) reclaim_hook_(ctx.worker_id(), payload);
  // Link, then publish: next pointer persists before the head moves.
  persist_word(ctx, c, payload, old_head);
  persist_word(ctx, c, head, static_cast<uint64_t>(reinterpret_cast<char*>(p) - heap_));
}

bool PersistentAllocator::in_free_list(const void* p) {
  const uint64_t off = static_cast<uint64_t>(static_cast<const char*>(p) - heap_);
  for (int w = 0; w < max_workers_; w++) {
    for (int cls = 0; cls < kNumClasses; cls++) {
      uint64_t cur = *head_slot(w, cls);
      while (cur != 0) {
        if (cur == off) return true;
        // A damaged (quarantined) link word could point anywhere; stop the
        // walk at the first offset that cannot be a block rather than
        // chasing garbage out of the heap.
        if (cur >= heap_bytes_ || (cur & 7) != 0) break;
        cur = *reinterpret_cast<uint64_t*>(heap_ + cur);
      }
    }
  }
  return false;
}

void PersistentAllocator::free_block_if_absent(sim::ExecContext& ctx, stats::TxCounters* c,
                                               void* p) {
  if (in_free_list(p)) return;
  free_block(ctx, c, p);
}

void* PersistentAllocator::alloc_raw(sim::ExecContext& ctx, stats::TxCounters* c, size_t n) {
  const size_t need = (n + 63) & ~size_t{63};
  const uint64_t cur = reserve_bump(ctx, c, need, 64);
  return heap_ + cur;
}

size_t PersistentAllocator::usable_size(const void* p) const {
  const uint64_t hdr = *(static_cast<const uint64_t*>(p) - 1);
  assert(header_valid(hdr));
  return header_size(hdr);
}

uint64_t PersistentAllocator::high_water_bytes() const {
  return bump_cache_.load(std::memory_order_relaxed);
}

void PersistentAllocator::quarantine(const void* p, size_t len) {
  if (len == 0) return;
  assert(pool_.contains(p));
  const char* lo = static_cast<const char*>(p);
  const uint64_t first = static_cast<uint64_t>(lo - heap_) / 64;
  const uint64_t last = static_cast<uint64_t>(lo + len - 1 - heap_) / 64;
  for (uint64_t l = first; l <= last; l++) {
    if (quarantined_lines_.insert(l).second) quarantined_bytes_ += 64;
  }
}

bool PersistentAllocator::is_quarantined(const void* p, size_t len) const {
  if (quarantined_lines_.empty() || len == 0) return false;
  const char* lo = static_cast<const char*>(p);
  const uint64_t first = static_cast<uint64_t>(lo - heap_) / 64;
  const uint64_t last = static_cast<uint64_t>(lo + len - 1 - heap_) / 64;
  for (uint64_t l = first; l <= last; l++) {
    if (quarantined_lines_.count(l) != 0) return true;
  }
  return false;
}

}  // namespace alloc
