#include "ptm/redo_log.h"

#include <cassert>
#include <stdexcept>
#include <string>

#include "nvm/pool.h"
#include "util/crc32.h"

namespace ptm {

uint8_t LogEntry::crc_of(uint64_t off_word, uint64_t val_word) {
  return static_cast<uint8_t>(
      util::crc32c_u64(val_word, util::crc32c_u64(off_word & ~kCrcMask)));
}

uint64_t AllocLogOp::seal(uint64_t w) {
  const uint64_t base = w & ~LogEntry::kCrcMask;
  const uint8_t crc = static_cast<uint8_t>(util::crc32c_u64(base));
  return base | (static_cast<uint64_t>(crc) << LogEntry::kCrcShift);
}

bool AllocLogOp::crc_ok(uint64_t w) {
  return static_cast<uint8_t>(util::crc32c_u64(w & ~LogEntry::kCrcMask)) ==
         static_cast<uint8_t>(w >> LogEntry::kCrcShift);
}

SlotLayout SlotLayout::carve(char* slot_base, size_t slot_bytes, bool mirror) {
  constexpr size_t kAllocLogCap = 256;
  SlotLayout l;
  l.copies = mirror ? 2 : 1;
  l.alloc_log_cap = kAllocLogCap;
  // Copy k of each region follows copy k-1 (see the class comment):
  // [header x copies | alloc log x copies | log x copies].
  const size_t fixed = l.copies * (sizeof(TxSlotHeader) + kAllocLogCap * sizeof(uint64_t));
  const size_t need = fixed + l.copies * sizeof(LogEntry);
  if (slot_bytes < need) {
    throw std::invalid_argument("per_worker_meta_bytes = " + std::to_string(slot_bytes) +
                                " cannot hold a log slot" + (mirror ? " with log_mirror" : "") +
                                ": it needs at least " + std::to_string(need) + " bytes");
  }
  l.header = reinterpret_cast<TxSlotHeader*>(slot_base);
  l.alloc_log = reinterpret_cast<uint64_t*>(l.header_copy(l.copies));
  l.log = reinterpret_cast<LogEntry*>(l.alloc_copy(l.copies));
  l.log_capacity = (slot_bytes - fixed) / (l.copies * sizeof(LogEntry));
  l.total_capacity = l.log_capacity;
  return l;
}

size_t SlotLayout::attach_segments(nvm::Pool& pool, sim::ExecContext* ctx,
                                   uint64_t* repaired) {
  segs.clear();
  seg_caps.clear();
  total_capacity = log_capacity;

  // Untracked loads are fine here: the chain is quiescent whenever this
  // runs (worker construction or single-threaded recovery), and the
  // reciprocal store path persisted each link only after its target's
  // header was durable, so any readable link's target is well-formed or
  // detectably garbage.
  uint64_t link = std::atomic_ref<const uint64_t>(header->pad[kChainPad])
                      .load(std::memory_order_acquire);
  const size_t pool_size = pool.size();
  nvm::Memory& mem = pool.mem();
  auto seg_ok = [&](const LogSegment* s, uint64_t base_off) {
    if (mem.media_faulted(s, sizeof(LogSegment))) return false;
    if (s->magic != LogSegment::kMagic || s->copies() != copies) return false;
    return s->capacity != 0 && base_off + LogSegment::bytes(copies, s->capacity) <= pool_size;
  };
  while (link != 0) {
    const uint64_t off = SegPtr::off_of(link);
    // A link that never fully persisted (or pre-format garbage) truncates
    // the chain here; that only sheds spare capacity, never records —
    // log_count can only cover a segment whose link install committed.
    if (off < sizeof(nvm::PoolHeader) || off + copies * sizeof(LogSegment) > pool_size) {
      return 1;
    }
    auto* seg = static_cast<LogSegment*>(pool.at(off));
    if (!seg_ok(seg, off)) {
      // A mirrored slot keeps a replica of every segment header on the
      // following line; when the primary header is unreadable but the
      // replica validates, restore the primary and continue the walk
      // instead of truncating.
      LogSegment* rep = seg->header_copy(kReplica);
      if (!mirrored() || ctx == nullptr || !seg_ok(rep, off)) return 1;
      restore_from_replica(pool, *ctx, seg, rep, sizeof(LogSegment));
      mem.repair_media_fault(mem.line_of(seg));
      if (repaired != nullptr) (*repaired)++;
    }
    segs.push_back(seg);
    seg_caps.push_back(static_cast<size_t>(seg->capacity));
    total_capacity += static_cast<size_t>(seg->capacity);
    if (segs.size() > 64) return 1;  // cycle guard (corrupt chain)
    link = std::atomic_ref<const uint64_t>(seg->next).load(std::memory_order_acquire);
  }
  return 0;
}

uint64_t slot_header_crc(const TxSlotHeader& h) {
  uint64_t words[sizeof(TxSlotHeader) / 8];
  std::memcpy(words, &h, sizeof(words));
  words[4 + SlotLayout::kHdrCrcPad] = 0;  // status..algo are words 0..3
  uint32_t crc = 0;
  for (uint64_t w : words) crc = util::crc32c_u64(w, crc);
  return crc;
}

bool slot_header_crc_ok(const TxSlotHeader& h) {
  return h.pad[SlotLayout::kHdrCrcPad] == slot_header_crc(h);
}

void seal_replica_header(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                         SlotLayout& slot, uint64_t mirror_status, bool no_records) {
  if (!slot.mirrored()) return;
  nvm::Memory& mem = pool.mem();
  // A full sealed image carrying `mirror_status`, on its own line, flushed
  // here so it rides whatever flush/fence batch the caller is building.
  TxSlotHeader img;
  std::memcpy(&img, slot.header, sizeof(img));
  img.status = mirror_status;
  if (no_records) img.log_count = img.alloc_count = 0;
  img.pad[SlotLayout::kHdrCrcPad] = slot_header_crc(img);
  TxSlotHeader* rep = slot.header_copy(SlotLayout::kReplica);
  mem.store_bytes(ctx, c, rep, &img, sizeof(img), nvm::Space::kLog);
  mem.clwb(ctx, c, rep);
}

void seal_primary_header_crc(nvm::Pool& pool, sim::ExecContext& ctx,
                             stats::TxCounters* c, SlotLayout& slot) {
  if (!slot.mirrored()) return;
  TxSlotHeader img;
  std::memcpy(&img, slot.header, sizeof(img));
  img.pad[SlotLayout::kHdrCrcPad] = slot_header_crc(img);
  pool.mem().store_word(ctx, c, &slot.header->pad[SlotLayout::kHdrCrcPad],
                        img.pad[SlotLayout::kHdrCrcPad], nvm::Space::kLog);
}

bool replica_header_usable(const nvm::Memory& mem, const SlotLayout& slot) {
  const TxSlotHeader* rep = slot.header_copy(SlotLayout::kReplica);
  return slot.mirrored() && !mem.media_faulted(rep, sizeof(TxSlotHeader)) &&
         slot_header_crc_ok(*rep);
}

void restore_from_replica(nvm::Pool& pool, sim::ExecContext& ctx, void* primary,
                          const void* replica, size_t len) {
  nvm::Memory& mem = pool.mem();
  assert(mem.line_of(primary) == mem.line_of(static_cast<char*>(primary) + len - 1));
  mem.store_bytes(ctx, nullptr, primary, replica, len, nvm::Space::kLog);
  mem.clwb(ctx, nullptr, primary);
  mem.sfence(ctx, nullptr);
}

void zero_slot_logs(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                    SlotLayout& slot) {
  nvm::Memory& mem = pool.mem();
  // Zero in bounded chunks so store_bytes' internal buffers stay small,
  // flushing each range's lines as we go; a single trailing fence orders
  // everything.
  static constexpr size_t kChunk = 4096;
  static const unsigned char kZeros[kChunk] = {};
  auto wipe = [&](void* dst, size_t len) {
    char* p = static_cast<char*>(dst);
    size_t left = len;
    while (left > 0) {
      const size_t n = left < kChunk ? left : kChunk;
      mem.store_bytes(ctx, c, p, kZeros, n, nvm::Space::kLog);
      for (size_t o = 0; o < n; o += nvm::Memory::kLineBytes) mem.clwb(ctx, c, p + o);
      p += n;
      left -= n;
    }
  };
  for (size_t k = slot.copies; k-- > 0;) {  // replica first
    wipe(slot.alloc_copy(k), slot.alloc_log_cap * sizeof(uint64_t));
    wipe(slot.log_copy(k), slot.log_capacity * sizeof(LogEntry));
    for (size_t s = 0; s < slot.segs.size(); s++) {
      wipe(slot.segs[s]->entries(k), slot.seg_caps[s] * sizeof(LogEntry));
    }
  }
  mem.sfence(ctx, c);
}

uint32_t log_crc(SlotLayout& slot, size_t n) {
  uint32_t lc = 0;
  for (size_t i = 0; i < n; i++) {
    const LogEntry* e = slot.entry_at(i);
    lc = util::crc32c_u64(e->val, util::crc32c_u64(e->off, lc));
  }
  return lc;
}

void apply_records(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                   SlotLayout& slot, size_t n, bool newest_first, DirtyLines& dirty,
                   const std::function<const LogEntry*(size_t)>& pick) {
  nvm::Memory& mem = pool.mem();
  for (size_t k = 0; k < n; k++) {
    const size_t i = newest_first ? n - 1 - k : k;
    const LogEntry* e = pick ? pick(i) : slot.entry_at(i);
    if (e == nullptr) continue;
    auto* home = static_cast<uint64_t*>(pool.at(LogEntry::offset_of(e->off)));
    mem.store_word(ctx, c, home, e->val, nvm::Space::kData);
    dirty.add(mem.line_of(home));
  }
}

bool flush_lines(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                 const DirtyLines& lines) {
  for (const uint64_t line : lines.lines()) {
    pool.mem().clwb(ctx, c, pool.base() + line * nvm::Memory::kLineBytes);
  }
  return !lines.lines().empty();
}

uint64_t retire_slot(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                     SlotLayout& slot, uint64_t epoch) {
  nvm::Memory& mem = pool.mem();
  // Tag 0 is reserved for zeroed memory: a retire onto it wraps past it.
  const bool wrap = (epoch & LogEntry::kTagMask) == 0;
  if (wrap) epoch++;
  const uint64_t word = TxSlotHeader::make(epoch, TxSlotHeader::kIdle);
  // Replica first, the whole retired image, fenced before the primary is
  // touched: the mirror is never behind the primary. A retire cut short,
  // by a reclaimer's kill or by a power failure, leaves an untouched
  // primary, or a torn one beside a durably retired replica; never a torn
  // primary beside the COMMITTED image of batch B, which the next pass
  // would trust over a transaction already judged uncommitted.
  seal_replica_header(pool, ctx, c, slot, word, /*no_records=*/true);
  if (slot.mirrored()) mem.sfence(ctx, c);
  // All header fields share one cache line, so the counts and the IDLE
  // status persist together under the flush + fence below.
  mem.store_word(ctx, c, &slot.header->log_count, 0, nvm::Space::kLog);
  mem.store_word(ctx, c, &slot.header->alloc_count, 0, nvm::Space::kLog);
  if (wrap) {
    // The 24-bit epoch tag wrapped: records written 2^24 epochs ago would
    // now tag-match again. Durably erase every leftover record before
    // entering the reused tag space. Crash-safe at any point: the quiesce
    // only zeroes retired records, and until the status below persists
    // the primary still shows the pre-wrap epoch, for which zeroed logs
    // are a valid (empty) state.
    zero_slot_logs(pool, ctx, c, slot);
  }
  mem.store_word(ctx, c, &slot.header->status, word, nvm::Space::kLog);
  seal_primary_header_crc(pool, ctx, c, slot);
  mem.clwb(ctx, c, slot.header);
  mem.sfence(ctx, c);
  return epoch;
}

}  // namespace ptm
