// Persistent per-thread log layout + the DRAM-side write-set index.
//
// Each worker owns a fixed metadata slot inside the pool (nvm::Pool layout)
// holding its transaction status word and its log arrays. Log *records*
// live in persistent memory (they must survive a crash); the hash index
// that makes read-own-writes O(1) lives in DRAM — this is the paper's
// "split the logging hash table, index in DRAM, data in Optane"
// optimization (§III.A).
//
// The in-slot log array is only the *base* capacity. A transaction whose
// write set outgrows it takes a capacity abort (stats::AbortCause::
// kCapacity), the runtime durably links an overflow LogSegment from the
// persistent heap into the slot's segment chain, and the transaction
// retries with the larger log — so large-footprint workloads are bounded
// by the heap, not by per_worker_meta_bytes. See docs/LOGGING.md.
//
// The same record format serves redo logs (val = new value) and undo logs
// (val = old value); `TxSlotHeader::algo` records which algorithm wrote the
// log so recovery replays it correctly.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "ptm/undo_log.h"

namespace nvm {
class Memory;
class Pool;
}
namespace sim {
class ExecContext;
}
namespace stats {
struct TxCounters;
}

namespace ptm {

/// One logged word write. `off` packs a pool offset (pointers do not
/// survive recovery in general; offsets do) with the writing transaction's
/// epoch in the upper bits. The tag is what makes recovery safe against
/// *partial* log persistence: under ADR the slot header (status/count) can
/// reach the ADR domain by spontaneous cache eviction before the entry
/// line's fence, so recovery may observe a count that covers log slots
/// still holding a previous transaction's records — the epoch tag exposes
/// them as stale and recovery skips them. (Entries are 16-byte aligned and
/// never straddle cache lines, so a persisted entry is internally
/// consistent.)
///
/// The tag is only the low 24 bits of the epoch, and tag 0 is *reserved*:
/// live transactions never run at a tag-0 epoch (Tx skips those epochs),
/// so a zero-filled record — fresh pool memory, a freshly bump-allocated
/// overflow segment, or a wrap-quiesced slot — can never alias a live
/// record. The wrap itself (2^24 epochs) is handled by a durable full-slot
/// quiesce; see ptm::retire_slot and docs/LOGGING.md.
///
/// Bits 39..32 of `off` hold a per-record checksum: the low 8 bits of the
/// CRC32C of the record's 16 bytes (with the crc field itself zeroed).
/// The tag defends against *stale* records; the crc defends against
/// *torn* ones — under real ADR only 8-byte stores are failure-atomic, so
/// a crash can persist a record's `off` word without its `val` word (or a
/// random sub-line subset, see nvm::SystemConfig::torn_stores). Sealed
/// records are only produced on crash-sim configurations; performance
/// runs leave the field zero, keeping the log bytes identical to a build
/// without this feature. Recovery checks the crc only when crash_sim is
/// on, and only on tag-matching records.
struct LogEntry {
  static constexpr int kOffBits = 32;  // pools up to 4 GB
  static constexpr uint64_t kOffMask = (1ull << kOffBits) - 1;
  static constexpr int kCrcShift = 32;
  static constexpr uint64_t kCrcMask = 0xffull << kCrcShift;
  static constexpr int kTagShift = 40;
  static constexpr uint64_t kTagMask = (1ull << (64 - kTagShift)) - 1;

  uint64_t off;  // (epoch tag << 40) | (crc8 << 32) | pool offset
  uint64_t val;

  static uint64_t pack(uint64_t epoch, uint64_t offset) {
    return (epoch << kTagShift) | (offset & kOffMask);
  }
  static uint64_t offset_of(uint64_t packed) { return packed & kOffMask; }
  static bool tag_matches(uint64_t packed, uint64_t epoch) {
    return (packed >> kTagShift) == (epoch & kTagMask);
  }

  /// Truncated CRC32C of a record (crc field treated as zero).
  static uint8_t crc_of(uint64_t off_word, uint64_t val_word);
  /// `packed` with the crc field filled in for value `val`.
  static uint64_t seal(uint64_t packed, uint64_t val) {
    const uint64_t base = packed & ~kCrcMask;
    return base | (static_cast<uint64_t>(crc_of(base, val)) << kCrcShift);
  }
  static bool crc_ok(uint64_t packed, uint64_t val) {
    return crc_of(packed & ~kCrcMask, val) ==
           static_cast<uint8_t>(packed >> kCrcShift);
  }
};

/// Persistent per-worker slot header (first cache line of the slot).
/// pad[0] (SlotLayout::kChainPad) holds the head of the overflow-segment
/// chain as a SegPtr; pad[1] (SlotLayout::kLogCrcPad) holds a whole-log
/// CRC32C written by the lazy commit on crash-sim configurations (zero
/// otherwise); pad[2] (SlotLayout::kHdrCrcPad) holds a whole-header
/// CRC32C maintained on every sealed header update when log mirroring is
/// on (zero otherwise); the remaining pad word is reserved.
struct TxSlotHeader {
  static constexpr uint64_t kIdle = 0;
  static constexpr uint64_t kActive = 1;
  static constexpr uint64_t kCommitted = 2;

  uint64_t status;       // (epoch << 8) | state
  uint64_t log_count;    // valid LogEntry records (base + segments)
  uint64_t alloc_count;  // valid alloc-log words
  uint64_t algo;         // ptm::Algo that wrote the log
  uint64_t pad[4];       // pad[0]: overflow-segment chain head (SegPtr)

  static uint64_t make(uint64_t epoch, uint64_t state) { return (epoch << 8) | state; }
  static uint64_t state_of(uint64_t s) { return s & 0xff; }
  static uint64_t epoch_of(uint64_t s) { return s >> 8; }
};
static_assert(sizeof(TxSlotHeader) == 64);

/// Alloc-log word: pool offset of the block payload with the operation in
/// the low 3 bits (payloads are 8-byte aligned) and the transaction epoch
/// in the top bits — same stale-record defence as LogEntry, with the same
/// crc8 field in bits 39..32 (over the single word, crc field zeroed;
/// filled only on crash-sim configurations).
struct AllocLogOp {
  static constexpr uint64_t kAlloc = 1;
  static constexpr uint64_t kFree = 2;
  static uint64_t make(uint64_t off, uint64_t op, uint64_t epoch) {
    return (epoch << LogEntry::kTagShift) | (off & LogEntry::kOffMask & ~7ull) | op;
  }
  static uint64_t off_of(uint64_t w) { return w & LogEntry::kOffMask & ~7ull; }
  static uint64_t op_of(uint64_t w) { return w & 7ull; }
  static bool tag_matches(uint64_t w, uint64_t epoch) {
    return LogEntry::tag_matches(w, epoch);
  }
  static uint64_t seal(uint64_t w);
  static bool crc_ok(uint64_t w);
};

/// Chain pointer to an overflow log segment: the pool offset of the
/// LogSegment header packed with the epoch that installed the link (same
/// layout as LogEntry: tag << kOffBits | offset). Segments are 64-byte
/// aligned. The tag records when the chain grew; validity of the target is
/// established by the LogSegment magic + bounds checks (the link is only
/// ever persisted *after* the segment header is durable), and staleness of
/// individual records inside a segment by the per-record epoch tags.
struct SegPtr {
  static uint64_t make(uint64_t off, uint64_t epoch) {
    return (epoch << LogEntry::kTagShift) | (off & LogEntry::kOffMask);
  }
  static uint64_t off_of(uint64_t w) { return w & LogEntry::kOffMask & ~63ull; }
  static uint64_t tag_of(uint64_t w) { return w >> LogEntry::kTagShift; }
};

/// Header of one overflow log segment, bump-allocated from the persistent
/// heap and durably linked into a worker slot's chain on a capacity abort.
/// The LogEntry records follow immediately after the header. Fresh bump
/// memory is zero-filled, and tag 0 is never live, so a segment's records
/// need no initialization before first use.
///
/// A mirrored segment holds two copies of both parts, laid out like the
/// slot's own regions (SlotLayout): [header 0 | header 1 | records 0 |
/// records 1], copy 0 the primary and copy 1 the replica. This object is
/// header copy 0.
struct LogSegment {
  static constexpr uint64_t kMagic = 0x50544d4c4f475347ull;  // "PTMLOGSG"

  /// flags bit 0: the segment carries two copies. Fresh bump memory is
  /// zero-filled, so a segment written without mirroring reads back as
  /// flags == 0, one copy.
  static constexpr uint64_t kFlagMirrored = 1ull;

  uint64_t magic;
  uint64_t next;      // SegPtr to the next segment; 0 = end of chain
  uint64_t capacity;  // LogEntry records in this segment (per copy)
  uint64_t flags;     // kFlagMirrored when two copies
  uint64_t pad[4];

  size_t copies() const { return (flags & kFlagMirrored) != 0 ? 2 : 1; }

  /// Bytes a segment of `cap` records per copy occupies with `copies`
  /// copies.
  static size_t bytes(size_t copies, size_t cap) {
    return copies * (sizeof(LogSegment) + cap * sizeof(LogEntry));
  }

  /// Header copy `copy`: each replica takes the following line.
  LogSegment* header_copy(size_t copy) { return this + copy; }

  /// Record array copy `copy`, after every header copy.
  LogEntry* entries(size_t copy = 0) {
    return reinterpret_cast<LogEntry*>(this + copies()) + copy * capacity;
  }
};
static_assert(sizeof(LogSegment) == 64);

/// Carves a worker's metadata slot into header / alloc log / write log,
/// plus a DRAM-side cache of the slot's persistent overflow-segment chain.
/// Log record index space is linear: [0, log_capacity) lives in the slot,
/// subsequent indices run through the segments in chain order.
///
/// With log mirroring every region exists in two same-sized copies,
/// indexed by copy: kPrimary (0) and kReplica (1). Copy k of a region
/// starts k region sizes past copy 0, so each region is described once
/// and the replica always sits on distinct cache lines:
/// [header 0 | header 1 | alloc log 0 | alloc log 1 | log 0 | log 1].
/// `header`, `alloc_log` and `log` point at copy 0. A write to both copies
/// stores the replica first, in the same fence batch as the primary, so
/// the replica is never behind (docs/LOGGING.md, "Mirrored metadata").
struct SlotLayout {
  static constexpr size_t kChainPad = 0;   // header->pad word holding the chain head
  static constexpr size_t kLogCrcPad = 1;  // whole-log CRC32C (lazy commit, crash_sim)
  static constexpr size_t kHdrCrcPad = 2;  // whole-header CRC32C (log_mirror only)
  static constexpr size_t kPrimary = 0;
  static constexpr size_t kReplica = 1;

  TxSlotHeader* header = nullptr;
  uint64_t* alloc_log = nullptr;  // alloc_log_cap words
  LogEntry* log = nullptr;        // log_capacity records (base, in-slot)
  size_t alloc_log_cap = 0;
  size_t log_capacity = 0;
  size_t copies = 1;  // 2 with SystemConfig::log_mirror

  // DRAM-side view of the persistent chain rooted at header->pad[kChainPad].
  std::vector<LogSegment*> segs;
  std::vector<size_t> seg_caps;
  size_t total_capacity = 0;  // log_capacity + sum(seg_caps)

  /// Throws std::invalid_argument when `slot_bytes` cannot hold every
  /// copy's header and alloc log plus one record per copy.
  static SlotLayout carve(char* slot_base, size_t slot_bytes, bool mirror = false);

  bool mirrored() const { return copies > 1; }

  TxSlotHeader* header_copy(size_t copy) const { return header + copy; }
  uint64_t* alloc_copy(size_t copy) const { return alloc_log + copy * alloc_log_cap; }
  LogEntry* log_copy(size_t copy) const { return log + copy * log_capacity; }

  /// (Re)build segs/seg_caps/total_capacity from the persistent chain,
  /// validating each link (bounds, alignment, magic, copy count) and
  /// stopping at the first invalid one — a link whose install never fully
  /// persisted simply truncates the chain, losing spare capacity but never
  /// correctness. Returns the number of links dropped by such truncation
  /// (0 or 1: the walk stops at the first bad link), so recovery can
  /// report it.
  ///
  /// When `ctx` is given and the slot is mirrored, a segment header that
  /// fails its checks (bad magic/capacity, or a poisoned line) is restored
  /// from its replica (restore_from_replica) before validation proceeds,
  /// bumping *repaired per rewritten header — so a single bad XPLine no
  /// longer truncates the chain.
  size_t attach_segments(nvm::Pool& pool, sim::ExecContext* ctx = nullptr,
                         uint64_t* repaired = nullptr);

  /// Longest contiguous run of copy `copy`'s records starting at index
  /// `i`: pointer plus number of records before the next segment
  /// boundary. {nullptr, 0} past the end.
  std::pair<LogEntry*, size_t> span_at(size_t i, size_t copy = kPrimary) {
    if (i < log_capacity) return {log_copy(copy) + i, log_capacity - i};
    i -= log_capacity;
    for (size_t k = 0; k < segs.size(); k++) {
      if (i < seg_caps[k]) return {segs[k]->entries(copy) + i, seg_caps[k] - i};
      i -= seg_caps[k];
    }
    return {nullptr, 0};
  }

  /// Copy `copy` of log record `i` of the linear index space, or nullptr
  /// past the end.
  LogEntry* entry_at(size_t i, size_t copy = kPrimary) { return span_at(i, copy).first; }

  /// fn(run, n) for each contiguous run (span_at) of copy `copy`'s
  /// records [first, first + n), which must lie below total_capacity.
  template <class Fn>
  void for_each_run(size_t first, size_t n, size_t copy, Fn&& fn) {
    while (n > 0) {
      const auto [run, cap] = span_at(first, copy);
      assert(run != nullptr && "log record range past total_capacity");
      const size_t take = n < cap ? n : cap;
      fn(run, take);
      first += take;
      n -= take;
    }
  }
};

/// CRC32C of a slot header's 64 bytes with the pad[kHdrCrcPad] word
/// treated as zero — the seal maintained by every sealed header update
/// when log mirroring is on. A fresh zero-filled header does *not*
/// validate (the CRC of 56 zero bytes is nonzero); recovery treats a
/// mutually-unsealed primary/mirror pair as pre-mirror state and trusts
/// the primary, so pools formatted before the first transaction still
/// recover.
uint64_t slot_header_crc(const TxSlotHeader& h);
bool slot_header_crc_ok(const TxSlotHeader& h);

/// Store a full sealed header image — the primary's current fields with
/// `mirror_status` in place of its status word, plus a matching header
/// CRC — to the slot's replica header (copy kReplica), clwb'ing its line.
/// The two images differ on purpose: passing the primary's current status
/// keeps the copies identical; passing a kCommitted status ahead of the
/// primary seal is how the commit paths make "mirror durable before
/// primary seal" hold (batch B). The caller owns the primary's CRC reseal
/// (seal_primary_header_crc), the primary header flush, and the fence.
/// No-op when not mirrored.
void seal_replica_header(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                         SlotLayout& slot, uint64_t mirror_status);

/// Recompute and store the primary header's CRC pad word over its current
/// content. Must follow any primary header field/status store when
/// mirroring is on; the caller owns the flush + fence. No-op when not
/// mirrored.
void seal_primary_header_crc(nvm::Pool& pool, sim::ExecContext& ctx,
                             stats::TxCounters* c, SlotLayout& slot);

/// Whether `slot`'s replica header can stand in for a damaged primary: the
/// slot is mirrored, the replica line is not media-faulted, and its
/// whole-header CRC holds. The screen recovery and the scrubber share.
bool replica_header_usable(const nvm::Memory& mem, const SlotLayout& slot);

/// Durably restore `len` bytes of a primary copy, inside one cache line,
/// from its replica at `replica`: store, clwb, sfence. Recovery, segment
/// attach and the scrubber all repair through it. The caller retires the
/// line's media fault afterwards, once every record sharing the line is
/// whole: rewritten durably first, a repair that a crash interrupts at
/// worst runs again.
void restore_from_replica(nvm::Pool& pool, sim::ExecContext& ctx, void* primary,
                          const void* replica, size_t len);

/// Durably zero every copy of a slot's log arrays (alloc log, base write
/// log, every attached overflow segment), replica first — the epoch-tag
/// wrap quiesce: after 2^24 epochs a leftover record could alias a live
/// tag, so all leftovers are erased before the tag space is reused. The
/// caller issues the subsequent status/count update; this only zeroes +
/// flushes + fences the arrays.
void zero_slot_logs(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                    SlotLayout& slot);

/// Whole-log CRC32C over records [0, n): chained over every record's
/// (off, val) pair. The lazy commit seals it into pad[kLogCrcPad] on
/// crash-sim configurations; recovery cross-checks a committed slot
/// against it.
uint32_t log_crc(SlotLayout& slot, size_t n);

/// Store log records [0, n) of `slot` to their home words, issued through
/// (ctx, c), adding each home line to `dirty`: oldest first for a redo
/// write-back, newest first for an undo (later records may shadow earlier
/// ones to the same word). `pick(i)` returns the copy of record i to apply
/// or nullptr to skip it (recovery's screen); without it every record
/// applies as stored. The caller flushes `dirty` (flush_lines) and fences.
void apply_records(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                   SlotLayout& slot, size_t n, bool newest_first, DirtyLines& dirty,
                   const std::function<const LogEntry*(size_t)>& pick = {});

/// clwb every line of `lines` through (ctx, c); returns whether there was
/// any.
bool flush_lines(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                 const DirtyLines& lines);

/// Durably retire `slot` to IDLE for `epoch`, issued through (ctx, c):
/// zero both counts, wipe the logs and step past `epoch` when it lands on
/// the reserved tag 0 (see LogEntry), write the sealed status mirror-first,
/// then flush the header line and fence. Returns the epoch the slot now
/// shows. The one retire shared by commit, rollback, on-behalf reclamation
/// and recovery's quiesce.
uint64_t retire_slot(nvm::Pool& pool, sim::ExecContext& ctx, stats::TxCounters* c,
                     SlotLayout& slot, uint64_t epoch);

/// DRAM-resident open-addressing map: word pool-offset -> log index.
/// Generation-stamped so clearing between transactions is O(1). Write sets
/// are capped at half the table (beyond that, probing costs explode and a
/// full table would loop) — insert() reports the overflow and the runtime
/// takes a capacity abort, doubles the table (grow()), and retries, up to
/// kMaxSlots.
class WriteIndex {
 public:
  static constexpr size_t kInitialSlots = 1u << 14;
  static constexpr size_t kMaxSlots = 1u << 22;  // hard ceiling: 2M-entry write sets

  WriteIndex() : slots_(kInitialSlots), shift_(64 - 14) {}

  /// Largest write set the current table admits.
  size_t max_writes() const { return slots_.size() / 2; }

  void clear() {
    gen_++;
    count_ = 0;
  }

  /// Returns log index or -1.
  int64_t lookup(uint64_t off) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash(off);
    for (;;) {
      const Slot& s = slots_[i];
      if (s.gen != gen_) return -1;
      if (s.off == off) return s.idx;
      i = (i + 1) & mask;
    }
  }

  /// Map `off` to `idx`. Returns false when a *new* key would exceed
  /// max_writes() — the caller must abort the transaction (updating an
  /// existing key never fails).
  bool insert(uint64_t off, int64_t idx) {
    const size_t mask = slots_.size() - 1;
    size_t i = hash(off);
    for (;;) {
      Slot& s = slots_[i];
      if (s.gen != gen_ || s.off == off) {
        if (s.gen != gen_) {
          if (count_ >= max_writes()) return false;
          count_++;
        }
        s.gen = gen_;
        s.off = off;
        s.idx = idx;
        return true;
      }
      i = (i + 1) & mask;
    }
  }

  /// Double the table. DRAM-only and contents-discarding (equivalent to
  /// clear()), so it is legal only between transactions — the abort path
  /// calls it right before the retry. Returns false at kMaxSlots.
  bool grow() {
    if (slots_.size() >= kMaxSlots) return false;
    slots_.assign(slots_.size() * 2, Slot{});
    shift_--;
    gen_ = 1;
    count_ = 0;
    return true;
  }

 private:
  struct Slot {
    uint64_t gen = 0;
    uint64_t off = 0;
    int64_t idx = 0;
  };

  size_t hash(uint64_t off) const {
    return static_cast<size_t>(((off >> 3) * 0x9e3779b97f4a7c15ull) >> shift_) &
           (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  int shift_;  // 64 - log2(slots_.size()): hash uses the top bits
  uint64_t gen_ = 1;
  size_t count_ = 0;
};

}  // namespace ptm
