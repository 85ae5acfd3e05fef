#include "ptm/tx.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "ptm/backoff.h"
#include "ptm/containment.h"
#include "ptm/runtime.h"

namespace ptm {

const char* algo_name(Algo a) {
  return a == Algo::kOrecLazy ? "orec-lazy(redo)" : "orec-eager(undo)";
}
const char* algo_suffix(Algo a) { return a == Algo::kOrecLazy ? "R" : "U"; }

Tx::Tx(Runtime& rt, int worker)
    : rt_(&rt), worker_(worker), algo_(rt.algo()),
      rng_(0x74785eedull + static_cast<uint64_t>(worker) * 0x1234567ull) {
  nvm::Pool& pool = rt.pool();
  crc_logs_ = pool.config().crash_sim;
  psan_ = pool.mem().psan();
  rsan_ = pool.mem().rsan();
  slot_ = SlotLayout::carve(pool.worker_meta(worker), pool.worker_meta_bytes(),
                            pool.config().log_mirror);
  slot_.attach_segments(pool);
  cm_ = rt.containment();
  // Tag 0 is reserved (zero-filled log memory must never alias a live
  // record) and a fresh pool's slots show epoch 0, so run at the slot's
  // live epoch. The durable status catches up at the first retire or
  // recovery; until then recovery's screen derives the same live epoch
  // from the older IDLE header.
  epoch_ = TxSlotHeader::live_epoch(slot_.header->status);
}

void Tx::begin() {
  stats::PhaseTimer pt(*ctx_, &c_->phases, stats::Phase::kBegin);
  // Containment lease: quarantine check + heartbeat + "in flight" mark,
  // before any speculative state exists. Throws FiberKill for a dead or
  // fenced descriptor — nothing below must run for a zombie.
  if (cm_) cm_->enter_tx(worker_, ctx_->now_ns());
  committed_ = false;
  start_time_ = rt_->orecs().sample_clock();
  n_log_ = 0;
  n_alloc_log_ = 0;
  active_persisted_ = false;
  capacity_kind_ = CapacityKind::kNone;
  read_set_.clear();
  owned_.clear();
  dirty_.clear();
  windex_.clear();
  ctx_->advance(static_cast<uint64_t>(rt_->pool().config().cost.tx_begin_ns));
  if (psan_) psan_->on_tx_begin(worker_);
  if (rsan_) rsan_->on_tx_begin(worker_);
  if (TxObserver* ob = rt_->observer()) ob->on_begin(worker_);
}

uint64_t Tx::read_word(const uint64_t* waddr) {
  prefetch_word(waddr);
  c_->reads++;
  if (cm_) cm_->beat(worker_, ctx_->now_ns());
  stats::PhaseTimer pt(*ctx_, &c_->phases, stats::Phase::kRead);
  return algo_ == Algo::kOrecLazy ? lazy_read(waddr) : eager_read(waddr);
}

void Tx::write_word(uint64_t* waddr, uint64_t val) {
  assert(rt_->pool().contains(waddr) && "transactional write outside the pool");
  prefetch_word(waddr);
  c_->writes++;
  if (cm_) cm_->beat(worker_, ctx_->now_ns());
  stats::PhaseTimer pt(*ctx_, &c_->phases, stats::Phase::kWrite);
  if (algo_ == Algo::kOrecLazy) {
    lazy_write(waddr, val);
  } else {
    eager_write(waddr, val);
  }
  // An aborting write throws before this point, so the shadow history only
  // records writes the algorithm accepted.
  if (TxObserver* ob = rt_->observer()) {
    ob->on_write(worker_, rt_->pool().offset_of(waddr), val);
  }
}

void Tx::read_bytes(const void* src, void* dst, size_t len) {
  const uintptr_t s = reinterpret_cast<uintptr_t>(src);
  auto* out = static_cast<char*>(dst);
  uintptr_t w = s & ~uintptr_t{7};
  prefetch_words(w, s + len);
  size_t produced = 0;
  while (produced < len) {
    const uint64_t word = read_word(reinterpret_cast<const uint64_t*>(w));
    const size_t lo = (produced == 0) ? (s - w) : 0;
    const size_t take = std::min(size_t{8} - lo, len - produced);
    std::memcpy(out + produced, reinterpret_cast<const char*>(&word) + lo, take);
    produced += take;
    w += 8;
  }
}

void Tx::write_bytes(void* dst, const void* src, size_t len) {
  const uintptr_t d = reinterpret_cast<uintptr_t>(dst);
  const auto* in = static_cast<const char*>(src);
  uintptr_t w = d & ~uintptr_t{7};
  prefetch_words(w, d + len);
  size_t consumed = 0;
  while (consumed < len) {
    const size_t lo = (consumed == 0) ? (d - w) : 0;
    const size_t take = std::min(size_t{8} - lo, len - consumed);
    uint64_t word;
    if (lo == 0 && take == 8) {
      std::memcpy(&word, in + consumed, 8);
    } else {
      // Partial word: merge with the current transactional value.
      word = read_word(reinterpret_cast<const uint64_t*>(w));
      std::memcpy(reinterpret_cast<char*>(&word) + lo, in + consumed, take);
    }
    write_word(reinterpret_cast<uint64_t*>(w), word);
    consumed += take;
    w += 8;
  }
}

void Tx::commit() {
  // kCommit records *successful* commits only: if the commit path aborts,
  // control unwinds past this record point and the attempt shows up in the
  // abort-cause counters / kAbortBackoff instead.
  const bool timed = stats::telemetry_enabled();
  const uint64_t t0 = timed ? ctx_->now_ns() : 0;
  commit_ticket_ = 0;
  if (algo_ == Algo::kOrecLazy) {
    lazy_commit();
  } else {
    eager_commit();
  }
  update_log_hwm();
  c_->commits++;
  attempt_ = 0;
  if (psan_) psan_->on_tx_end(worker_);
  if (rsan_) rsan_->on_tx_end(worker_);
  if (TxObserver* ob = rt_->observer()) ob->on_commit(worker_, commit_ticket_);
  if (cm_) cm_->exit_tx(worker_);
  if (timed) c_->phases.record(stats::Phase::kCommit, ctx_->now_ns() - t0);
}

void Tx::handle_abort() {
  stats::PhaseTimer pt(*ctx_, &c_->phases, stats::Phase::kAbortBackoff);
  analysis::PhaseScope ps(psan_, worker_, stats::Phase::kAbortBackoff);
  // The alloc log names the blocks to return, but an undo rollback retires
  // the slot first, which clears the log (its count; across the tag wrap,
  // its words): copy it out beforehand.
  const std::vector<uint64_t> logged(slot_.alloc_log, slot_.alloc_log + n_alloc_log_);
  if (algo_ == Algo::kOrecEager) {
    eager_rollback();
  } else {
    restore_owned();  // redo: home locations untouched, the log is discarded
  }
  cancel_allocs(logged);
  if (psan_) psan_->on_tx_end(worker_);
  if (rsan_) rsan_->on_tx_end(worker_);
  if (TxObserver* ob = rt_->observer()) ob->on_abort(worker_);
  // Clean again: the descriptor must not look reclaimable while the fiber
  // parks in backoff (a long capped backoff is slower than the lease).
  if (cm_) cm_->exit_tx(worker_);
  if (capacity_kind_ != CapacityKind::kNone) {
    // Capacity abort: grow the exhausted resource instead of backing off —
    // the retry cannot hit the same wall, so no separation in time is
    // needed, and growth failure must surface (CapacityError) rather than
    // spin. Rollback above already ran, so a throw leaves no orec held.
    grow_for_capacity();
    return;
  }
  // Exponential backoff, capped and jittered so a live retrier can never
  // outsleep the containment lease (policy and rng-sequence contract in
  // ptm/backoff.h).
  attempt_++;
  const auto base = static_cast<uint64_t>(rt_->pool().config().cost.backoff_base_ns);
  ctx_->advance(backoff_wait_ns(attempt_, base, kBackoffMaxNs, rng_));
}

void Tx::mark_killed() {
  if (cm_) cm_->mark_dead(worker_);
}

void Tx::abort_tx(stats::AbortCause cause) {
  c_->aborts++;
  c_->aborts_by_cause[static_cast<size_t>(cause)]++;
  last_abort_cause_ = cause;
  throw AbortTx{};
}

void Tx::abort_and_retry() { abort_tx(stats::AbortCause::kExplicit); }

void Tx::capacity_abort(CapacityKind kind) {
  capacity_kind_ = kind;
  abort_tx(stats::AbortCause::kCapacity);
}

void Tx::grow_for_capacity() {
  const CapacityKind kind = capacity_kind_;
  capacity_kind_ = CapacityKind::kNone;
  switch (kind) {
    case CapacityKind::kNone:
      return;
    case CapacityKind::kAllocLog:
      // The alloc log is a fixed in-slot array (recovery depends on its
      // placement); it does not grow. 256 alloc/free ops per transaction
      // is a hard API limit.
      throw CapacityError("transaction exceeded the per-transaction alloc/free limit");
    case CapacityKind::kWriteIndex:
      if (!windex_.grow()) {
        throw CapacityError("transaction write set exceeded the write-index ceiling");
      }
      c_->log_growths++;
      return;
    case CapacityKind::kWriteLog:
      break;
  }

  if (slot_.segs.size() >= kMaxLogSegments) {
    throw CapacityError("transaction write set exceeded the log segment-chain ceiling");
  }
  // Double the slot's total log capacity with one overflow segment from the
  // persistent bump region (never freed — the chain is a durable upgrade of
  // this worker slot, reused by every later transaction and by recovery).
  const size_t add = slot_.total_capacity;
  nvm::Pool& pool = rt_->pool();
  nvm::Memory& mem = pool.mem();
  // Every copy of the header, then every copy of the records:
  // [hdr 0 | hdr 1 | entries 0 (add) | entries 1 (add)] when mirrored.
  const size_t seg_bytes = LogSegment::bytes(slot_.copies, add);
  LogSegment* seg;
  try {
    seg = static_cast<LogSegment*>(rt_->allocator().alloc_raw(*ctx_, c_, seg_bytes));
  } catch (const std::bad_alloc&) {
    throw CapacityError("persistent heap exhausted while growing the transaction log");
  }

  // Crash ordering: every header copy must be durable before any link to
  // it exists, so a recovered chain never follows a link into garbage.
  // (alloc_raw's bump memory is zero-filled, so the records need no init —
  // tag 0 never matches a live epoch — and an unmirrored flags word needs
  // no store.) Replica first, each copy on its own line, one fence.
  const uint64_t flags = slot_.mirrored() ? LogSegment::kFlagMirrored : 0;
  for (size_t k = slot_.copies; k-- > 0;) {
    LogSegment* h = seg->header_copy(k);
    mem.store_word(*ctx_, c_, &h->magic, LogSegment::kMagic, nvm::Space::kLog);
    mem.store_word(*ctx_, c_, &h->next, 0, nvm::Space::kLog);
    mem.store_word(*ctx_, c_, &h->capacity, add, nvm::Space::kLog);
    if (flags != 0) mem.store_word(*ctx_, c_, &h->flags, flags, nvm::Space::kLog);
    mem.clwb(*ctx_, c_, h);
  }
  mem.sfence(*ctx_, c_);

  // Now durably install the link: the chain head in the slot header, or
  // the tail segment's `next` in every copy, replica first.
  const uint64_t link_word = SegPtr::make(pool.offset_of(seg), epoch_);
  if (slot_.segs.empty()) {
    mem.store_word(*ctx_, c_, &slot_.header->pad[SlotLayout::kChainPad], link_word,
                   nvm::Space::kLog);
    sync_replica_header();
    mem.clwb(*ctx_, c_, slot_.header);
  } else {
    for (size_t k = slot_.copies; k-- > 0;) {
      LogSegment* tail = slot_.segs.back()->header_copy(k);
      mem.store_word(*ctx_, c_, &tail->next, link_word, nvm::Space::kLog);
      mem.clwb(*ctx_, c_, tail);
    }
  }
  mem.sfence(*ctx_, c_);

  slot_.segs.push_back(seg);
  slot_.seg_caps.push_back(add);
  slot_.total_capacity += add;

  // Media-routing hint: segment records are log traffic (PDRAM-Lite places
  // logs in DRAM).
  const uint64_t lo = mem.line_of(seg);
  const uint64_t hi = mem.line_of(reinterpret_cast<const char*>(seg) + seg_bytes - 1) + 1;
  mem.add_log_line_range(lo, hi);
  c_->log_growths++;
}

void* Tx::alloc(size_t n) {
  // Capacity check BEFORE the allocation: aborting after allocator().alloc
  // but before the block is logged would leak it (abort only returns the
  // blocks the alloc log names).
  if (n_alloc_log_ >= slot_.alloc_log_cap) capacity_abort(CapacityKind::kAllocLog);
  void* p = rt_->allocator().alloc(*ctx_, c_, n);
  analysis::PhaseScope ps(psan_, worker_, stats::Phase::kLogAppend);
  append_alloc_word(AllocLogOp::make(rt_->pool().offset_of(p), AllocLogOp::kAlloc, epoch_));
  return p;
}

void Tx::dealloc(void* p) {
  if (n_alloc_log_ >= slot_.alloc_log_cap) capacity_abort(CapacityKind::kAllocLog);
  analysis::PhaseScope ps(psan_, worker_, stats::Phase::kLogAppend);
  append_alloc_word(AllocLogOp::make(rt_->pool().offset_of(p), AllocLogOp::kFree, epoch_));
}

void Tx::append_alloc_word(uint64_t word) {
  nvm::Memory& mem = rt_->pool().mem();
  if (crc_logs_) word = AllocLogOp::seal(word);
  // Every copy of the word (replica first), the count and the header
  // images, then every line's flush and one fence.
  const size_t i = n_alloc_log_;
  for (size_t k = slot_.copies; k-- > 0;) {
    mem.store_word(*ctx_, c_, slot_.alloc_copy(k) + i, word, nvm::Space::kLog);
  }
  n_alloc_log_++;
  mem.store_word(*ctx_, c_, &slot_.header->alloc_count, n_alloc_log_, nvm::Space::kLog);
  sync_replica_header();
  for (size_t k = slot_.copies; k-- > 0;) mem.clwb(*ctx_, c_, slot_.alloc_copy(k) + i);
  mem.clwb(*ctx_, c_, slot_.header);
  mem.sfence(*ctx_, c_);
}

void Tx::sync_replica_header() {
  if (!slot_.mirrored()) return;
  seal_replica_header(rt_->pool(), *ctx_, c_, slot_, slot_.header->status);
  seal_primary_header_crc(rt_->pool(), *ctx_, c_, slot_);
}

void Tx::append_log(uint64_t off, uint64_t val) {
  if (n_log_ >= slot_.total_capacity) capacity_abort(CapacityKind::kWriteLog);
  stats::PhaseTimer pt(*ctx_, &c_->phases, stats::Phase::kLogAppend);
  nvm::Memory& mem = rt_->pool().mem();
  uint64_t packed = LogEntry::pack(epoch_, off);
  if (crc_logs_) packed = LogEntry::seal(packed, val);
  // Replica record first (program order), each copy on its own line; the
  // copies ride the same flush/fence batch, so after any ack fence both
  // are durable.
  for (size_t k = slot_.copies; k-- > 0;) {
    LogEntry* e = slot_.entry_at(n_log_, k);
    mem.store_word(*ctx_, c_, &e->off, packed, nvm::Space::kLog);
    mem.store_word(*ctx_, c_, &e->val, val, nvm::Space::kLog);
    c_->log_bytes += sizeof(LogEntry);
  }
  n_log_++;
}

void Tx::persist_log_range(sim::ExecContext& ctx, stats::TxCounters* c,
                           size_t first_entry, size_t n_entries) {
  nvm::Memory& mem = rt_->pool().mem();
  // The linear record range may span the base log and several overflow
  // segments; flush each contiguous run separately, every copy (replica
  // first) in the same batch so the caller's fence makes them durable
  // together. Parameterized on the issuing context: the epoch leader
  // flushes member logs through its own WPQ (Tx::seal).
  for (size_t k = slot_.copies; k-- > 0;) {
    slot_.for_each_run(first_entry, n_entries, k, [&](const LogEntry* run, size_t n) {
      const char* hi = reinterpret_cast<const char*>(run + n) - 1;
      for (const char* p = reinterpret_cast<const char*>(
               reinterpret_cast<uintptr_t>(run) & ~uintptr_t{63});
           p <= hi; p += nvm::Memory::kLineBytes) {
        mem.clwb(ctx, c, p);
      }
    });
  }
}

void Tx::release_owned(uint64_t version_word) {
  for (const OwnedOrec& o : owned_) {
    if (rsan_) rsan_->on_orec_release(worker_, o.orec);
    o.orec->store(version_word, std::memory_order_release);
  }
  owned_.clear();
}

void Tx::restore_owned() {
  for (const OwnedOrec& o : owned_) {
    if (rsan_) rsan_->on_orec_release(worker_, o.orec);
    o.orec->store(o.old_word, std::memory_order_release);
  }
  owned_.clear();
}

void Tx::cancel_allocs(std::span<const uint64_t> words) {
  for (const uint64_t w : words) {
    if (AllocLogOp::op_of(w) == AllocLogOp::kAlloc) {
      rt_->allocator().free_block(*ctx_, c_, rt_->pool().at(AllocLogOp::off_of(w)));
    }
  }
  if (n_alloc_log_ > 0) {
    nvm::Memory& mem = rt_->pool().mem();
    mem.store_word(*ctx_, c_, &slot_.header->alloc_count, 0, nvm::Space::kLog);
    n_alloc_log_ = 0;
    sync_replica_header();
    mem.clwb(*ctx_, c_, slot_.header);
    mem.sfence(*ctx_, c_);
  }
}

void Tx::apply_frees() {
  for (size_t i = 0; i < n_alloc_log_; i++) {
    const uint64_t w = slot_.alloc_log[i];
    if (AllocLogOp::op_of(w) == AllocLogOp::kFree) {
      rt_->allocator().free_block(*ctx_, c_, rt_->pool().at(AllocLogOp::off_of(w)));
    }
  }
}

void Tx::retire_logs() {
  // Ordering point: retiring the log (IDLE) forfeits the ability to redo/
  // undo, so every data line this transaction touched must already be
  // durable — otherwise a crash after the retire loses the update with no
  // log left to recover it from.
  psan_check_dirty_persisted(analysis::DiagKind::kMissingFlush,
                             "data must be durable before the log retires to IDLE");
  n_alloc_log_ = 0;
  epoch_ = retire_slot(rt_->pool(), *ctx_, c_, slot_, epoch_ + 1);
}

uint64_t Tx::validated_read(std::atomic<uint64_t>& orec, uint64_t v1, const uint64_t* waddr) {
  if (OrecTable::is_locked(v1)) {
    // Containment: if the owner's lease expired and it is provably gone,
    // reclaim its transaction so the retry can make progress. This attempt
    // still aborts either way — the retry revalidates from scratch.
    if (cm_) cm_->on_locked_orec(OrecTable::owner_of(v1), *ctx_, c_);
    abort_tx(stats::AbortCause::kConflictRead);
  }
  // rsan: a speculative read is invisible to later writers (no HB edge);
  // isolation is discharged by the orec revalidation just below, so the
  // race check is suppressed for this load and replaced by a validated-read
  // edge once v1 == v2 holds.
  analysis::Rsan::ReadScope rsan_read(rsan_, worker_);
  const uint64_t val = rt_->pool().mem().load_word(*ctx_, c_, waddr, nvm::Space::kData);
  const uint64_t v2 = orec.load(std::memory_order_acquire);
  if (v1 != v2 || OrecTable::version_of(v1) > start_time_) {
    abort_tx(stats::AbortCause::kConflictRead);
  }
  if (rsan_) rsan_->on_validated_read(worker_, &orec);
  read_set_.emplace_back(&orec, v1);
  return val;
}

void Tx::prefetch_word(const void* waddr) {
  __builtin_prefetch(&rt_->orecs().for_addr(waddr));
  rt_->pool().mem().prefetch(waddr);
}

void Tx::prefetch_words(uintptr_t first_word, uintptr_t end) {
  for (uintptr_t w = first_word; w < end; w += 8) {
    prefetch_word(reinterpret_cast<const void*>(w));
  }
}

void Tx::acquire_orec(std::atomic<uint64_t>& orec) {
  const auto me = static_cast<uint32_t>(worker_);
  const uint64_t cur = orec.load(std::memory_order_acquire);
  if (OrecTable::is_locked(cur)) {
    // Already ours: a repeated write, or two addresses hashing to one orec.
    if (OrecTable::owner_of(cur) == me) return;
    // Containment: reclaim a dead owner's lock before giving up.
    if (cm_) cm_->on_locked_orec(OrecTable::owner_of(cur), *ctx_, c_);
    abort_tx(stats::AbortCause::kConflictWrite);
  }
  if (OrecTable::version_of(cur) > start_time_) {
    abort_tx(stats::AbortCause::kConflictWrite);
  }
  uint64_t expected = cur;
  ctx_->advance(static_cast<uint64_t>(rt_->pool().config().cost.cas_ns));
  if (!orec.compare_exchange_strong(expected, OrecTable::lock_word(me),
                                    std::memory_order_acq_rel)) {
    abort_tx(stats::AbortCause::kConflictWrite);
  }
  if (rsan_) rsan_->on_orec_acquire(worker_, &orec);
  owned_.push_back(OwnedOrec{&orec, cur});
}

bool Tx::validate_read_set() const {
  const auto me = static_cast<uint32_t>(worker_);
  for (const auto& [orec, v1] : read_set_) {
    const uint64_t cur = orec->load(std::memory_order_acquire);
    if (cur == v1) continue;
    if (OrecTable::is_locked(cur) && OrecTable::owner_of(cur) == me) continue;
    return false;
  }
  return true;
}

void Tx::psan_check_log_persisted(size_t first_entry, size_t n_entries,
                                  analysis::DiagKind kind, const char* what) {
  if (!psan_) return;
  nvm::Memory& mem = rt_->pool().mem();
  // Every copy of the records travels in one flush batch (persist_log_range),
  // so every copy is checked.
  for (size_t k = 0; k < slot_.copies; k++) {
    slot_.for_each_run(first_entry, n_entries, k, [&](const LogEntry* run, size_t n) {
      mem.psan_check_persisted(*ctx_, run, n * sizeof(LogEntry), kind, what);
    });
  }
}

void Tx::psan_check_header_persisted(size_t copy, analysis::DiagKind kind, const char* what) {
  if (!psan_) return;
  rt_->pool().mem().psan_check_persisted(*ctx_, slot_.header_copy(copy), sizeof(TxSlotHeader),
                                         kind, what);
}

void Tx::psan_check_dirty_persisted(analysis::DiagKind kind, const char* what) {
  if (!psan_) return;
  for (const uint64_t line : dirty_.lines()) {
    psan_->check_persisted(worker_, line, line, kind, what);
  }
}

void Tx::update_log_hwm() {
  const uint64_t lines = (n_log_ * sizeof(LogEntry) + nvm::Memory::kLineBytes - 1) /
                         nvm::Memory::kLineBytes;
  if (lines > c_->log_lines_hwm) c_->log_lines_hwm = lines;
}

}  // namespace ptm
