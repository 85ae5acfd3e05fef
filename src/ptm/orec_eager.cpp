// orec-eager: the undo-logging PTM (the paper's best undo-based algorithm,
// from [38]). Writes acquire the orec at encounter time, persist an undo
// record of the old value, and then store the new value in place. Because
// the undo record must be durable *before* the in-place store may persist,
// every write carries a flush+fence under ADR — the O(W) fence cost the
// paper identifies as the reason undo loses to redo on write-heavy
// workloads (Figures 3/4), with TATP as the small-write-set exception.
#include <cassert>

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "ptm/containment.h"
#include "ptm/runtime.h"
#include "ptm/tx.h"

namespace ptm {

uint64_t Tx::eager_read(const uint64_t* waddr) {
  nvm::Pool& pool = rt_->pool();
  std::atomic<uint64_t>& orec = rt_->orecs().for_addr(waddr);
  const auto me = static_cast<uint32_t>(worker_);

  const uint64_t v1 = orec.load(std::memory_order_acquire);
  if (OrecTable::is_locked(v1)) {
    if (OrecTable::owner_of(v1) == me) {
      // We own it: the in-place value is ours.
      return pool.mem().load_word(*ctx_, c_, waddr, nvm::Space::kData);
    }
    // Containment: reclaim a dead owner's lock before giving up.
    if (cm_) cm_->on_locked_orec(OrecTable::owner_of(v1), *ctx_, c_);
    abort_tx(stats::AbortCause::kConflictRead);
  }
  // rsan: a speculative read is invisible to later writers (no HB edge);
  // isolation is discharged by the orec revalidation just below, so the
  // race check is suppressed for this load and replaced by a validated-read
  // edge once v1 == v2 holds.
  analysis::Rsan::ReadScope rsan_read(rsan_, worker_);
  const uint64_t val = pool.mem().load_word(*ctx_, c_, waddr, nvm::Space::kData);
  const uint64_t v2 = orec.load(std::memory_order_acquire);
  if (v1 != v2 || OrecTable::version_of(v1) > start_time_) {
    abort_tx(stats::AbortCause::kConflictRead);
  }
  if (rsan_) rsan_->on_validated_read(worker_, &orec);
  read_set_.emplace_back(&orec, v1);
  return val;
}

void Tx::eager_write(uint64_t* waddr, uint64_t val) {
  nvm::Pool& pool = rt_->pool();
  nvm::Memory& mem = pool.mem();
  const nvm::CostModel& cm = pool.config().cost;
  OrecTable& orecs = rt_->orecs();
  const auto me = static_cast<uint32_t>(worker_);

  std::atomic<uint64_t>& orec = orecs.for_addr(waddr);
  const uint64_t cur = orec.load(std::memory_order_acquire);
  if (OrecTable::is_locked(cur)) {
    if (OrecTable::owner_of(cur) != me) {
      // Containment: reclaim a dead owner's lock before giving up.
      if (cm_) cm_->on_locked_orec(OrecTable::owner_of(cur), *ctx_, c_);
      abort_tx(stats::AbortCause::kConflictWrite);
    }
  } else {
    if (OrecTable::version_of(cur) > start_time_) {
      abort_tx(stats::AbortCause::kConflictWrite);
    }
    uint64_t expected = cur;
    ctx_->advance(static_cast<uint64_t>(cm.cas_ns));
    if (!orec.compare_exchange_strong(expected, OrecTable::lock_word(me),
                                      std::memory_order_acq_rel)) {
      abort_tx(stats::AbortCause::kConflictWrite);
    }
    if (rsan_) rsan_->on_orec_acquire(worker_, &orec);
    owned_.push_back(OwnedOrec{&orec, cur});
  }

  // Log the old value; the record (and, on the first write, the ACTIVE
  // status) must persist before the in-place store — hence one fence per
  // write: the O(W) cost.
  const uint64_t old = mem.load_word(*ctx_, c_, waddr, nvm::Space::kData);
  const size_t entry_idx = n_log_;
  append_log(pool.offset_of(waddr), old);
  {
    // The per-write undo persist is undo logging's flush-drain window.
    stats::PhaseTimer ft(*ctx_, &c_->phases, stats::Phase::kFlushDrain);
    analysis::PhaseScope ps(psan_, worker_, stats::Phase::kFlushDrain);
    mem.store_word(*ctx_, c_, &slot_.header->log_count, n_log_, nvm::Space::kLog);
    if (!active_persisted_) {
      mem.store_word(*ctx_, c_, &slot_.header->algo, static_cast<uint64_t>(algo_),
                     nvm::Space::kLog);
      mem.store_word(*ctx_, c_, &slot_.header->status,
                     TxSlotHeader::make(epoch_, TxSlotHeader::kActive), nvm::Space::kLog);
      active_persisted_ = true;
    }
    // Mirror header joins the same per-write batch (mirror record was
    // written by append_log); one fence still covers everything.
    sync_mirror_header();
    persist_log_range(*ctx_, c_, entry_idx, 1);
    mem.clwb(*ctx_, c_, slot_.header);
    mem.sfence(*ctx_, c_);
  }

  // Ordering point (undo rule): the in-place store below must not precede
  // the durability of its undo record and the ACTIVE header — a crash
  // between them would find new data with no record to roll it back.
  psan_check_log_persisted(entry_idx, 1, analysis::DiagKind::kMisorderedPersist,
                           "in-place store ahead of its undo record");
  psan_check_header_persisted(analysis::DiagKind::kMisorderedPersist,
                              "in-place store ahead of the ACTIVE slot header");
  // Ordering point (mirror rule): the replica undo record and header must
  // be durable too before the in-place store — they are the fallback when
  // the primary line is damaged.
  psan_check_mirror_log_persisted(entry_idx, 1, analysis::DiagKind::kMisorderedPersist,
                                  "in-place store ahead of its mirrored undo record");
  psan_check_mirror_header_persisted(analysis::DiagKind::kMisorderedPersist,
                                     "in-place store ahead of the mirrored ACTIVE header");

  // Speculative in-place store (protected by the orec lock).
  mem.store_word(*ctx_, c_, waddr, val, nvm::Space::kData);
  dirty_.add(mem.line_of(waddr));
}

void Tx::eager_commit() {
  ctx_->advance(static_cast<uint64_t>(rt_->pool().config().cost.tx_commit_ns));
  if (owned_.empty() && tx_frees_.empty() && n_alloc_log_ == 0) {
    return;  // read-only
  }
  // The undo records and the ACTIVE header are durable already (one fence
  // per write); the commit seals the in-place data and the status.
  commit_writes();
}

void Tx::eager_rollback() {
  // Restore old values newest first, persist them, and make the dead log
  // durable before the locks go back to their pre-lock versions (the data
  // is unchanged).
  nvm::Pool& pool = rt_->pool();
  apply_records(pool, *ctx_, c_, slot_, n_log_, /*newest_first=*/true, dirty_);
  flush_lines(pool, *ctx_, c_, dirty_);
  pool.mem().sfence(*ctx_, c_);
  retire_logs();
  restore_owned();
}

}  // namespace ptm
