// orec-eager: the undo-logging PTM (the paper's best undo-based algorithm,
// from [38]). Writes acquire the orec at encounter time, persist an undo
// record of the old value, and then store the new value in place. Because
// the undo record must be durable *before* the in-place store may persist,
// every write carries a flush+fence under ADR — the O(W) fence cost the
// paper identifies as the reason undo loses to redo on write-heavy
// workloads (Figures 3/4), with TATP as the small-write-set exception.
#include <cassert>

#include "analysis/psan.h"
#include "ptm/runtime.h"
#include "ptm/tx.h"

namespace ptm {

uint64_t Tx::eager_read(const uint64_t* waddr) {
  std::atomic<uint64_t>& orec = rt_->orecs().for_addr(waddr);
  const uint64_t v1 = orec.load(std::memory_order_acquire);
  if (OrecTable::is_locked(v1) && OrecTable::owner_of(v1) == static_cast<uint32_t>(worker_)) {
    // We own it: the in-place value is ours.
    return rt_->pool().mem().load_word(*ctx_, c_, waddr, nvm::Space::kData);
  }
  return validated_read(orec, v1, waddr);
}

void Tx::eager_write(uint64_t* waddr, uint64_t val) {
  nvm::Pool& pool = rt_->pool();
  nvm::Memory& mem = pool.mem();
  acquire_orec(rt_->orecs().for_addr(waddr));

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
    // The replica header joins the same per-write batch (append_log wrote
    // the replica record); one fence still covers everything.
    sync_replica_header();
    persist_log_range(*ctx_, c_, entry_idx, 1);
    mem.clwb(*ctx_, c_, slot_.header);
    mem.sfence(*ctx_, c_);
  }

  // Ordering point (undo rule): the in-place store below must not precede
  // the durability of its undo record and the ACTIVE header, in every
  // copy — a crash between them would find new data with no record to
  // roll it back, and the replica is the fallback when the primary line
  // is damaged.
  psan_check_log_persisted(entry_idx, 1, analysis::DiagKind::kMisorderedPersist,
                           "in-place store ahead of its undo record");
  for (size_t k = 0; k < slot_.copies; k++) {
    psan_check_header_persisted(k, analysis::DiagKind::kMisorderedPersist,
                                "in-place store ahead of the ACTIVE slot header");
  }

  // Speculative in-place store (protected by the orec lock).
  mem.store_word(*ctx_, c_, waddr, val, nvm::Space::kData);
  dirty_.add(mem.line_of(waddr));
}

void Tx::eager_commit() {
  ctx_->advance(static_cast<uint64_t>(rt_->pool().config().cost.tx_commit_ns));
  if (owned_.empty() && n_alloc_log_ == 0) {
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
