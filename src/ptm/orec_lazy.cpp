// orec-lazy: the redo-logging PTM (the paper's best redo-based algorithm,
// from [38]). Writes buffer in the per-thread redo log; home locations are
// only touched at commit, while the write-set orecs are held. Per-
// transaction persistence cost under ADR: one flush+fence batch for the
// log, one for the COMMITTED status, one for the write-back — O(1) fences
// regardless of write-set size, which is why the paper finds redo superior
// to undo for all workloads with non-trivial write sets.
#include <cassert>

#include "ptm/runtime.h"
#include "ptm/tx.h"

namespace ptm {

uint64_t Tx::lazy_read(const uint64_t* waddr) {
  nvm::Pool& pool = rt_->pool();
  // Read-own-writes: consult the DRAM-side index of the redo log.
  const uint64_t off = pool.offset_of(waddr);
  const int64_t idx = windex_.lookup(off);
  if (idx >= 0) {
    // The log record lives in PMEM; model the (usually L3-hot) access.
    return pool.mem().load_word(*ctx_, c_,
                                &slot_.entry_at(static_cast<size_t>(idx))->val,
                                nvm::Space::kLog);
  }

  std::atomic<uint64_t>& orec = rt_->orecs().for_addr(waddr);
  return validated_read(orec, orec.load(std::memory_order_acquire), waddr);
}

void Tx::lazy_write(uint64_t* waddr, uint64_t val) {
  const uint64_t off = rt_->pool().offset_of(waddr);
  const int64_t idx = windex_.lookup(off);
  if (idx >= 0) {
    // Update in place in the log (latest value wins at write-back), replica
    // first. The record checksum covers the value; reseal the off word.
    nvm::Memory& mem = rt_->pool().mem();
    for (size_t k = slot_.copies; k-- > 0;) {
      LogEntry* e = slot_.entry_at(static_cast<size_t>(idx), k);
      mem.store_word(*ctx_, c_, &e->val, val, nvm::Space::kLog);
      if (crc_logs_) {
        mem.store_word(*ctx_, c_, &e->off, LogEntry::seal(e->off, val), nvm::Space::kLog);
      }
    }
    return;
  }
  if (!windex_.insert(off, static_cast<int64_t>(n_log_))) {
    capacity_abort(CapacityKind::kWriteIndex);
  }
  append_log(off, val);
}

void Tx::lazy_commit() {
  nvm::Pool& pool = rt_->pool();
  const nvm::CostModel& cm = pool.config().cost;
  ctx_->advance(static_cast<uint64_t>(cm.tx_commit_ns));

  if (n_log_ == 0 && n_alloc_log_ == 0) {
    // Read-only: reads were validated incrementally; nothing to persist.
    return;
  }

  // 1. Acquire the write set's orecs (abort-on-conflict, no waiting;
  // handle_abort restores the orecs acquired so far).
  for (size_t i = 0; i < n_log_; i++) {
    auto* home = static_cast<uint64_t*>(pool.at(LogEntry::offset_of(slot_.entry_at(i)->off)));
    acquire_orec(rt_->orecs().for_addr(home));
  }

  // 2. Timestamp, validation, seal, write-back, retire, release.
  commit_writes();
}

}  // namespace ptm
