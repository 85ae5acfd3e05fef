// The commit protocol, shared by both algorithms and both commit modes.
//
// After validation a writer seals its commit in three fence-delimited
// batches (docs/LOGGING.md, "Commit ordering"): A persists the payload
// (redo: log records + header; undo: the in-place data lines), B the
// mirror commit mark (log_mirror only), C the COMMITTED status — the
// durable commit point. Per-transaction commit runs the batches on the
// committer's own context as an epoch of one; epoch commit hands them to
// a leader that runs them once for every member (ptm/epoch.h). Either
// way the same tail follows: redo write-back, deferred frees, retire,
// orec release.
#include "analysis/psan.h"
#include "ptm/runtime.h"
#include "ptm/tx.h"

namespace ptm {

void Tx::commit_writes() {
  // Linearization point setup: take a commit timestamp, then validate the
  // read set (skippable when nothing committed since begin).
  const uint64_t wv = rt_->orecs().tick();
  commit_ticket_ = wv;
  if (wv != start_time_ + 1) {
    stats::PhaseTimer vt(*ctx_, &c_->phases, stats::Phase::kValidate);
    if (!validate_read_set()) abort_tx(stats::AbortCause::kValidation);
  }

  const bool redo = algo_ == Algo::kOrecLazy;
  if (EpochManager* ep = rt_->epochs()) {
    // Seal with stores only, publish, and wait for the leader's durable
    // ack: the wait is kEpochWait, the leader's batches kEpochDrain.
    if (redo) seal_header();
    ep->commit(*this);
    committed_ = true;  // reclamation must now roll FORWARD
    if (redo) write_back(/*timed=*/true);
  } else {
    // An epoch of one. One flush-drain window covers the seal and the
    // write-back — the fence-extended region the paper blames for longer
    // lock-hold times under ADR.
    stats::PhaseTimer ft(*ctx_, &c_->phases, stats::Phase::kFlushDrain);
    analysis::PhaseScope ps(psan_, worker_, stats::Phase::kFlushDrain);
    if (redo) seal_header();
    Tx* self = this;
    seal({&self, 1}, *ctx_, c_, [] {});
    committed_ = true;  // reclamation must now roll FORWARD
    if (redo) write_back(/*timed=*/false);
  }

  // Deferred frees take effect now that the transaction is durably
  // committed. Then retire the log before releasing the locks: the IDLE
  // record must be durable first, otherwise recovery could replay this
  // (already written-back) redo log over data later transactions
  // modified, or roll back a committed undo transaction.
  apply_frees();
  retire_logs();
  release_owned(OrecTable::version_word(wv));
}

void Tx::seal(std::span<Tx* const> txs, sim::ExecContext& ctx, stats::TxCounters* c,
              const std::function<void()>& guard) {
  nvm::Memory& mem = txs.front()->rt_->pool().mem();

  // Batch A — every member's payload, then one fence. Members only
  // stored; this fence is the first ordering point they share.
  bool flushed = false;
  for (Tx* t : txs) {
    guard();
    flushed |= t->seal_payload(ctx, c);
  }
  if (flushed) mem.sfence(ctx, c);
  for (Tx* t : txs) t->check_payload_persisted();

  // Batch B — mirror commit marks in their own fence-delimited batch:
  // after the payload fence, before any primary seal, never sharing
  // either batch.
  bool mirrored = false;
  for (Tx* t : txs) {
    guard();
    mirrored |= t->seal_mirror_mark(ctx, c);
  }
  if (mirrored) {
    mem.sfence(ctx, c);
    for (Tx* t : txs) t->check_mirror_persisted();
  }

  // Batch C — every primary COMMITTED status, one fence.
  for (Tx* t : txs) {
    guard();
    t->seal_status(ctx, c);
  }
  guard();
  mem.sfence(ctx, c);
  // ---- durable commit point ----
}

void Tx::seal_header() {
  nvm::Pool& pool = rt_->pool();
  nvm::Memory& mem = pool.mem();
  mem.store_word(*ctx_, c_, &slot_.header->log_count, n_log_, nvm::Space::kLog);
  mem.store_word(*ctx_, c_, &slot_.header->algo, static_cast<uint64_t>(algo_),
                 nvm::Space::kLog);
  if (crc_logs_) {
    // Whole-log checksum (crash-sim configs): recovery cross-checks the
    // committed record set beyond the per-record crcs. Persisted with the
    // header in batch A, *before* the status flip, so a torn header line
    // can never pair a new status with a stale checksum.
    mem.store_word(*ctx_, c_, &slot_.header->pad[SlotLayout::kLogCrcPad],
                   log_crc(slot_, n_log_), nvm::Space::kLog);
  }
  // Reseal the primary header CRC over the new counts; the mirror
  // COMMITTED image gets its own batch after the records' fence.
  seal_primary_header_crc(pool, *ctx_, c_, slot_);
}

bool Tx::seal_payload(sim::ExecContext& ctx, stats::TxCounters* c) {
  if (algo_ == Algo::kOrecLazy) {
    persist_log_range(ctx, c, 0, n_log_);
    rt_->pool().mem().clwb(ctx, c, slot_.header);
    return true;
  }
  // Undo: the records and the ACTIVE header are durable already (one
  // fence per write); only the in-place data lines remain.
  return flush_lines(rt_->pool(), ctx, c, dirty_);
}

void Tx::check_payload_persisted() {
  // Ordering point (commit seal): everything batch A flushed must be
  // durable before the COMMITTED record — recovery must never see a commit
  // whose effects it cannot reproduce. Redo: every copy of the log and the
  // primary header, or replay applies garbage. Undo: every in-place write;
  // its header was checked durable before each in-place store
  // (eager_write), and its COMMITTED store is batch C's, so it is not
  // batch A's to check.
  if (algo_ == Algo::kOrecLazy) {
    psan_check_log_persisted(0, n_log_, analysis::DiagKind::kMissingFlush,
                             "redo record unpersisted at commit seal");
    psan_check_header_persisted(SlotLayout::kPrimary, analysis::DiagKind::kMissingFlush,
                                "slot header unpersisted at commit seal");
  } else {
    psan_check_dirty_persisted(analysis::DiagKind::kMissingFlush,
                               "in-place write unpersisted at commit seal");
  }
}

bool Tx::seal_mirror_mark(sim::ExecContext& ctx, stats::TxCounters* c) {
  // The mirror's COMMITTED image is a durable commit mark in its own right
  // (recovery trusts it when the primary header is damaged), so it must
  // not be *flushable* before the payload fence — a spontaneous writeback
  // could otherwise publish the commit over a payload that never
  // persisted. Batch B's fence then makes it durable before the primary
  // seal.
  if (!slot_.mirrored()) return false;
  seal_replica_header(rt_->pool(), ctx, c, slot_,
                      TxSlotHeader::make(epoch_, TxSlotHeader::kCommitted));
  return true;
}

void Tx::check_mirror_persisted() {
  if (!slot_.mirrored()) return;
  psan_check_header_persisted(SlotLayout::kReplica, analysis::DiagKind::kMissingFlush,
                              "mirror header unpersisted at commit seal");
}

void Tx::seal_status(sim::ExecContext& ctx, stats::TxCounters* c) {
  // The mirror already carries its durable COMMITTED image (batch B), so
  // only the primary moves; batch C's fence makes the flip durable.
  rt_->pool().mem().store_word(ctx, c, &slot_.header->status,
                               TxSlotHeader::make(epoch_, TxSlotHeader::kCommitted),
                               nvm::Space::kLog);
  seal_primary_header_crc(rt_->pool(), ctx, c, slot_);
  rt_->pool().mem().clwb(ctx, c, slot_.header);
}

void Tx::write_back(bool timed) {
  // Ordering point (write-back rule): home-location stores must not start
  // until the commit record is durable — otherwise a crash sees
  // partially-written-back data with an un-sealed log, and recovery rolls
  // the slot back over data the write-back already changed.
  psan_check_header_persisted(SlotLayout::kPrimary, analysis::DiagKind::kMisorderedPersist,
                              "write-back ahead of the sealed commit record");
  // Alloc-only / free-only transactions have nothing to write back and
  // skip the batch — flushing nothing and fencing nothing.
  if (n_log_ == 0) return;
  stats::PhaseTimer ft(*ctx_, timed ? &c_->phases : nullptr, stats::Phase::kFlushDrain);
  analysis::PhaseScope ps(timed ? psan_ : nullptr, worker_, stats::Phase::kFlushDrain);
  nvm::Pool& pool = rt_->pool();
  apply_records(pool, *ctx_, c_, slot_, n_log_, /*newest_first=*/false, dirty_);
  flush_lines(pool, *ctx_, c_, dirty_);
  pool.mem().sfence(*ctx_, c_);
}

}  // namespace ptm
