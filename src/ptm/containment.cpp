// Thread-crash containment: lease bookkeeping and on-behalf reclamation.
// See containment.h for the protocol and docs/FAULTS.md for the fault
// model and the ordering points of the reclamation surgery.
#include "ptm/containment.h"

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "ptm/runtime.h"

namespace ptm {

ContainmentManager::ContainmentManager(Runtime& rt, uint64_t timeout_ns,
                                       int max_workers)
    : rt_(rt), timeout_ns_(timeout_ns), n_(max_workers),
      ws_(new WorkerState[static_cast<size_t>(max_workers)]) {
  stats_.enabled = true;
  // Zombie probe: a worker waking from a stall fault dies before issuing
  // its interrupted store if it was fenced while parked.
  rt_.pool().mem().set_fenced_probe([this](int w) {
    if (w < 0 || w >= n_) return false;
    if (!ws_[static_cast<size_t>(w)].fenced.load(std::memory_order_acquire)) {
      return false;
    }
    stats_.zombies_fenced++;
    return true;
  });
}

ContainmentManager::~ContainmentManager() {
  rt_.pool().mem().set_fenced_probe(nullptr);
}

void ContainmentManager::beat(int w, uint64_t now) {
  if (w < 0 || w >= n_) return;
  WorkerState& s = ws_[static_cast<size_t>(w)];
  // The heartbeat doubles as the permission check: a fenced worker has
  // been reclaimed (or deposed) and must not issue another store.
  if (s.fenced.load(std::memory_order_acquire)) {
    rt_.pool().mem().drain_worker_pending(w);
    throw nvm::FiberKill{w};
  }
  // Monotonic max: contexts with different clocks (engine fibers vs a
  // verification RealContext) must never roll a lease backwards.
  const uint64_t prev = s.last_beat.load(std::memory_order_relaxed);
  if (now > prev) s.last_beat.store(now, std::memory_order_release);
}

void ContainmentManager::enter_tx(int w, uint64_t now) {
  WorkerState& s = ws_[static_cast<size_t>(w)];
  // Quarantine: a dead or fenced descriptor must not start a transaction
  // until reclamation/recovery retired it and the harness revived the id.
  if (s.dead.load(std::memory_order_acquire) ||
      s.fenced.load(std::memory_order_acquire)) {
    rt_.pool().mem().drain_worker_pending(w);
    throw nvm::FiberKill{w};
  }
  const uint64_t prev = s.last_beat.load(std::memory_order_relaxed);
  if (now > prev) s.last_beat.store(now, std::memory_order_release);
  s.in_tx.store(true, std::memory_order_release);
}

void ContainmentManager::exit_tx(int w) {
  ws_[static_cast<size_t>(w)].in_tx.store(false, std::memory_order_release);
}

void ContainmentManager::mark_dead(int w) {
  if (w < 0 || w >= n_) return;
  ws_[static_cast<size_t>(w)].dead.store(true, std::memory_order_release);
  stats_.deaths++;
}

bool ContainmentManager::stale(int w, uint64_t now) const {
  if (w < 0 || w >= n_) return false;
  const WorkerState& s = ws_[static_cast<size_t>(w)];
  if (s.fenced.load(std::memory_order_acquire)) return true;
  // Soundness: only a provably unresponsive worker can lose its lease. A
  // slow-but-live worker always keeps it — its one in-flight store could
  // land after the surgery rewired the slot.
  if (!s.dead.load(std::memory_order_acquire) &&
      !rt_.pool().mem().stalled_in_fault(w)) {
    return false;
  }
  const uint64_t b = s.last_beat.load(std::memory_order_acquire);
  return now >= b && now - b > timeout_ns_;
}

void ContainmentManager::note_takeover(int old_leader) {
  if (old_leader >= 0 && old_leader < n_) {
    ws_[static_cast<size_t>(old_leader)].fenced.store(true, std::memory_order_release);
  }
  stats_.leader_takeovers++;
}

bool ContainmentManager::on_locked_orec(uint32_t owner, sim::ExecContext& ctx,
                                        stats::TxCounters* c) {
  const int w = static_cast<int>(owner);
  if (w < 0 || w >= n_ || w == ctx.worker_id()) return false;
  if (!ws_[static_cast<size_t>(w)].in_tx.load(std::memory_order_acquire)) return false;
  if (!stale(w, ctx.now_ns())) return false;
  return reclaim(w, ctx, c);
}

void ContainmentManager::sweep(sim::ExecContext& ctx, stats::TxCounters* c) {
  stats_.watchdog_passes++;
  const int me = ctx.worker_id();
  beat(me, ctx.now_ns());
  for (int w = 0; w < n_; w++) {
    if (w == me) continue;
    if (!ws_[static_cast<size_t>(w)].in_tx.load(std::memory_order_acquire)) continue;
    if (!stale(w, ctx.now_ns())) continue;
    reclaim(w, ctx, c);
  }
}

bool ContainmentManager::reclaim(int victim, sim::ExecContext& ctx,
                                 stats::TxCounters* c) {
  const int me = ctx.worker_id();
  if (victim == me || victim < 0 || victim >= n_) return false;
  WorkerState& vs = ws_[static_cast<size_t>(victim)];
  const uint64_t now = ctx.now_ns();
  if (!vs.in_tx.load(std::memory_order_acquire)) return false;
  if (!stale(victim, now)) return false;

  // One reclaimer at a time; the guard itself is lease-stealable (a kill
  // can strike mid-reclamation). Stealing fences the previous holder: if
  // it was merely stalled, it dies on wake instead of resuming surgery a
  // successor restarted from scratch.
  int cur = vs.reclaim_by.load(std::memory_order_acquire);
  if (cur == me) return false;
  if (cur >= 0) {
    if (!stale(cur, now)) return false;
    if (!vs.reclaim_by.compare_exchange_strong(cur, me, std::memory_order_acq_rel)) {
      return false;
    }
    ws_[static_cast<size_t>(cur)].fenced.store(true, std::memory_order_release);
  } else if (!vs.reclaim_by.compare_exchange_strong(cur, me,
                                                    std::memory_order_acq_rel)) {
    return false;
  }

  // Fence the victim before any surgery: if it is merely stalled (not
  // dead), its wake probe — or its next heartbeat — kills it before it
  // can issue the store the fault interrupted.
  vs.fenced.store(true, std::memory_order_release);

  bool done = false;
  try {
    // Re-verify under the guard: a previous holder may have finished, or
    // the state may have moved while we raced for the guard.
    if (vs.in_tx.load(std::memory_order_acquire) && stale(victim, ctx.now_ns())) {
      done = reclaim_locked(victim, ctx, c);
    } else {
      done = true;
    }
  } catch (const nvm::FiberKill&) {
    // Killed mid-reclamation: keep the guard set. The next reclaimer
    // observes the holder as stale and steals it; releasing here would
    // drop the "one surgeon at a time" invariant for a zombie holder.
    throw;
  } catch (...) {
    vs.reclaim_by.store(-1, std::memory_order_release);
    throw;
  }
  if (done) vs.in_tx.store(false, std::memory_order_release);
  vs.reclaim_by.store(-1, std::memory_order_release);
  return done;
}

bool ContainmentManager::reclaim_locked(int victim, sim::ExecContext& ctx,
                                        stats::TxCounters* c) {
  WorkerState& vs = ws_[static_cast<size_t>(victim)];
  Tx& vtx = *rt_.txs_[static_cast<size_t>(victim)];
  nvm::Pool& pool = rt_.pool();
  nvm::Memory& mem = pool.mem();
  // HB edge: the victim is fenced (it can never store again), so the
  // reclaimer inherits its clock — and its orec ownership, which licenses
  // the replay/undo surgery below on lines the victim's orecs still cover.
  if (vtx.rsan_ != nullptr) vtx.rsan_->on_inherit(ctx.worker_id(), victim);
  const uint64_t expiry =
      vs.last_beat.load(std::memory_order_acquire) + timeout_ns_;

  // Resolve the victim's epoch entanglement first: a queued/staged
  // member's fate is the epoch's fate, not the slot header's.
  int phase = 0;
  EpochManager* ep = rt_.epochs();
  if (ep != nullptr) {
    const uint64_t poll = timeout_ns_ >= 8 ? timeout_ns_ / 8 : 1;
    for (;;) {
      phase = ep->member_phase(victim);
      if (phase != 1) break;
      // Queued or staged: close the epoch on the victim's behalf, stealing
      // a dead leader's lease if needed. A live leader mid-drain makes
      // help_close return false — give it time to finish.
      if (!ep->help_close(ctx, c)) {
        ctx.advance(poll);
        beat(ctx.worker_id(), ctx.now_ns());
      }
    }
    if (phase == 3) return false;  // froze mid-drain; recovery owns the slot
    ep->forget(victim);
  }

  // Dispatch on what is durably decided. Absent a power failure the pool
  // image holds every store the victim issued, so the slot header is the
  // ground truth for "commit record sealed". The volatile committed_hint_
  // covers the post-retire window where the header already shows the next
  // epoch's IDLE but orecs/observer work is unfinished; an acked epoch
  // member (phase 2) is durably committed by the epoch's batch C fence.
  const uint64_t st = vtx.slot_.header->status;
  const bool committed =
      phase == 2 || vtx.committed_hint_ ||
      (TxSlotHeader::state_of(st) == TxSlotHeader::kCommitted &&
       TxSlotHeader::epoch_of(st) == vtx.epoch_);

  if (committed) {
    // Roll FORWARD. Lazy: replay the sealed redo log to the home
    // locations (idempotent across reclaimer deaths — re-storing the
    // committed values is harmless while the victim's orecs are held);
    // eager: the data is already in place. Then the committed frees.
    if (vtx.algo_ == Algo::kOrecLazy) {
      apply_records(pool, ctx, c, vtx.slot_, vtx.n_log_, /*newest_first=*/false, vtx.dirty_);
    }
    if (flush_lines(pool, ctx, c, vtx.dirty_)) mem.sfence(ctx, c);
    for (void* p : vtx.tx_frees_) rt_.alloc_.free_block_if_absent(ctx, c, p);
  } else {
    // Roll BACK. Eager: apply the undo log newest-first to the in-place
    // homes (only when the durable header still shows this epoch ACTIVE —
    // an already-quiesced slot has nothing to undo); lazy: the unsealed
    // redo log is simply discarded. Then cancel speculative allocations.
    if (vtx.algo_ == Algo::kOrecEager && vtx.n_log_ > 0 &&
        TxSlotHeader::state_of(st) == TxSlotHeader::kActive &&
        TxSlotHeader::epoch_of(st) == vtx.epoch_) {
      apply_records(pool, ctx, c, vtx.slot_, vtx.n_log_, /*newest_first=*/true, vtx.dirty_);
      flush_lines(pool, ctx, c, vtx.dirty_);
      mem.sfence(ctx, c);
    }
    for (void* p : vtx.tx_allocs_) rt_.alloc_.free_block_if_absent(ctx, c, p);
  }
  // Blocks allocated by a committed victim stay allocated (their offsets
  // are in committed state); blocks freed by an aborted one stay live.
  // Both vectors clear only after their effects are applied above — a
  // reclaimer killed before this line leaves them for its successor.
  vtx.tx_allocs_.clear();
  vtx.tx_frees_.clear();

  // Durably retire the slot to IDLE for the next epoch — through the
  // RECLAIMER's context (advancing a dead fiber's context would corrupt
  // the engine). Double epoch bumps across restarted reclaims only skip
  // values, which the tag scheme tolerates by construction.
  vtx.n_log_ = 0;
  vtx.n_alloc_log_ = 0;
  vtx.epoch_ = retire_slot(pool, ctx, c, vtx.slot_, vtx.epoch_ + 1);
  vtx.windex_.clear();
  vtx.dirty_.clear();
  vtx.read_set_.clear();
  vtx.active_persisted_ = false;
  vtx.committed_hint_ = false;

  // Release the victim's orecs. CAS, not blind store: if the victim (or a
  // previous reclaimer) already released some — or a later transaction has
  // since acquired and advanced them — the CAS must lose. Restart-safe.
  // Committed: a fresh version; aborted: each orec's pre-lock word.
  const auto owner = static_cast<uint32_t>(victim);
  const uint64_t rv = committed ? OrecTable::version_word(rt_.orecs_.tick()) : 0;
  for (const OwnedOrec& o : vtx.owned_) {
    if (vtx.rsan_ != nullptr) vtx.rsan_->on_orec_release(ctx.worker_id(), o.orec);
    uint64_t expect = OrecTable::lock_word(owner);
    o.orec->compare_exchange_strong(expect, committed ? rv : o.old_word,
                                    std::memory_order_acq_rel);
  }
  vtx.owned_.clear();

  // Close out attribution and the shadow history on the victim's behalf.
  // The commit notification carries the victim's orec-clock ticket, which
  // ordered before any successor that re-acquires these locations.
  if (vtx.psan_ != nullptr) vtx.psan_->on_tx_end(victim);
  if (vtx.rsan_ != nullptr) vtx.rsan_->on_tx_end(victim);
  if (TxObserver* ob = rt_.observer()) {
    if (committed) {
      ob->on_commit(victim, vtx.commit_ticket_);
    } else {
      ob->on_abort(victim);
    }
  }

  stats_.stuck_tx_reclaimed++;
  if (committed) {
    stats_.commits_completed++;
  } else {
    stats_.aborts_on_behalf++;
  }
  const uint64_t done_ns = ctx.now_ns();
  stats_.reclaim_latency_ns.record(done_ns > expiry ? done_ns - expiry : 0);
  return true;
}

void ContainmentManager::reset() {
  for (int w = 0; w < n_; w++) {
    WorkerState& s = ws_[static_cast<size_t>(w)];
    s.last_beat.store(0, std::memory_order_relaxed);
    s.in_tx.store(false, std::memory_order_relaxed);
    s.dead.store(false, std::memory_order_relaxed);
    s.fenced.store(false, std::memory_order_relaxed);
    s.reclaim_by.store(-1, std::memory_order_release);
  }
}

void ContainmentManager::revive_all() { reset(); }

stats::ContainmentStats ContainmentManager::snapshot() const { return stats_; }

}  // namespace ptm
