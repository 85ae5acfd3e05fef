// Epoch/group commit: the EpochManager queue, leadership and drain. The
// seal batches themselves are Tx::seal (commit.cpp), shared with
// per-transaction commit; docs/LOGGING.md has the ordering rules.
#include "ptm/epoch.h"

#include <algorithm>

#include "analysis/psan.h"
#include "analysis/rsan.h"
#include "ptm/containment.h"
#include "ptm/runtime.h"
#include "ptm/tx.h"

namespace ptm {

void EpochManager::commit(Tx& tx) {
  sim::ExecContext& ctx = *tx.ctx_;
  stats::TxCounters* c = tx.c_;
  const int me = tx.worker_;
  Member& m = members_[static_cast<size_t>(me)];
  m.tx = &tx;
  m.publish_ns = ctx.now_ns();
  if (analysis::Rsan* rs = tx.rsan_) {
    rsan_ = rs;  // cache for try_lead()'s takeover edge
    // HB edge: everything this member stored (sealed log, in-place data)
    // happens-before the leader staging this record in drain().
    rs->on_publish(me, &m);
  }
  m.state.store(MemberState::kQueued, std::memory_order_relaxed);
  m.inflight.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> g(mu_);
    queue_.push_back(&m);
    queued_.store(queue_.size(), std::memory_order_release);
  }

  stats::PhaseTimer wt(ctx, &c->phases, stats::Phase::kEpochWait);
  analysis::PhaseScope ps(tx.psan_, me, stats::Phase::kEpochWait);
  // Poll at a fraction of the age trigger: fine enough that an epoch never
  // overshoots its deadline by much, coarse enough that waiters don't
  // dominate the event schedule.
  const uint64_t poll = max_ns_ >= 4 ? max_ns_ / 4 : 1;
  try {
    for (;;) {
      // Heartbeat per poll so a parked waiter's lease stays fresh; throws
      // nvm::FiberKill if a reclaimer fenced this worker in the meantime
      // (inflight then stays set — the reclaimer owns the slot's fate).
      if (cm_ != nullptr) cm_->beat(me, ctx.now_ns());
      const MemberState st = m.state.load(std::memory_order_acquire);
      if (st == MemberState::kAcked) {
        // HB edge: the leader's batch fences (covering everything it
        // flushed on this member's behalf) happen-before the post-ack tail.
        if (analysis::Rsan* rs = tx.rsan_) rs->on_join(me, &m.state);
        m.inflight.store(false, std::memory_order_release);
        return;
      }
      if (st == MemberState::kCrashed) throw nvm::CrashPoint{};

      const bool by_size = queued_.load(std::memory_order_acquire) >= max_txs_;
      const bool by_age = ctx.now_ns() - m.publish_ns >= max_ns_;
      if ((by_size || by_age) && try_lead(me, ctx.now_ns())) {
        // Re-check under leadership: the previous leader may have acked
        // (or crashed) this member between the state load and the CAS.
        if (m.state.load(std::memory_order_acquire) == MemberState::kQueued) {
          try {
            drain(ctx, c, by_size);
          } catch (const nvm::FiberKill&) {
            // Killed while leading: keep leader_ = me. Survivors must see
            // the lease as held-but-expired and steal it via try_lead() —
            // releasing here would let them barge into a half-drained
            // batch without the takeover bookkeeping.
            throw;
          } catch (...) {
            leader_.store(-1, std::memory_order_release);
            throw;
          }
        }
        leader_.store(-1, std::memory_order_release);
        continue;  // the drain decided this member's state; re-check it
      }
      // DES rule: every wait charges simulated time (and yields under the
      // engine) — a waiter must never spin without advancing the clock.
      ctx.advance(poll);
    }
  } catch (const nvm::CrashPoint&) {
    // Power failure: the whole volatile runtime is torn down and reset();
    // no reclaimer will ever inspect this member, so clear the mark here
    // and keep the non-crash invariant (inflight == fate undecided) tight.
    m.inflight.store(false, std::memory_order_release);
    throw;
  }
  // nvm::FiberKill (and anything else) propagates with inflight still set.
}

bool EpochManager::try_lead(int me, uint64_t now) {
  int cur = leader_.load(std::memory_order_acquire);
  if (cur == -1 &&
      leader_.compare_exchange_strong(cur, me, std::memory_order_acq_rel)) {
    return true;
  }
  if (cur == me) return true;  // defensive: never deadlock on our own lease
  if (cm_ != nullptr && cur >= 0 && cm_->stale(cur, now)) {
    // The leader's lease expired (it is dead, or parked in a stall fault).
    // Fence it so it can never issue another store if it wakes, then take
    // over; the staged batch re-runs from batch A.
    if (leader_.compare_exchange_strong(cur, me, std::memory_order_acq_rel)) {
      // HB edge: the successor re-runs the staged batch, so it inherits
      // everything the deposed leader observed (member joins included).
      if (rsan_ != nullptr) rsan_->on_inherit(me, cur);
      cm_->note_takeover(cur);
      return true;
    }
  }
  return false;
}

void EpochManager::drain(sim::ExecContext& ctx, stats::TxCounters* c,
                         bool why_size) {
  const int self = ctx.worker_id();
  std::vector<Member*> batch;
  {
    std::lock_guard<std::mutex> g(mu_);
    // Stage the queue behind whatever a dead predecessor left in
    // draining_. Re-running the A/B/C fence batches over members the dead
    // leader already flushed is idempotent — the stores rewrite identical
    // values and the fences re-cover them — so a takeover restarts from
    // batch A without violating the three-batch ordering.
    for (Member* m : queue_) draining_.push_back(m);
    queue_.clear();
    queued_.store(0, std::memory_order_release);
    batch = draining_;
  }
  if (batch.empty()) return;

  nvm::Memory& mem = batch.front()->tx->rt_->pool().mem();
  analysis::Rsan* rs = batch.front()->tx->rsan_;
  stats::PhaseTimer dt(ctx, c != nullptr ? &c->phases : nullptr,
                       stats::Phase::kEpochDrain);
  analysis::PhaseScope psc(batch.front()->tx->psan_, self,
                           stats::Phase::kEpochDrain);

  // Containment guard, checked before every member in every batch: a
  // leader that lost its lease to a takeover must die before issuing
  // another store — a deposed leader and its successor writing the same
  // headers concurrently would corrupt slots the successor already acked.
  const auto guard = [&] {
    if (cm_ == nullptr) return;
    cm_->beat(self, ctx.now_ns());
    if (leader_.load(std::memory_order_acquire) != self) {
      mem.drain_worker_pending(self);
      throw nvm::FiberKill{self};
    }
  };

  // HB edge: join every member's publish before flushing on its behalf —
  // the leader's clwbs/fences then durably retire the members' stores.
  std::vector<Tx*> txs;
  txs.reserve(batch.size());
  for (Member* m : batch) {
    if (rs != nullptr) rs->on_join(self, m);
    txs.push_back(m->tx);
  }

  try {
    // The A/B/C seal batches, once for the whole epoch, on the leader's
    // WPQ. Durable commit point for the whole epoch on return.
    Tx::seal(txs, ctx, c, guard);
  } catch (const nvm::FiberKill&) {
    // The leader died (or was deposed) mid-drain. Nothing was acked and
    // the batch stays staged in draining_; a successor steals the expired
    // lease and re-runs the fence batches from scratch.
    throw;
  } catch (...) {
    // A crash point froze the pool mid-drain: no member of this batch was
    // acked, so every one must propagate the crash instead of finishing a
    // commit whose durability was never established. Recovery decides
    // their fate from the persistent image alone.
    stats_.closed_by_crash++;
    for (Member* m : batch) {
      m->state.store(MemberState::kCrashed, std::memory_order_release);
    }
    std::lock_guard<std::mutex> g(mu_);
    draining_.clear();
    throw;
  }

  stats_.epochs++;
  stats_.member_txs += batch.size();
  if (why_size) {
    stats_.closed_by_size++;
  } else {
    stats_.closed_by_age++;
  }
  stats_.size.record(batch.size());
  {
    std::lock_guard<std::mutex> g(mu_);
    draining_.clear();
  }
  for (Member* m : batch) {
    // HB edge: the epoch's durable close happens-before each member's
    // post-ack tail (write-back, retire, orec release).
    if (rs != nullptr) rs->on_publish(self, &m->state);
    m->state.store(MemberState::kAcked, std::memory_order_release);
  }
}

int EpochManager::member_phase(int w) const {
  const Member& m = members_[static_cast<size_t>(w)];
  if (!m.inflight.load(std::memory_order_acquire)) return 0;
  switch (m.state.load(std::memory_order_acquire)) {
    case MemberState::kQueued: return 1;
    case MemberState::kAcked: return 2;
    case MemberState::kCrashed: return 3;
  }
  return 0;
}

bool EpochManager::help_close(sim::ExecContext& ctx, stats::TxCounters* c) {
  const int me = ctx.worker_id();
  if (!try_lead(me, ctx.now_ns())) return false;
  const bool by_size = queued_.load(std::memory_order_acquire) >= max_txs_;
  try {
    drain(ctx, c, by_size);
  } catch (const nvm::FiberKill&) {
    throw;  // keep leader_ = me for the next stale-lease steal
  } catch (...) {
    leader_.store(-1, std::memory_order_release);
    throw;
  }
  leader_.store(-1, std::memory_order_release);
  return true;
}

void EpochManager::forget(int w) {
  Member& m = members_[static_cast<size_t>(w)];
  std::lock_guard<std::mutex> g(mu_);
  const auto drop = [&](std::vector<Member*>& v) {
    v.erase(std::remove(v.begin(), v.end(), &m), v.end());
  };
  drop(queue_);
  drop(draining_);
  queued_.store(queue_.size(), std::memory_order_release);
  m.inflight.store(false, std::memory_order_release);
}

void EpochManager::reset() {
  std::lock_guard<std::mutex> g(mu_);
  queue_.clear();
  draining_.clear();
  queued_.store(0, std::memory_order_release);
  leader_.store(-1, std::memory_order_release);
  for (int w = 0; w < n_workers_; w++) {
    Member& m = members_[static_cast<size_t>(w)];
    m.state.store(MemberState::kQueued, std::memory_order_release);
    m.inflight.store(false, std::memory_order_release);
  }
}

stats::EpochStats EpochManager::snapshot() const {
  stats::EpochStats out = stats_;
  out.enabled = true;
  return out;
}

}  // namespace ptm
