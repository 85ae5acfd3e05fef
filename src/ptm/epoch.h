// Group/epoch commit (SystemConfig::epoch_commit): amortize the per-
// transaction persistence ordering points across a batch of committers.
//
// Every commit is sealed by the same three fence-delimited batches
// (Tx::seal, commit.cpp): A. flush the payload — redo records + header, or
// undo dirty lines — then ONE sfence; B. (log_mirror only) the mirror
// COMMITTED headers, ONE sfence; C. the primary COMMITTED statuses, ONE
// sfence, the durable commit point. Per-transaction commit runs them on
// the committer's own context as an epoch of one, paying every fence
// alone — the dominant persistence cost on Optane under ADR, per the
// paper. In epoch mode a committing worker instead *publishes* its
// sealed-but-unmarked log to a per-runtime queue and waits; a leader
// elected among the waiters drains the queue and runs the three batches
// once for every member, so each fence is shared by the whole epoch.
//
// Durability acks are delivered on epoch close: commit() still only
// returns once the caller's transaction is durably marked, so the API
// contract is unchanged — only the latency/throughput tradeoff moves.
// An epoch closes when `epoch_max_txs` members are queued or when the
// oldest member has waited `epoch_max_ns` simulated nanoseconds (a lone
// worker degrades to epochs of one instead of stalling forever).
//
// DES discipline: waiting members charge simulated time via their own
// ExecContext (never block on OS primitives), and the leader issues every
// flush/fence through its *own* context so the batch drains the leader's
// WPQ — members only stored. If a drain hits a crash point mid-epoch the
// leader marks the whole batch crashed and rethrows; unacked members
// observe the mark and propagate nvm::CrashPoint without touching frozen
// memory, so no fiber hangs. Recovery needs no epoch-specific logic:
// acked members are durably COMMITTED (replayed), unacked members still
// show IDLE/ACTIVE logs that replay or roll back exactly like
// per-transaction crashes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/context.h"
#include "stats/counters.h"

namespace analysis {
class Rsan;
}  // namespace analysis

namespace ptm {

class ContainmentManager;
class Tx;

class EpochManager {
 public:
  EpochManager(size_t max_txs, uint64_t max_ns, int max_workers)
      : max_txs_(max_txs == 0 ? 1 : max_txs),
        max_ns_(max_ns == 0 ? 1 : max_ns),
        n_workers_(max_workers),
        members_(new Member[static_cast<size_t>(max_workers)]) {}

  /// Commit `tx` through the epoch machinery: publish the sealed slot,
  /// wait (or lead) until the epoch containing it closes durably. On
  /// return the transaction's COMMITTED status is durable; the caller
  /// still owns the post-commit tail (Tx::commit_writes). Throws
  /// nvm::CrashPoint when a crash froze the pool before this member's
  /// epoch could close.
  void commit(Tx& tx);

  /// Drop all volatile epoch state (queue, staged drain batch, leadership,
  /// member slots). Called by Runtime::recover(): a crash abandons every
  /// queued member, and a stale leader flag must not survive into the next
  /// lifetime.
  void reset();

  /// Counters for the REPRO_JSON "epoch" section (enabled is set by the
  /// runtime when the mode is active).
  stats::EpochStats snapshot() const;

  // ----- thread-crash containment hooks (ptm::ContainmentManager) --------

  /// Wire the containment manager (null disconnects). With a manager
  /// attached, waiters and leaders heartbeat, a drain abandoned by a killed
  /// leader stays staged for a successor, and try_lead() may steal an
  /// expired leadership lease.
  void set_containment(ContainmentManager* cm) { cm_ = cm; }

  /// Where worker `w`'s published commit stands: 0 = no commit in flight
  /// through the epoch machinery, 1 = queued/staged (epoch not yet durable),
  /// 2 = acked (epoch durably closed; only the member's post-commit work is
  /// outstanding), 3 = crashed (pool froze mid-drain). Reclaimers dispatch
  /// on this before touching a dead member's slot.
  int member_phase(int w) const;

  /// Try to close the pending epoch on behalf of dead members: take (or
  /// steal, lease permitting) leadership and drain from `ctx`. Returns
  /// false when leadership is held by a live leader — the caller backs off
  /// and retries. Charges `ctx` for every flush/fence, like any leader.
  bool help_close(sim::ExecContext& ctx, stats::TxCounters* c);

  /// Remove worker `w`'s member record from the queue and any staged batch
  /// and clear its in-flight mark. Called by the reclaimer once it has
  /// taken responsibility for the slot's fate.
  void forget(int w);

 private:
  enum class MemberState : uint8_t {
    kQueued = 0,  // published, waiting for a leader
    kAcked,       // epoch closed durably; member may finish its commit
    kCrashed,     // drain hit a crash point; member must propagate it
  };

  struct Member {
    Tx* tx = nullptr;
    uint64_t publish_ns = 0;
    std::atomic<MemberState> state{MemberState::kQueued};
    // Set while this worker has a published commit whose fate rests with
    // the epoch machinery (publish until ack/crash propagation). A killed
    // member never clears it — that is how reclaimers know the slot's
    // outcome is the epoch's outcome, not the slot header's alone.
    std::atomic<bool> inflight{false};
  };

  /// Drain the staged batch plus every queued member as one epoch (caller
  /// holds leadership; `ctx` pays for all flushes/fences). `why_size`
  /// records whether the size or the age trigger closed it.
  void drain(sim::ExecContext& ctx, stats::TxCounters* c, bool why_size);

  /// Acquire drain leadership as worker `me`: CAS from -1, or — with
  /// containment attached — steal from a leader whose lease expired at
  /// sim-time `now` (the deposed leader is fenced so it can never issue
  /// another store).
  bool try_lead(int me, uint64_t now);

  size_t max_txs_;
  uint64_t max_ns_;
  int n_workers_;

  // One member record per worker, reused across that worker's commits (a
  // worker has at most one published commit in flight).
  std::unique_ptr<Member[]> members_;

  // Queue of published members. The mutex guards the vectors and the
  // mirror count; member state transitions are atomic so waiters poll
  // without the lock. Real-thread safe for the unit/TSan suites;
  // uncontended under the single-OS-thread DES engine.
  mutable std::mutex mu_;
  std::vector<Member*> queue_;
  // Batch staged by the current (or a dead) leader. drain() moves queue_
  // into draining_ before touching any member and only clears it after the
  // epoch durably closed (or crashed), so a leader killed mid-drain leaves
  // the batch behind for a successor to re-run from batch A — the three
  // fence batches are idempotent over already-flushed members.
  std::vector<Member*> draining_;
  std::atomic<size_t> queued_{0};
  // Worker id of the drain leader, -1 when leadership is free. A leader
  // killed mid-drain keeps the flag (on purpose): successors must observe
  // the expired lease and steal via try_lead(), never barge in.
  std::atomic<int> leader_{-1};

  // Optional thread-crash containment (null = feature off, zero overhead
  // beyond the null tests).
  ContainmentManager* cm_ = nullptr;

  // Race sanitizer, cached from the first publishing transaction (same
  // Memory-owned instance for every worker; null when rsan is off). Needed
  // by try_lead(), which has no Tx in hand when it steals an expired lease.
  analysis::Rsan* rsan_ = nullptr;

  // Stats are leader-written under leadership (single writer at a time);
  // snapshot() is called quiescently by the driver after workers join.
  stats::EpochStats stats_;
};

}  // namespace ptm
