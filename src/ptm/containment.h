// Thread-crash containment: orec leases, stuck-transaction reclamation,
// and the quarantine that keeps a dead worker's debris from blocking the
// rest of the runtime.
//
// The fault model (nvm::Memory::arm_thread_fault) can kill or stall one
// worker fiber at any persistence event, leaving its orecs locked and its
// durable log slot mid-flight. Without containment that is a permanent
// denial of service: every conflicting transaction aborts against the dead
// owner's locks forever. With containment (SystemConfig::tx_timeout_ns > 0):
//
//  * every worker heartbeats (begin, per read/write, per epoch-wait poll),
//    so "last_beat + tx_timeout_ns" is a per-worker lease on its specula-
//    tive state;
//  * a waiter that finds an orec locked by an expired owner — or the
//    watchdog fiber sweeping on its interval — reclaims the victim's
//    transaction ON ITS BEHALF: complete it forward if its commit record
//    is sealed (replay the redo log / keep the in-place data), roll it
//    back otherwise (apply the undo log / discard the unsealed redo log),
//    durably retire the slot to IDLE, release the victim's orecs, and
//    quarantine the descriptor;
//  * an epoch member whose drain leader died steals the expired leadership
//    lease and re-runs the fence batches (EpochManager::try_lead).
//
// Soundness rule: a lease is only treated as expired when the owner is
// provably unresponsive — its fiber unwound on nvm::FiberKill (dead), or
// it is parked inside a stall fault (nvm::Memory::stalled_in_fault). A
// slow-but-live owner is never victimized, because its one in-flight
// store could land after the reclaimer rewired the slot. This is the
// simulator's analogue of "the OS confirmed the thread is gone" (robust
// futexes / pthread_tryjoin in a real implementation). Reclamation itself
// is restartable: every step is idempotent, the per-victim reclaim guard
// is itself lease-stealable, and a worker fenced mid-anything dies at its
// next heartbeat or stall-wake before issuing another store.
//
// With tx_timeout_ns == 0 the Runtime never constructs a manager: every
// hook in the hot paths is a single null-pointer test, and default-config
// bench artifacts stay byte-identical (the psan/devstats purity pattern).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "sim/context.h"
#include "stats/counters.h"

namespace ptm {

class Runtime;
class Tx;

class ContainmentManager {
 public:
  /// `timeout_ns` is SystemConfig::tx_timeout_ns (> 0; the runtime gates
  /// construction). Installs the zombie fence probe on the pool's memory;
  /// the destructor uninstalls it.
  ContainmentManager(Runtime& rt, uint64_t timeout_ns, int max_workers);
  ~ContainmentManager();

  ContainmentManager(const ContainmentManager&) = delete;
  ContainmentManager& operator=(const ContainmentManager&) = delete;

  // ----- worker lifecycle (called from Tx / EpochManager hot paths) ------

  /// Refresh worker `w`'s lease at sim-time `now`. Throws nvm::FiberKill
  /// when the worker was fenced — the heartbeat doubles as the permission
  /// check that stops a zombie before its next store.
  void beat(int w, uint64_t now);

  /// Tx::begin: quarantine check (a dead or fenced descriptor must not
  /// start a transaction; throws nvm::FiberKill) + lease refresh + mark
  /// the descriptor in-tx (reclaimable if the lease then expires).
  void enter_tx(int w, uint64_t now);

  /// Tx::commit / Tx::handle_abort: the descriptor is clean again.
  void exit_tx(int w);

  /// Runtime::run's FiberKill handler. Atomic stores only — safe inside a
  /// catch handler (no yields).
  void mark_dead(int w);

  // ----- liveness queries ------------------------------------------------

  /// Lease verdict for worker `w` at sim-time `now`: expired AND provably
  /// unresponsive (dead, fenced, or parked in a stall fault). `now` behind
  /// the last beat (heterogeneous context clocks) never counts as expired.
  bool stale(int w, uint64_t now) const;

  bool dead(int w) const { return ws_[static_cast<size_t>(w)].dead.load(std::memory_order_acquire); }
  bool fenced(int w) const { return ws_[static_cast<size_t>(w)].fenced.load(std::memory_order_acquire); }
  bool in_tx(int w) const { return ws_[static_cast<size_t>(w)].in_tx.load(std::memory_order_acquire); }

  // ----- reclamation -----------------------------------------------------

  /// Conflict-site hook: the caller found an orec locked by `owner`.
  /// Reclaims the owner's transaction if its lease is stale; returns true
  /// when the orec is free to retry (the caller still aborts the current
  /// attempt — its retry revalidates everything).
  bool on_locked_orec(uint32_t owner, sim::ExecContext& ctx, stats::TxCounters* c);

  /// Watchdog pass: reclaim every stale in-flight worker except the
  /// caller. Safe to call from any fiber whose worker id has a slot.
  void sweep(sim::ExecContext& ctx, stats::TxCounters* c);

  /// EpochManager::try_lead stole the drain lease from `old_leader`:
  /// fence it (it must die before issuing another store) and count the
  /// takeover.
  void note_takeover(int old_leader);

  // ----- maintenance -----------------------------------------------------

  /// Drop all volatile containment state (Runtime::recover): leases,
  /// dead/fenced quarantine flags, reclaim guards. After a power failure
  /// recovery owns every slot; no online verdict survives it.
  void reset();

  /// Lift the quarantine so a test/verification harness can reuse killed
  /// workers' descriptors *after* reclaiming or recovering their state.
  /// Leases restart from the next beat.
  void revive_all();

  uint64_t timeout_ns() const { return timeout_ns_; }

  /// Counters for the REPRO_JSON "containment" section.
  stats::ContainmentStats snapshot() const;

 private:
  struct WorkerState {
    std::atomic<uint64_t> last_beat{0};
    std::atomic<bool> in_tx{false};
    std::atomic<bool> dead{false};
    // "Must not execute another instruction": set by a reclaimer before
    // slot surgery, by a leadership takeover on the deposed leader, and by
    // a reclaim-guard steal on the stalled reclaimer. Enforced at every
    // heartbeat and at stall-fault wake (Memory's fenced probe).
    std::atomic<bool> fenced{false};
    // Worker id currently reclaiming this slot, -1 when free. Stealable
    // when the holder itself goes stale (a kill during reclamation).
    std::atomic<int> reclaim_by{-1};
  };

  /// Reclaim `victim`'s in-flight transaction from `ctx`'s fiber. Returns
  /// true when the slot was retired (or found already clean).
  bool reclaim(int victim, sim::ExecContext& ctx, stats::TxCounters* c);

  /// The surgery proper (guard held, victim fenced): resolve the epoch
  /// phase, dispatch on the slot's durable status, roll forward/back
  /// (ptm::apply_records), retire (ptm::retire_slot), release, notify — every
  /// store, flush and fence through the reclaimer's context.
  bool reclaim_locked(int victim, sim::ExecContext& ctx, stats::TxCounters* c);

  Runtime& rt_;
  uint64_t timeout_ns_;
  int n_;
  std::unique_ptr<WorkerState[]> ws_;

  // Written from worker fibers under the single-OS-thread DES engine (and
  // from the memory model's fence probe); snapshot() runs quiescently.
  stats::ContainmentStats stats_;
};

}  // namespace ptm
