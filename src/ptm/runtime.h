// PTM runtime: owns the orec table, the persistent allocator, per-worker
// transaction descriptors and counters, and the retry loop.
//
// Typical use:
//
//   nvm::SystemConfig cfg;            // pick media/domain/cost model
//   nvm::Pool pool(cfg);
//   ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
//   rt.recover(ctx);                  // no-op on a fresh pool
//   rt.run(ctx, [&](ptm::Tx& tx) {
//     auto* root = pool.root<MyRoot>();
//     uint64_t v = tx.read(&root->counter);
//     tx.write(&root->counter, v + 1);
//   });
#pragma once

#include <exception>
#include <memory>
#include <vector>

#include "ptm/containment.h"
#include "ptm/epoch.h"
#include "ptm/tx.h"
#include "stats/trace.h"

namespace ptm {

/// Shadow-instrumentation hook (DRAM-side, invisible to the persistence
/// model): the fault-injection oracle records each transaction's write set
/// and commit ticket through this interface. Callbacks fire on the
/// worker's own thread; implementations must be safe for concurrent calls
/// from different workers. on_write fires after the algorithm accepted the
/// write (an aborting write never reaches it); on_commit fires exactly
/// once per durably-committed transaction with its orec-clock ticket
/// (commit order); on_abort fires after rollback completed.
class TxObserver {
 public:
  virtual ~TxObserver() = default;
  virtual void on_begin(int worker) { (void)worker; }
  virtual void on_write(int worker, uint64_t off, uint64_t val) {
    (void)worker; (void)off; (void)val;
  }
  virtual void on_commit(int worker, uint64_t ticket) { (void)worker; (void)ticket; }
  virtual void on_abort(int worker) { (void)worker; }
};

/// Thrown by Runtime::recover() under RecoveryPolicy::kFailStop when
/// committed data could not be reconstructed from any copy. The pool is
/// left exactly as the salvage pass would have left it (repairs applied,
/// damaged blocks quarantined) so a caller that catches this can still
/// inspect Runtime::degraded() — but the contract is fail-loud: no
/// application code should run on a pool that lost committed state.
struct MediaLossError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Runtime {
 public:
  Runtime(nvm::Pool& pool, Algo algo);
  ~Runtime();

  /// Execute `body(Tx&)` as one atomic, durable transaction, retrying on
  /// conflict until it commits. `body` must be idempotent across retries
  /// (standard STM contract) and must perform all persistent accesses
  /// through the Tx.
  template <typename F>
  void run(sim::ExecContext& ctx, F&& body) {
    Tx& tx = *txs_[static_cast<size_t>(ctx.worker_id())];
    tx.attach(&ctx, &counters_[static_cast<size_t>(ctx.worker_id())]);
    const bool tracing = stats::Trace::on();
    for (;;) {
      const uint64_t t0 = tracing ? ctx.now_ns() : 0;
      tx.begin();
      std::exception_ptr app_err;
      bool killed = false;
      try {
        body(tx);
        tx.commit();
        if (tracing) {
          stats::Trace::instance().span(ctx.worker_id(), "tx", t0, ctx.now_ns() - t0,
                                        "outcome", "commit");
        }
        return;
      } catch (const AbortTx&) {
        // Conflict/capacity abort: fall through to rollback + retry.
      } catch (const nvm::FiberKill&) {
        // Thread-crash fault: record only; quarantine after the handler.
        killed = true;
      } catch (...) {
        // Application exception (including nvm::CrashPoint): roll back,
        // then let it escape below.
        app_err = std::current_exception();
      }
      if (killed) {
        // The worker died at a persistence event. No rollback, no retry:
        // its orecs stay locked and its log slot stays mid-flight, exactly
        // as the kill left them, for containment (online reclamation by a
        // surviving worker / the watchdog) or recovery to resolve.
        tx.mark_killed();
        throw nvm::FiberKill{ctx.worker_id()};
      }
      try {
        tx.handle_abort();
      } catch (const nvm::FiberKill&) {
        // A second armed fault (or a reclaim fence) struck mid-rollback.
        tx.mark_killed();
        throw;
      }
      if (app_err) std::rethrow_exception(app_err);
      if (tracing) {
        // One span per *attempt*: aborted attempts appear individually,
        // labelled by cause, so a conflict storm is visible as a run of
        // short spans before the committing one.
        stats::Trace::instance().span(ctx.worker_id(), "tx", t0, ctx.now_ns() - t0,
                                      "outcome",
                                      stats::abort_cause_name(tx.last_abort_cause()));
      }
    }
  }

  /// Replay / roll back per-thread logs after a (simulated) power failure;
  /// also quiesces volatile speculation state. Safe on a fresh pool.
  /// Defensive: every persisted input (counts, offsets, segment links,
  /// record checksums, media-fault status) is validated before use, and
  /// the returned report says what was replayed and what was refused —
  /// callers that expect a clean start should assert
  /// report.records_discarded() == 0.
  stats::RecoveryReport recover(sim::ExecContext& ctx);

  /// Degraded-mode outcome of the most recent recover() call. All-zero
  /// (degraded == false) after every healthy recovery; populated under
  /// RecoveryPolicy::kSalvage when both copies of committed state were
  /// damaged and the pool kept going with losses quarantined.
  const stats::DegradedReport& degraded() const { return degraded_; }

  /// Install (or clear, with nullptr) the shadow-instrumentation hook.
  /// Must only change while no transactions are running.
  void set_observer(TxObserver* ob) { observer_ = ob; }
  TxObserver* observer() const { return observer_; }

  nvm::Pool& pool() { return pool_; }
  OrecTable& orecs() { return orecs_; }
  alloc::PersistentAllocator& allocator() { return alloc_; }
  Algo algo() const { return algo_; }

  /// Group-commit machinery; null unless the pool's SystemConfig::
  /// epoch_commit selected the mode when this runtime was built.
  EpochManager* epochs() const { return epochs_.get(); }

  /// Thread-crash containment; null unless SystemConfig::tx_timeout_ns > 0
  /// when this runtime was built (the default-off purity contract).
  ContainmentManager* containment() const { return containment_.get(); }

  stats::TxCounters& counters(int worker) {
    return counters_[static_cast<size_t>(worker)];
  }
  std::vector<stats::TxCounters> snapshot_counters() const { return counters_; }
  void reset_counters();

  // ----- test hooks ------------------------------------------------------

  /// Current epoch of a worker's transaction descriptor (tests assert the
  /// tag-wrap quiesce rules without peeking at private state).
  uint64_t debug_epoch(int worker) const;

  /// Fast-forward a worker's epoch (descriptor + durable IDLE status), as
  /// if that many transactions had retired. Only valid while the worker is
  /// between transactions; used to drive the 24-bit tag space to its wrap
  /// boundary in bounded test time.
  void debug_set_epoch(sim::ExecContext& ctx, int worker, uint64_t epoch);

 private:
  friend class Tx;
  friend class ContainmentManager;

  /// Resolve worker `w`'s log slot from the slot alone, every store, flush
  /// and fence issued through (ctx, c): screen the header (with mirror
  /// repair), replay a COMMITTED redo log or roll back an ACTIVE undo log,
  /// apply a committed transaction's frees or cancel an uncommitted one's
  /// allocations from the alloc log, retire the slot past its live epoch,
  /// and refresh the worker's descriptor. Tallies into `rep`. recover()
  /// runs it for every slot; on-behalf reclamation runs it for a dead
  /// worker's slot on the reclaimer's context.
  void resolve_slot(int w, sim::ExecContext& ctx, stats::TxCounters* c,
                    stats::RecoveryReport& rep);

  nvm::Pool& pool_;
  Algo algo_;
  OrecTable orecs_;
  alloc::PersistentAllocator alloc_;
  std::vector<stats::TxCounters> counters_;
  std::vector<std::unique_ptr<Tx>> txs_;
  std::unique_ptr<EpochManager> epochs_;  // non-null only in epoch mode
  std::unique_ptr<ContainmentManager> containment_;  // non-null only with tx_timeout_ns
  TxObserver* observer_ = nullptr;
  stats::DegradedReport degraded_;  // reset at the top of every recover()
};

}  // namespace ptm
