// Crash-trial harness: the arm → run-until-crash → power-fail → recover
// → verify sequence that every crash-consistency test and the crashfuzz
// explorer share. Owns the pool, the runtime and a durable-linearizability
// oracle wired in as the runtime's TxObserver.
//
// Usage:
//   fault::CrashHarness h(cfg, algo);
//   h.rt.run(ctx, setup);                 // populate
//   h.seal_initial_state();               // committed baseline
//   h.run_until_crash(events, seed, [&] { ...transactions... });
//   h.power_fail_and_recover(ctx);        // -> h.report
//   auto res = h.verify();                // oracle verdict
//
// Call verify() before running any post-recovery transactions: the oracle
// compares heap bytes against the recorded history, and later (unobserved)
// transactions would legitimately change them.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/psan.h"
#include "fault/oracle.h"
#include "nvm/pool.h"
#include "ptm/runtime.h"
#include "sim/context.h"
#include "sim/engine.h"
#include "util/rng.h"

namespace fault {

class CrashHarness {
 public:
  CrashHarness(const nvm::SystemConfig& cfg, ptm::Algo algo)
      : pool(cfg), rt(pool, algo), oracle(pool) {}

  ~CrashHarness() { rt.set_observer(nullptr); }

  /// Mark the current (populated) pool contents as the durable baseline.
  void seal_initial_state() { pool.mem().checkpoint_all_persistent(); }

  /// Arm a crash at the `events`-th persistence event, snapshot the oracle
  /// baseline, attach it, and run `body`. Returns true iff the crash fired
  /// (body may also complete normally when `events` exceeds the run).
  template <typename Body>
  bool run_until_crash(uint64_t events, uint64_t crash_seed, Body&& body) {
    pool.mem().arm_crash_after(events, crash_seed);
    oracle.start();
    rt.set_observer(&oracle);
    bool crashed = false;
    try {
      std::forward<Body>(body)();
    } catch (const nvm::CrashPoint&) {
      crashed = true;
    }
    return crashed;
  }

  /// Run `body` on `workers` concurrent DES fibers (worker ids 0 ..
  /// workers-1) and return the engine's final simulated time. A fiber that
  /// a thread fault kills (nvm::FiberKill) just stops, leaving its debris
  /// to containment, and counts in *kills_out. With a containment manager,
  /// a watchdog fiber on id `workers` sweeps every `patrol_ns` until every
  /// worker fiber has exited. A fault that kills the watchdog itself (say
  /// mid-reclamation) is recorded as Runtime::run records a worker's
  /// death, so the reclaim guard it held can be stolen, and ends the
  /// fiber. A power failure (nvm::CrashPoint) propagates once every fiber
  /// has finished.
  uint64_t run_round(int workers, uint64_t patrol_ns,
                     const std::function<void(sim::ExecContext&)>& body,
                     int* kills_out = nullptr) {
    ptm::ContainmentManager* cm = rt.containment();
    sim::Engine engine(cm != nullptr ? workers + 1 : workers);
    std::atomic<int> active{workers};
    int kills = 0;
    engine.run([&](sim::ExecContext& wctx) {
      if (wctx.worker_id() == workers) {
        try {
          while (active.load(std::memory_order_acquire) > 0) {
            cm->sweep(wctx, &rt.counters(wctx.worker_id()));
            if (active.load(std::memory_order_acquire) <= 0) break;
            wctx.advance(patrol_ns);
          }
        } catch (const nvm::FiberKill&) {
          cm->mark_dead(wctx.worker_id());
        }
        return;
      }
      // Decrement on ANY exit — completion, FiberKill, or a CrashPoint
      // unwinding — or the watchdog fiber never terminates.
      struct ActiveGuard {
        std::atomic<int>& a;
        ~ActiveGuard() { a.fetch_sub(1, std::memory_order_acq_rel); }
      } guard{active};
      try {
        body(wctx);
      } catch (const nvm::FiberKill&) {
        kills++;
      }
    });
    if (kills_out != nullptr) *kills_out = kills;
    return engine.elapsed_ns();
  }

  /// After a run_round over `workers` fibers: sweep from a fresh context
  /// on the watchdog's id at sim-time `at_ns` (past every lease expiry) to
  /// reclaim whatever the kills left behind. The id's quarantine is lifted
  /// first — a watchdog killed in the round left it dead, perhaps fenced or
  /// holding a reclaim guard.
  void sweep_after_round(int workers, uint64_t at_ns) {
    ptm::ContainmentManager* cm = rt.containment();
    cm->revive(workers);
    sim::RealContext vctx(workers, pool.config().max_workers);
    vctx.advance(at_ns);
    cm->sweep(vctx, nullptr);
  }

  /// Resolve the crash image, then recover. Detaches the oracle first so
  /// recovery and post-recovery transactions are not recorded. The
  /// recovery report is kept in `report` and also returned.
  stats::RecoveryReport power_fail_and_recover(sim::ExecContext& ctx,
                                               uint64_t image_seed = 17) {
    rt.set_observer(nullptr);
    util::Rng r(image_seed);
    pool.simulate_power_failure(r);
    if (analysis::Psan* ps = pool.mem().psan()) {
      // Captured before recovery's own stores disturb psan state: lines
      // the crashed run stored but never flushed. Most are ordinary
      // mid-transaction debris the log covers; their value is diagnostic —
      // when verify() fails on one of these lines, the bug is "never
      // flushed at all" rather than "torn by this crash schedule".
      crash_unflushed = ps->crash_unflushed_lines();
    }
    report = rt.recover(ctx);
    return report;
  }

  /// Durable-linearizability verdict on the recovered heap.
  Oracle::Result verify() const { return oracle.verify(); }

  nvm::Pool pool;
  ptm::Runtime rt;
  Oracle oracle;
  stats::RecoveryReport report;

  /// psan's never-flushed dirty lines at the most recent power failure
  /// (empty when psan is off — or when the algorithm flushed everything
  /// it was required to, which the shipped algorithms always do).
  std::vector<uint64_t> crash_unflushed;
};

}  // namespace fault
