// Crash-trial harness: the one path every crash-consistency test and the
// crashfuzz explorer run a fault through. Owns the pool, the runtime, a
// durable-linearizability oracle wired in as the runtime's TxObserver, and
// a context (worker 0) for setup, recovery and checks.
//
// The trial step arms a fault at a persistence event, runs a body, then
// power-fails, recovers and judges:
//
//   fault::CrashHarness h(cfg, algo);
//   h.rt.run(h.ctx, setup);                          // populate
//   const fault::Trial t = h.trial(fault::Faults{.power_at = k}, seed,
//                                  [&] { ...transactions... });
//   EXPECT_TRUE(t.ok()) << t.failure;                // the one verdict
//
// trial() is seal_initial_state(), strike(), power_fail() and recover() in
// turn. A test that must look between them (the crash image before
// recovery, the heap before the power failure, a recovery crashed in its
// turn) calls the parts. sweep() runs one trial step per event on a fresh
// harness until the fault no longer fires, so no caller counts a body's
// events in a dry run.
//
// One seed per trial: it resolves the crash image when the armed power
// failure fires, and seed + 1 resolves it when the body completes.
//
// The verdict reads the heap, so a test's own checks that run transactions
// (h.rt.run) come after it, as every check after trial() or recover() does.
#pragma once

#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
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

/// The faults one trial arms. Each counts the pool's persistence events
/// from the start of the body; an `_at` of 0 arms nothing.
struct Faults {
  uint64_t power_at = 0;    // power failure: the pool freezes at this event
  uint64_t thread_at = 0;   // thread fault: the worker issuing this event dies,
  uint64_t stall_ns = 0;    // or, when > 0, goes dark this long and resumes
  uint64_t thread2_at = 0;  // a second thread fault, always a kill (it can
                            // strike a reclaimer mid-reclamation)
};

/// What the verdict lets through.
struct Expect {
  bool oracle = true;  // false for workloads that dealloc: the allocator
                       // threads free-list links through freed words outside
                       // the Tx write path, which the byte-exact oracle flags
  bool media = false;  // a media fault was injected: the report may show it
};

/// One trial step's outcome.
struct Trial {
  bool fired = false;   // an armed fault struck inside the body
  uint64_t events = 0;  // persistence events the body issued
  int kills = 0;        // worker fibers the thread faults killed
  std::string failure;  // the verdict: empty when recovery was clean
  bool ok() const { return failure.empty(); }
};

/// Arm `f` on `mem` (`seed` resolves a power failure's crash image), run
/// `body`, and disarm the thread faults. A fault fires when the body
/// reaches its event; a power failure, or a kill on the body's own fiber,
/// unwinds the body to here. A power failure armed past the end of the
/// body stays armed until the pool's next power failure.
template <typename Body>
Trial strike(nvm::Memory& mem, const Faults& f, uint64_t seed, Body&& body) {
  if (f.power_at != 0) mem.arm_crash_after(f.power_at, seed);
  if (f.thread_at != 0) mem.arm_thread_fault(f.thread_at, f.stall_ns);
  if (f.thread2_at != 0) mem.arm_thread_fault(f.thread2_at);
  const uint64_t before = mem.persistence_events();
  Trial t;
  try {
    std::forward<Body>(body)();
  } catch (const nvm::CrashPoint&) {
  } catch (const nvm::FiberKill&) {
    t.kills = 1;
  }
  mem.clear_thread_faults();
  t.events = mem.persistence_events() - before;
  t.fired = mem.crashed() || (f.thread_at != 0 && t.events >= f.thread_at);
  return t;
}

class CrashHarness {
 public:
  CrashHarness(const nvm::SystemConfig& cfg, ptm::Algo algo)
      : pool(cfg), rt(pool, algo), oracle(pool), ctx(0, cfg.max_workers) {}

  ~CrashHarness() { rt.set_observer(nullptr); }

  /// Run `one(h, k)` on a fresh harness `h` for k = 1, 2, ...: `one` sets
  /// `h` up, runs a trial step with its fault at event k and returns that
  /// trial. Stops after the first trial whose fault did not fire (its body
  /// completed and was judged like the rest) and returns how many fired.
  template <typename One>
  static uint64_t sweep(const nvm::SystemConfig& cfg, ptm::Algo algo, One&& one) {
    for (uint64_t k = 1;; k++) {
      CrashHarness h(cfg, algo);
      if (!one(h, k).fired) return k - 1;
    }
  }

  /// The trial step: seal the current pool as the baseline, strike, then
  /// power-fail, recover and judge.
  template <typename Body>
  Trial trial(const Faults& f, uint64_t seed, Body&& body, const Expect& e = {}) {
    seal_initial_state();
    Trial t = strike(f, seed, std::forward<Body>(body));
    power_fail();
    recover(t, e);
    return t;
  }

  /// Mark the current (populated) pool contents as the durable baseline
  /// and restart the oracle's history from them.
  void seal_initial_state() {
    pool.mem().checkpoint_all_persistent();
    oracle.start();
  }

  /// fault::strike with the oracle recording. A body that ran a round with
  /// containment on and armed no power failure then gets the online
  /// containment pass: a sweep from a fresh context past every lease
  /// expiry reclaims what the kills left, and the oracle holds the live
  /// heap to the contract before any power failure.
  template <typename Body>
  Trial strike(const Faults& f, uint64_t seed, Body&& body) {
    seed_ = seed;
    round_ = Round{};
    rt.set_observer(&oracle);
    Trial t = fault::strike(pool.mem(), f, seed, std::forward<Body>(body));
    t.kills += round_.kills;
    ptm::ContainmentManager* cm = rt.containment();
    if (cm != nullptr && round_.workers > 0 && f.power_at == 0) {
      // The round's watchdog id may have died, fenced or holding a reclaim
      // guard; recovery lifts every other quarantine.
      cm->revive(round_.workers);
      sim::RealContext vctx(round_.workers, pool.config().max_workers);
      vctx.advance(round_.end_ns + 2 * cm->timeout_ns() + 1);
      cm->sweep(vctx, nullptr);
      const Oracle::Result res = oracle.verify();
      if (!res.ok) t.failure = "online containment oracle: " + res.detail;
    }
    return t;
  }

  /// Power-fail the pool: the image the armed crash resolved when it
  /// fired, else one resolved now from the trial's seed + 1. Detaches the
  /// oracle, so recovery and later transactions are not recorded.
  void power_fail() {
    rt.set_observer(nullptr);
    util::Rng r(seed_ + 1);
    pool.simulate_power_failure(r);
    psan_note_.clear();
    if (analysis::Psan* ps = pool.mem().psan()) {
      // Captured before recovery's own stores disturb psan state: the
      // lines the crashed run stored but never flushed. Most are ordinary
      // mid-transaction debris the log covers; an oracle failure with any
      // points at a missing-flush algorithm bug, and one with none at a
      // schedule that tore state the algorithm did order.
      const std::vector<uint64_t> unflushed = ps->crash_unflushed_lines();
      char note[128];
      if (unflushed.empty()) {
        std::snprintf(note, sizeof(note),
                      " (psan: 0 never-flushed line(s) at crash — torn by schedule)");
      } else {
        std::snprintf(note, sizeof(note),
                      " (psan: %zu never-flushed line(s) at crash) first=line %" PRIu64,
                      unflushed.size(), unflushed.front());
      }
      psan_note_ = note;
    }
  }

  /// Recover into `report`, then judge: the first failed check becomes
  /// t.failure unless the online pass already failed the trial.
  void recover(Trial& t, const Expect& e = {}) {
    report = rt.recover(ctx);
    if (t.ok()) t.failure = verdict(e);
  }

  /// Run `body` on `workers` concurrent DES fibers (worker ids 0 ..
  /// workers-1). A fiber that a thread fault kills (nvm::FiberKill) just
  /// stops, leaving its debris to containment. With a containment manager,
  /// a watchdog fiber on id `workers` sweeps every `patrol_ns` until every
  /// worker fiber has exited. A fault that kills the watchdog itself (say
  /// mid-reclamation) is recorded as Runtime::run records a worker's
  /// death, so the reclaim guard it held can be stolen, and ends the
  /// fiber. A power failure (nvm::CrashPoint) propagates once every fiber
  /// has finished. The round's size, end time and kills are kept for
  /// strike().
  void run_round(int workers, uint64_t patrol_ns,
                 const std::function<void(sim::ExecContext&)>& body) {
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
    round_ = Round{workers, engine.elapsed_ns(), kills};
  }

  nvm::Pool pool;
  ptm::Runtime rt;
  Oracle oracle;
  sim::RealContext ctx;
  stats::RecoveryReport report;

 private:
  struct Round {
    int workers = 0;
    uint64_t end_ns = 0;
    int kills = 0;
  };

  /// The one post-recovery verdict: the oracle, a clean report, and no
  /// lost record — without media damage every record keeps its primary
  /// copy, and a mirrored pool keeps a second copy of whatever one media
  /// fault destroys. Empty when all hold.
  std::string verdict(const Expect& e) const {
    if (e.oracle) {
      const Oracle::Result res = oracle.verify();
      if (!res.ok) return "oracle: " + res.detail + psan_note_;
    }
    if (!e.media && report.log_crc_mismatches != 0) {
      return "whole-log CRC mismatch on an undamaged log";
    }
    if (!e.media && (report.records_media_faulted != 0 || report.media_faults != 0)) {
      return "phantom media fault reported";
    }
    if (report.records_invalid != 0) return "CRC-valid record with out-of-bounds offset";
    if (report.records_lost != 0) {
      return "recovery reported lost records on a survivable schedule";
    }
    return "";
  }

  uint64_t seed_ = 0;
  Round round_;
  std::string psan_note_;  // psan's never-flushed lines at the last power failure
};

}  // namespace fault
