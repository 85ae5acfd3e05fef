// Thread-crash containment tests (ptm::ContainmentManager).
//
// Layers:
//
//  * Purity: tx_timeout_ns == 0 (the default) constructs no manager and
//    leaves REPRO_JSON artifacts without a "containment" key.
//
//  * Progress: a worker fiber killed mid-run leaves locked orecs and a
//    mid-flight slot; survivors (and the watchdog fiber) must keep
//    committing, the victim must be reclaimed all-or-nothing, and psan
//    must stay clean through the on-behalf surgery.
//
//  * A deterministic kill sweep: one contended round, the victim killed
//    at *every* persistence event in turn, each trial held to the online
//    durable-linearizability oracle after a containment sweep and then to
//    the post-power-failure oracle.
//
//  * Stalls: a stall shorter than the lease must be invisible to
//    containment; a stall far past it must get the sleeper reclaimed and
//    fenced (killed at wake, before it can issue another store).
//
//  * Epoch leader takeover: killing a drain leader mid-epoch must let a
//    survivor steal the expired leadership lease and finish the drain.
//
//  * Backoff cap: the pinned contract for ptm::kBackoffMaxNs
//    (ptm/backoff.h) — capped draws land in [cap - cap/8, cap] with real
//    jitter, and the default base/cap never bind, preserving the exact
//    pre-cap rng sequence (default-config byte-identity).
#include <gtest/gtest.h>

#include <atomic>

#include "ptm/backoff.h"
#include "ptm/containment.h"
#include "ptm/runtime.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

constexpr int kAccounts = 24;
constexpr uint64_t kInitBal = 100;
constexpr int kWorkers = 3;  // concurrent DES workers (+1 watchdog fiber)
constexpr uint64_t kTimeoutNs = 20000;
constexpr uint64_t kWatchdogNs = 5000;

struct BankRoot {
  uint64_t bal[kAccounts];
};

nvm::SystemConfig contain_cfg(bool psan = false, bool epoch = false) {
  nvm::SystemConfig cfg = test::crash_cfg(nvm::Domain::kAdr);
  cfg.torn_stores = true;
  cfg.tx_timeout_ns = kTimeoutNs;
  cfg.psan = psan;
  if (epoch) {
    cfg.epoch_commit = true;
    cfg.epoch_max_txs = kWorkers;
    cfg.epoch_max_ns = 20000;
  }
  return cfg;
}

void populate(fault::CrashHarness& h, sim::ExecContext& ctx) {
  auto* root = h.pool.root<BankRoot>();
  h.rt.run(ctx, [&](ptm::Tx& tx) {
    for (int i = 0; i < kAccounts; i++) tx.write(&root->bal[i], kInitBal);
  });
}

// One concurrent round: kWorkers fibers run `txs` transfers each —
// contended (randomized endpoints) or disjoint (worker w owns accounts
// 2w/2w+1) — with a watchdog fiber patrolling on the spare worker id.
// Mirrors the crashfuzz concurrent runner: per-worker FiberKills are
// contained at the fiber boundary, and the watchdog exits once every
// worker fiber is done. Returns the engine's final simulated time.
uint64_t contended_round(fault::CrashHarness& h, int txs, uint64_t wl_seed,
                         bool disjoint, int* kills_out = nullptr) {
  auto* root = h.pool.root<BankRoot>();
  sim::Engine engine(kWorkers + 1);
  std::atomic<int> active{kWorkers};
  int kills = 0;
  engine.run([&](sim::ExecContext& wctx) {
    if (wctx.worker_id() == kWorkers) {
      while (active.load(std::memory_order_acquire) > 0) {
        h.rt.containment()->sweep(wctx, &h.rt.counters(wctx.worker_id()));
        if (active.load(std::memory_order_acquire) <= 0) break;
        wctx.advance(kWatchdogNs);
      }
      return;
    }
    struct ActiveGuard {
      std::atomic<int>& a;
      ~ActiveGuard() { a.fetch_sub(1, std::memory_order_acq_rel); }
    } guard{active};
    util::Rng rng(wl_seed * 2654435761ull +
                  0x9e3779b9ull * static_cast<uint64_t>(wctx.worker_id() + 1));
    try {
      for (int t = 0; t < txs; t++) {
        uint64_t a, b;
        if (disjoint) {
          a = static_cast<uint64_t>(2 * wctx.worker_id());
          b = a + 1;
        } else {
          a = rng.next_bounded(kAccounts);
          b = (a + 1 + rng.next_bounded(kAccounts - 1)) % kAccounts;
        }
        h.rt.run(wctx, [&](ptm::Tx& tx) {
          const uint64_t fa = tx.read(&root->bal[a]);
          const uint64_t fb = tx.read(&root->bal[b]);
          const uint64_t amt = fa > 5 ? 5 : fa;
          tx.write(&root->bal[a], fa - amt);
          tx.write(&root->bal[b], fb + amt);
        });
      }
    } catch (const nvm::FiberKill&) {
      kills++;  // the victim just stops; survivors keep running
    }
  });
  if (kills_out != nullptr) *kills_out = kills;
  return engine.elapsed_ns();
}

// Count the persistence events one clean round consumes, so kill sweeps
// and kill-event searches stay inside the run.
uint64_t dry_run_events(bool psan, bool epoch, int txs, uint64_t wl_seed,
                        bool disjoint, ptm::Algo algo = ptm::Algo::kOrecLazy) {
  fault::CrashHarness h(contain_cfg(psan, epoch), algo);
  sim::RealContext ctx(0, h.pool.config().max_workers);
  populate(h, ctx);
  h.seal_initial_state();
  const uint64_t before = h.pool.mem().persistence_events();
  contended_round(h, txs, wl_seed, disjoint);
  return h.pool.mem().persistence_events() - before;
}

// Online containment verdict after a kill round: sweep from a fresh
// context advanced past every possible lease expiry, then hold the heap
// to the durable-linearizability contract (crashfuzz's online oracle).
void sweep_and_verify_online(fault::CrashHarness& h, uint64_t sim_end) {
  ptm::ContainmentManager* cm = h.rt.containment();
  ASSERT_NE(cm, nullptr);
  sim::RealContext vctx(kWorkers, h.pool.config().max_workers);
  vctx.advance(sim_end + 2 * kTimeoutNs + 1);
  cm->sweep(vctx, nullptr);
  const auto res = h.verify();
  EXPECT_TRUE(res.ok) << "online containment oracle: " << res.detail;
}

// ----- purity ------------------------------------------------------------

TEST(Containment, DisabledByDefaultIsNullManager) {
  test::Fixture off(test::small_cfg());
  EXPECT_EQ(off.rt.containment(), nullptr);

  nvm::SystemConfig cfg = test::small_cfg();
  cfg.tx_timeout_ns = kTimeoutNs;
  test::Fixture on(cfg);
  ASSERT_NE(on.rt.containment(), nullptr);
  EXPECT_EQ(on.rt.containment()->timeout_ns(), kTimeoutNs);
  EXPECT_TRUE(on.rt.containment()->snapshot().enabled);
}

// ----- progress after a mid-run kill -------------------------------------

// A fiber killed at a persistence event inside a contended round leaves
// locked orecs behind. Survivors must finish their full transaction
// budget (reclaiming the victim on conflict or via the watchdog), the
// victim must be resolved all-or-nothing online, and psan must stay
// clean through the on-behalf surgery. The kill event is searched from
// the middle of the round outward so the test keeps meaning even if
// event numbering shifts with protocol changes.
TEST(Containment, SurvivorsProgressAfterMidRunKill) {
  constexpr int kTxs = 12;
  const uint64_t total = dry_run_events(true, false, kTxs, 7, false);
  ASSERT_GT(total, 8u);

  bool reclaimed_somewhere = false;
  for (uint64_t frac = 2; frac <= 5 && !reclaimed_somewhere; frac++) {
    const uint64_t kill_at = total / frac;
    fault::CrashHarness h(contain_cfg(/*psan=*/true), ptm::Algo::kOrecLazy);
    sim::RealContext ctx(0, h.pool.config().max_workers);
    populate(h, ctx);
    h.seal_initial_state();
    h.pool.mem().arm_thread_fault(kill_at);
    int kills = 0;
    uint64_t sim_end = 0;
    const bool crashed = h.run_until_crash(~0ull, 17, [&] {
      sim_end = contended_round(h, kTxs, 7, /*disjoint=*/false, &kills);
    });
    ASSERT_FALSE(crashed);
    h.pool.mem().clear_thread_faults();
    if (kills == 0) continue;  // armed past the round's events

    sweep_and_verify_online(h, sim_end);
    const stats::ContainmentStats cs = h.rt.containment()->snapshot();
    EXPECT_GE(cs.deaths, 1u);
    if (cs.stuck_tx_reclaimed >= 1) {
      reclaimed_somewhere = true;
      EXPECT_EQ(cs.stuck_tx_reclaimed, cs.aborts_on_behalf + cs.commits_completed);
      EXPECT_EQ(cs.reclaim_latency_ns.count(), cs.stuck_tx_reclaimed);
    }

    // psan saw every store the reclaimer issued on the victim's behalf;
    // the surgery must be as clean as a first-party commit/abort.
    analysis::Psan* ps = h.pool.mem().psan();
    ASSERT_NE(ps, nullptr);
    const auto summ = ps->summary();
    EXPECT_EQ(summ.correctness(), 0u)
        << "kill_at=" << kill_at << ": missing_flush=" << summ.missing_flush
        << " misordered_persist=" << summ.misordered_persist;

    // The online verdict must also survive an actual power failure.
    h.rt.containment()->revive_all();
    h.power_fail_and_recover(ctx, 17);
    test::expect_clean_recovery(h.report);
    const auto res = h.verify();
    EXPECT_TRUE(res.ok) << "post-recovery oracle: " << res.detail;
  }
  EXPECT_TRUE(reclaimed_somewhere)
      << "no searched kill event left a reclaimable transaction";
}

// ----- deterministic kill-at-every-event sweep ---------------------------

// Disjoint transfers (no conflict aborts perturb event numbering), the
// victim killed at every persistence event of the round in turn, each
// trial: watchdog reclaims (no waiter ever conflicts), online oracle,
// power failure, post-recovery oracle. Both algorithms, ADR.
TEST(Containment, KillAtEveryEventSweep) {
  constexpr int kTxs = 2;
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    uint64_t total = 0;
    {
      fault::CrashHarness h(contain_cfg(), algo);
      sim::RealContext ctx(0, h.pool.config().max_workers);
      populate(h, ctx);
      h.seal_initial_state();
      const uint64_t before = h.pool.mem().persistence_events();
      contended_round(h, kTxs, 3, /*disjoint=*/true);
      total = h.pool.mem().persistence_events() - before;
    }
    ASSERT_GT(total, 0u);

    uint64_t kills_seen = 0, reclaims_seen = 0;
    for (uint64_t ev = 1; ev <= total; ev++) {
      fault::CrashHarness h(contain_cfg(), algo);
      sim::RealContext ctx(0, h.pool.config().max_workers);
      populate(h, ctx);
      h.seal_initial_state();
      h.pool.mem().arm_thread_fault(ev);
      int kills = 0;
      uint64_t sim_end = 0;
      const bool crashed = h.run_until_crash(~0ull, ev, [&] {
        sim_end = contended_round(h, kTxs, 3, /*disjoint=*/true, &kills);
      });
      ASSERT_FALSE(crashed);
      h.pool.mem().clear_thread_faults();
      if (kills > 0) {
        kills_seen++;
        sweep_and_verify_online(h, sim_end);
        reclaims_seen += h.rt.containment()->snapshot().stuck_tx_reclaimed;
        h.rt.containment()->revive_all();
      }
      h.power_fail_and_recover(ctx, ev);
      test::expect_clean_recovery(h.report);
      const auto res = h.verify();
      EXPECT_TRUE(res.ok) << ptm::algo_suffix(algo) << " kill at event " << ev
                          << "/" << total << ": " << res.detail;
    }
    // The sweep must actually have exercised the machinery: most events
    // land inside some worker's transaction, and at least one kill must
    // have left a mid-flight transaction for the watchdog.
    EXPECT_GT(kills_seen, total / 2) << ptm::algo_suffix(algo);
    EXPECT_GE(reclaims_seen, 1u) << ptm::algo_suffix(algo);
  }
}

// ----- stalls ------------------------------------------------------------

// A stall far past the lease: the watchdog reclaims the sleeper while it
// is parked, and the wake-side fence probe kills it before it can issue
// another store (zombies_fenced). The heap must then verify online.
TEST(Containment, ZombieStallIsFencedAndReclaimed) {
  constexpr int kTxs = 12;
  const uint64_t total = dry_run_events(false, false, kTxs, 11, false);
  ASSERT_GT(total, 8u);

  bool fenced_somewhere = false;
  for (uint64_t frac = 2; frac <= 5 && !fenced_somewhere; frac++) {
    fault::CrashHarness h(contain_cfg(), ptm::Algo::kOrecEager);
    sim::RealContext ctx(0, h.pool.config().max_workers);
    populate(h, ctx);
    h.seal_initial_state();
    h.pool.mem().arm_thread_fault(total / frac, 4 * kTimeoutNs);
    int kills = 0;
    uint64_t sim_end = 0;
    const bool crashed = h.run_until_crash(~0ull, 17, [&] {
      sim_end = contended_round(h, kTxs, 11, /*disjoint=*/false, &kills);
    });
    ASSERT_FALSE(crashed);
    h.pool.mem().clear_thread_faults();
    if (kills == 0) continue;

    sweep_and_verify_online(h, sim_end);
    const stats::ContainmentStats cs = h.rt.containment()->snapshot();
    if (cs.zombies_fenced >= 1) {
      fenced_somewhere = true;
      // Fencing only happens as part of a reclaim or takeover.
      EXPECT_GE(cs.stuck_tx_reclaimed + cs.leader_takeovers, 1u);
    }
  }
  EXPECT_TRUE(fenced_somewhere)
      << "no searched stall event produced a fenced zombie";
}

// A stall well inside the lease is invisible: nobody is reclaimed, nobody
// is fenced, every transaction commits, and the money is conserved.
TEST(Containment, ShortStallIsHarmless) {
  constexpr int kTxs = 12;
  const uint64_t total = dry_run_events(false, false, kTxs, 13, false);
  fault::CrashHarness h(contain_cfg(), ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, h.pool.config().max_workers);
  populate(h, ctx);
  h.seal_initial_state();
  h.pool.mem().arm_thread_fault(total / 2, kTimeoutNs / 2);
  int kills = 0;
  const bool crashed = h.run_until_crash(
      ~0ull, 17, [&] { contended_round(h, kTxs, 13, /*disjoint=*/false, &kills); });
  ASSERT_FALSE(crashed);
  h.pool.mem().clear_thread_faults();
  EXPECT_EQ(kills, 0);

  const stats::ContainmentStats cs = h.rt.containment()->snapshot();
  EXPECT_EQ(cs.deaths, 0u);
  EXPECT_EQ(cs.stuck_tx_reclaimed, 0u);
  EXPECT_EQ(cs.zombies_fenced, 0u);
  const auto res = h.verify();
  EXPECT_TRUE(res.ok) << res.detail;

  auto* root = h.pool.root<BankRoot>();
  uint64_t sum = 0;
  h.rt.run(ctx, [&](ptm::Tx& tx) {
    sum = 0;
    for (int i = 0; i < kAccounts; i++) sum += tx.read(&root->bal[i]);
  });
  EXPECT_EQ(sum, static_cast<uint64_t>(kAccounts) * kInitBal);
}

// ----- watchdog-only reclamation -----------------------------------------

// Disjoint write sets: no survivor ever trips over the victim's locks, so
// the conflict-site hook can never fire — reclamation must come from the
// watchdog fiber patrolling inside the round.
TEST(Containment, WatchdogReclaimsUnconflictedVictim) {
  // Enough transactions that the survivors keep the round alive well past
  // the victim's lease expiry — the watchdog can only reclaim in-round
  // while some worker fiber is still running.
  constexpr int kTxs = 48;
  const uint64_t total = dry_run_events(false, false, kTxs, 5, true);
  ASSERT_GT(total, 8u);

  bool reclaimed_in_round = false;
  for (uint64_t frac = 4; frac <= 8 && !reclaimed_in_round; frac++) {
    fault::CrashHarness h(contain_cfg(), ptm::Algo::kOrecLazy);
    sim::RealContext ctx(0, h.pool.config().max_workers);
    populate(h, ctx);
    h.seal_initial_state();
    h.pool.mem().arm_thread_fault(total / frac);
    int kills = 0;
    const bool crashed = h.run_until_crash(
        ~0ull, 17, [&] { contended_round(h, kTxs, 5, /*disjoint=*/true, &kills); });
    ASSERT_FALSE(crashed);
    h.pool.mem().clear_thread_faults();
    if (kills == 0) continue;

    // Snapshot BEFORE any offline sweep: the reclaim must have happened
    // inside the engine round, i.e. by the watchdog fiber.
    const stats::ContainmentStats cs = h.rt.containment()->snapshot();
    EXPECT_GE(cs.watchdog_passes, 1u);
    if (cs.stuck_tx_reclaimed >= 1) {
      reclaimed_in_round = true;
      const auto res = h.verify();
      EXPECT_TRUE(res.ok) << "online containment oracle: " << res.detail;
    }
  }
  EXPECT_TRUE(reclaimed_in_round)
      << "watchdog never reclaimed the unconflicted victim in-round";
}

// ----- epoch leader takeover ---------------------------------------------

// With epoch commit on, killing the drain leader mid-epoch must let a
// surviving member (or the watchdog, through help_close) steal the expired
// leadership lease and re-run the staged batch from batch A. Every kill
// event, both algorithms, psan on: each trial must pass both oracles and
// every ordering check. A leader killed in batch C has already stored its
// own member's COMMITTED status; that store is batch C's to persist, so
// the re-run's batch A check must not claim it.
TEST(Containment, EpochLeaderTakeover) {
  constexpr int kTxs = 1;
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    const uint64_t total = dry_run_events(true, true, kTxs, 9, true, algo);
    ASSERT_GT(total, 8u);

    uint64_t takeovers = 0;
    for (uint64_t ev = 1; ev <= total; ev++) {
      fault::CrashHarness h(contain_cfg(/*psan=*/true, /*epoch=*/true), algo);
      ASSERT_NE(h.rt.epochs(), nullptr);
      sim::RealContext ctx(0, h.pool.config().max_workers);
      populate(h, ctx);
      h.seal_initial_state();
      h.pool.mem().arm_thread_fault(ev);
      int kills = 0;
      uint64_t sim_end = 0;
      const bool crashed = h.run_until_crash(~0ull, ev, [&] {
        sim_end = contended_round(h, kTxs, 9, /*disjoint=*/true, &kills);
      });
      ASSERT_FALSE(crashed);
      h.pool.mem().clear_thread_faults();
      if (kills == 0) continue;

      sweep_and_verify_online(h, sim_end);
      takeovers += h.rt.containment()->snapshot().leader_takeovers;
      const auto summ = h.pool.mem().psan()->summary();
      EXPECT_EQ(summ.correctness(), 0u)
          << ptm::algo_suffix(algo) << " kill at event " << ev << "/" << total
          << ": missing_flush=" << summ.missing_flush
          << " misordered_persist=" << summ.misordered_persist;
      h.rt.containment()->revive_all();
      h.power_fail_and_recover(ctx, ev);
      test::expect_clean_recovery(h.report);
      const auto res = h.verify();
      EXPECT_TRUE(res.ok) << ptm::algo_suffix(algo) << " kill at event " << ev << ": "
                          << res.detail;
    }
    EXPECT_GE(takeovers, 1u) << ptm::algo_suffix(algo)
                             << ": no kill event ever landed on a drain leader mid-epoch";
  }
}

// ----- backoff cap (ptm::kBackoffMaxNs) -----------------------------------

TEST(Backoff, DefaultCapNeverBindsSameRngSequence) {
  // The default base/cap must reproduce the pre-cap policy draw-for-draw:
  // one bounded draw per abort, no jitter draw, identical waits.
  const nvm::SystemConfig cfg;  // defaults
  const auto base = static_cast<uint64_t>(cfg.cost.backoff_base_ns);
  const uint64_t cap = ptm::kBackoffMaxNs;
  ASSERT_LE(base << 10, cap) << "default cap would bind; byte-identity broken";

  util::Rng capped(42), replica(42);
  for (uint64_t attempt = 1; attempt <= 32; attempt++) {
    const uint64_t got = ptm::backoff_wait_ns(attempt, base, cap, capped);
    const uint64_t shift = attempt < 10 ? attempt : 10;
    const uint64_t want =
        std::max<uint64_t>(base, replica.next_bounded((base << shift) + 1));
    EXPECT_EQ(got, want) << "attempt " << attempt;
  }
  // Same number of draws consumed on both sides.
  EXPECT_EQ(capped.next(), replica.next());
}

TEST(Backoff, CapBindsWithJitterInWindow) {
  constexpr uint64_t kBase = 100;
  constexpr uint64_t kCap = 1000;
  util::Rng rng(7);
  uint64_t distinct_mask = 0;
  uint64_t capped_draws = 0;
  for (int i = 0; i < 400; i++) {
    const uint64_t w = ptm::backoff_wait_ns(/*attempt=*/10, kBase, kCap, rng);
    EXPECT_GE(w, kBase);
    EXPECT_LE(w, kCap);
    if (w > kCap - kCap / 8 - 1) {
      // Inside the jitter window [cap - cap/8, cap].
      capped_draws++;
      distinct_mask |= uint64_t{1} << (w % 64);
    }
  }
  // At attempt 10 the uncapped draw spans [0, 100<<10]; the overwhelming
  // majority of draws exceed cap=1000, so the window must be hit...
  EXPECT_GE(capped_draws, 300u);
  // ...with real jitter: many distinct values, not one collapsed point.
  int bits = 0;
  for (int i = 0; i < 64; i++) bits += (distinct_mask >> i) & 1;
  EXPECT_GE(bits, 8) << "capped retriers collapsed onto too few instants";
}

TEST(Backoff, NeverBelowBaseEvenWithTinyCap) {
  // cap < base: the clamp floor wins — a capped wait may never drop below
  // one base quantum (livelock rule) no matter how small the cap.
  util::Rng rng(3);
  for (int i = 0; i < 100; i++) {
    EXPECT_GE(ptm::backoff_wait_ns(8, /*base=*/500, /*cap=*/400, rng), 500u);
  }
}

}  // namespace
