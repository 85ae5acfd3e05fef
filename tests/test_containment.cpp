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
//  * Reclamation is recovery's per-slot pass: a reclaimer killed mid-pass
//    hands its verdict to the next one, a killed transaction's logged
//    allocations are cancelled online, the first transaction on a
//    never-recovered pool is cancelled by recovery, and a watchdog killed
//    mid-reclamation does not hang the survivors.
//
//  * Backoff cap: the pinned contract for ptm::kBackoffMaxNs
//    (ptm/backoff.h) — capped draws land in [cap - cap/8, cap] with real
//    jitter, and the default base/cap never bind, preserving the exact
//    pre-cap rng sequence (default-config byte-identity).
#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "fault/crashfuzz.h"
#include "ptm/backoff.h"
#include "ptm/containment.h"
#include "ptm/runtime.h"
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

void populate(fault::CrashHarness& h) {
  auto* root = h.pool.root<BankRoot>();
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
    for (int i = 0; i < kAccounts; i++) tx.write(&root->bal[i], kInitBal);
  });
}

// One concurrent round (CrashHarness::run_round, the crashfuzz runner):
// kWorkers fibers run `txs` transfers each — contended (randomized
// endpoints) or disjoint (worker w owns accounts 2w/2w+1) — with the
// watchdog fiber patrolling on the spare worker id.
void contended_round(fault::CrashHarness& h, int txs, uint64_t wl_seed, bool disjoint) {
  auto* root = h.pool.root<BankRoot>();
  h.run_round(kWorkers, kWatchdogNs, [&](sim::ExecContext& wctx) {
    util::Rng rng(wl_seed * 2654435761ull +
                  0x9e3779b9ull * static_cast<uint64_t>(wctx.worker_id() + 1));
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
  });
}

// One trial step over a populated pool with `faults` armed on the round.
// A kill trial gets the harness's online containment verdict (a sweep past
// every lease expiry, then the oracle) before the power failure and the
// post-recovery verdict.
fault::Trial round_trial(fault::CrashHarness& h, const fault::Faults& faults, uint64_t seed,
                         int txs, uint64_t wl_seed, bool disjoint) {
  populate(h);
  return h.trial(faults, seed, [&] { contended_round(h, txs, wl_seed, disjoint); });
}

// The persistence events of one fault-free round: the kill and stall
// searches below place their fault at a fraction of it.
uint64_t round_events(const nvm::SystemConfig& cfg, int txs, uint64_t wl_seed, bool disjoint) {
  fault::CrashHarness h(cfg, ptm::Algo::kOrecLazy);
  const fault::Trial t = round_trial(h, fault::Faults{}, 17, txs, wl_seed, disjoint);
  EXPECT_TRUE(t.ok()) << t.failure;
  return t.events;
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
// clean through the on-behalf surgery (a psan finding fails the trial's
// verdict). The kill event is searched from
// the middle of the round outward so the test keeps meaning even if
// event numbering shifts with protocol changes.
TEST(Containment, SurvivorsProgressAfterMidRunKill) {
  constexpr int kTxs = 12;
  const nvm::SystemConfig cfg = contain_cfg(/*psan=*/true);
  const uint64_t total = round_events(cfg, kTxs, 7, false);
  ASSERT_GT(total, 8u);

  bool reclaimed_somewhere = false;
  for (uint64_t frac = 2; frac <= 5 && !reclaimed_somewhere; frac++) {
    const uint64_t kill_at = total / frac;
    fault::CrashHarness h(cfg, ptm::Algo::kOrecLazy);
    const fault::Trial t =
        round_trial(h, {.thread_at = kill_at}, 17, kTxs, 7, /*disjoint=*/false);
    if (t.kills == 0) continue;  // the kill struck the watchdog
    EXPECT_TRUE(t.ok()) << "kill_at=" << kill_at << ": " << t.failure;

    const stats::ContainmentStats cs = h.rt.containment()->snapshot();
    EXPECT_GE(cs.deaths, 1u);
    if (cs.stuck_tx_reclaimed >= 1) {
      reclaimed_somewhere = true;
      EXPECT_EQ(cs.stuck_tx_reclaimed, cs.aborts_on_behalf + cs.commits_completed);
      EXPECT_EQ(cs.reclaim_latency_ns.count(), cs.stuck_tx_reclaimed);
    }
  }
  EXPECT_TRUE(reclaimed_somewhere)
      << "no searched kill event left a reclaimable transaction";
}

// ----- deterministic kill-at-every-event sweep ---------------------------

// Disjoint transfers (no conflict aborts perturb event numbering), the
// victim killed at every persistence event of the round in turn, each
// trial: watchdog reclaims (no waiter ever conflicts), online oracle,
// power failure, post-recovery verdict. Both algorithms, ADR.
TEST(Containment, KillAtEveryEventSweep) {
  constexpr int kTxs = 2;
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    uint64_t kills_seen = 0, reclaims_seen = 0;
    const uint64_t fired = fault::CrashHarness::sweep(
        contain_cfg(), algo, [&](fault::CrashHarness& h, uint64_t k) {
          const fault::Trial t = round_trial(h, {.thread_at = k}, k, kTxs, 3, true);
          EXPECT_TRUE(t.ok()) << ptm::algo_suffix(algo) << " kill at event " << k << ": "
                              << t.failure;
          if (t.kills > 0) kills_seen++;
          reclaims_seen += h.rt.containment()->snapshot().stuck_tx_reclaimed;
          return t;
        });
    ASSERT_GT(fired, 0u);
    // The sweep must actually have exercised the machinery: most events
    // land inside some worker's transaction, and at least one kill must
    // have left a mid-flight transaction for the watchdog.
    EXPECT_GT(kills_seen, fired / 2) << ptm::algo_suffix(algo);
    EXPECT_GE(reclaims_seen, 1u) << ptm::algo_suffix(algo);
  }
}

// ----- stalls ------------------------------------------------------------

// A stall far past the lease: the watchdog reclaims the sleeper while it
// is parked, and the wake-side fence probe kills it before it can issue
// another store (zombies_fenced). The heap must then verify online.
TEST(Containment, ZombieStallIsFencedAndReclaimed) {
  constexpr int kTxs = 12;
  const uint64_t total = round_events(contain_cfg(), kTxs, 11, false);
  ASSERT_GT(total, 8u);

  bool fenced_somewhere = false;
  for (uint64_t frac = 2; frac <= 5 && !fenced_somewhere; frac++) {
    fault::CrashHarness h(contain_cfg(), ptm::Algo::kOrecEager);
    const fault::Trial t = round_trial(
        h, {.thread_at = total / frac, .stall_ns = 4 * kTimeoutNs}, 17, kTxs, 11, false);
    if (t.kills == 0) continue;
    EXPECT_TRUE(t.ok()) << t.failure;

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
  const uint64_t total = round_events(contain_cfg(), kTxs, 13, false);
  fault::CrashHarness h(contain_cfg(), ptm::Algo::kOrecLazy);
  const fault::Trial t = round_trial(
      h, {.thread_at = total / 2, .stall_ns = kTimeoutNs / 2}, 17, kTxs, 13, false);
  ASSERT_TRUE(t.fired);
  EXPECT_EQ(t.kills, 0);
  EXPECT_TRUE(t.ok()) << t.failure;

  const stats::ContainmentStats cs = h.rt.containment()->snapshot();
  EXPECT_EQ(cs.deaths, 0u);
  EXPECT_EQ(cs.stuck_tx_reclaimed, 0u);
  EXPECT_EQ(cs.zombies_fenced, 0u);

  auto* root = h.pool.root<BankRoot>();
  uint64_t sum = 0;
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
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
  const uint64_t total = round_events(contain_cfg(), kTxs, 5, true);
  ASSERT_GT(total, 8u);

  bool reclaimed_in_round = false;
  for (uint64_t frac = 4; frac <= 8 && !reclaimed_in_round; frac++) {
    fault::CrashHarness h(contain_cfg(), ptm::Algo::kOrecLazy);
    populate(h);
    // Snapshot at the end of the round, before the harness's offline
    // sweep: the reclaim must have happened inside the engine round, i.e.
    // by the watchdog fiber.
    stats::ContainmentStats cs;
    const fault::Trial t = h.trial({.thread_at = total / frac}, 17, [&] {
      contended_round(h, kTxs, 5, /*disjoint=*/true);
      cs = h.rt.containment()->snapshot();
    });
    if (t.kills == 0) continue;
    EXPECT_TRUE(t.ok()) << t.failure;
    EXPECT_GE(cs.watchdog_passes, 1u);
    if (cs.stuck_tx_reclaimed >= 1) reclaimed_in_round = true;
  }
  EXPECT_TRUE(reclaimed_in_round)
      << "watchdog never reclaimed the unconflicted victim in-round";
}

// ----- epoch leader takeover ---------------------------------------------

// With epoch commit on, killing the drain leader mid-epoch must let a
// surviving member (or the watchdog, through help_close) steal the expired
// leadership lease and re-run the staged batch from batch A. Every kill
// event, both algorithms, psan on: each trial must pass both verdicts and
// every ordering check. A leader killed in batch C has already stored its
// own member's COMMITTED status; that store is batch C's to persist, so
// the re-run's batch A check must not claim it.
TEST(Containment, EpochLeaderTakeover) {
  constexpr int kTxs = 1;
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    uint64_t takeovers = 0;
    const uint64_t fired = fault::CrashHarness::sweep(
        contain_cfg(/*psan=*/true, /*epoch=*/true), algo,
        [&](fault::CrashHarness& h, uint64_t k) {
          const fault::Trial t = round_trial(h, {.thread_at = k}, k, kTxs, 9, true);
          EXPECT_TRUE(t.ok()) << ptm::algo_suffix(algo) << " kill at event " << k << ": "
                              << t.failure;
          takeovers += h.rt.containment()->snapshot().leader_takeovers;
          return t;
        });
    ASSERT_GT(fired, 8u);
    EXPECT_GE(takeovers, 1u) << ptm::algo_suffix(algo)
                             << ": no kill event ever landed on a drain leader mid-epoch";
  }
}

// ----- sequential kill trials ---------------------------------------------
//
// One worker per RealContext, run in program order, each a few lease
// lengths ahead of the previous one: worker w is killed at its k-th
// persistence event and a later worker finds it stale at once. The pool
// is the crash-test pool (four workers, 128 KiB meta) cut to 2 MiB, since
// the sweeps build one per trial; it is recovered at start-up unless a
// test says otherwise.

constexpr uint64_t kMs = 1000 * 1000;

nvm::SystemConfig trial_cfg(bool mirror) {
  nvm::SystemConfig cfg = test::crash_cfg(nvm::Domain::kAdr);
  cfg.pool_size = 2ull << 20;
  cfg.tx_timeout_ns = kTimeoutNs;
  cfg.log_mirror = mirror;
  return cfg;
}

// A reclaimer killed mid-pass is replaced by another, which must give
// the victim the fate the first one decided. Worker 0 commits x = 5;
// worker 1 writes x = 7 and is killed at its k1-th event; worker 2 reads x
// 1 ms later, reclaims worker 1 and is killed at its own k2-th event;
// worker 3 reads x 100 ms later and takes the reclamation over. Wherever
// the victim's value reached x, the victim counts as committed, so its
// orec must carry a fresh version: restoring the pre-lock word would let a
// reader that saw x = 5 still validate. Each trial starts with recover()
// on one pool per configuration (a fresh runtime per trial is slow under
// the thread sanitizer), so the kills go through fault::strike, the
// harness's arm-run-disarm step, rather than a sweep.
TEST(Containment, TakeoverReclaimKeepsTheVerdict) {
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    for (bool mirror : {false, true}) {
      nvm::Pool pool(trial_cfg(mirror));
      ptm::Runtime rt(pool, algo);
      auto* x = pool.root<uint64_t>();
      uint64_t takeovers = 0;
      for (uint64_t k1 = 1;; k1++) {
        bool victim_killed = true;
        for (uint64_t k2 = 1; victim_killed; k2++) {
          sim::RealContext w0(0, 4), w1(1, 4), w2(2, 4), w3(3, 4);
          rt.recover(w0);
          rt.run(w0, [&](ptm::Tx& tx) { tx.write(x, uint64_t{5}); });
          std::atomic<uint64_t>& orec = rt.orecs().for_addr(x);
          const uint64_t pre_lock = orec.load();

          victim_killed = fault::strike(pool.mem(), {.thread_at = k1}, 0, [&] {
                            rt.run(w1, [&](ptm::Tx& tx) { tx.write(x, uint64_t{7}); });
                          }).fired;
          if (!victim_killed) break;  // k1 is past the victim's events
          w2.advance(kMs);
          const bool reclaimer_killed = fault::strike(pool.mem(), {.thread_at = k2}, 0, [&] {
                                          rt.run(w2, [&](ptm::Tx& tx) { (void)tx.read(x); });
                                        }).fired;
          w3.advance(100 * kMs);
          uint64_t seen = 0;
          rt.run(w3, [&](ptm::Tx& tx) { seen = tx.read(x); });

          const std::string at = std::string(ptm::algo_suffix(algo)) +
                                 (mirror ? " mirror" : "") + " k1=" + std::to_string(k1) +
                                 " k2=" + std::to_string(k2);
          const uint64_t word = orec.load();
          ASSERT_FALSE(ptm::OrecTable::is_locked(word)) << at;
          ASSERT_TRUE(seen == 5 || seen == 7) << at << ": x = " << seen;
          if (seen == 7) {
            EXPECT_GT(ptm::OrecTable::version_of(word), ptm::OrecTable::version_of(pre_lock))
                << at << ": committed victim's orec went back to its pre-lock word";
          }
          if (!reclaimer_killed) break;  // k2 is past the reclamation
          takeovers++;
        }
        if (!victim_killed) break;
      }
      EXPECT_GE(takeovers, 1u) << ptm::algo_suffix(algo) << (mirror ? " mirror" : "");
    }
  }
}

struct SlotRoot {
  uint64_t slot;
};

/// {p = alloc(64); root->slot = p} on worker 1.
void publish_block(ptm::Runtime& rt, sim::ExecContext& ctx) {
  auto* root = rt.pool().root<SlotRoot>();
  rt.run(ctx, [&](ptm::Tx& tx) {
    tx.write(&root->slot, reinterpret_cast<uint64_t>(tx.alloc(64)));
  });
}

/// Pool offset of the block publish_block allocates on a fresh pool (the
/// allocator is deterministic): a trial killed inside alloc() never sees
/// the pointer.
uint64_t published_block_off(ptm::Algo algo) {
  nvm::Pool pool(trial_cfg(false));
  ptm::Runtime rt(pool, algo);
  sim::RealContext w1(1, 4);
  publish_block(rt, w1);
  return pool.root<SlotRoot>()->slot - reinterpret_cast<uint64_t>(pool.base());
}

/// The block at `off` is published in the root or on a free list, not
/// both and not neither.
void expect_block_accounted(ptm::Runtime& rt, uint64_t off, const std::string& at) {
  void* p = rt.pool().at(off);
  const bool published = rt.pool().root<SlotRoot>()->slot == reinterpret_cast<uint64_t>(p);
  const bool freed = rt.allocator().in_free_list(p);
  EXPECT_TRUE(published != freed) << at << ": published=" << published << " freed=" << freed;
}

// {p = alloc(64); root->slot = p} killed at each of its persistence
// events, then reclaimed by a sweep 1 ms later: once the allocation is in
// the alloc log, the block ends up published or back on a free list,
// never neither. (A kill before the word is logged leaks the block, the
// same bound as a power failure at that instant.)
TEST(Containment, ReclaimCancelsEveryLoggedAllocation) {
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    const uint64_t off = published_block_off(algo);
    uint64_t logged_kills = 0;
    const uint64_t fired = fault::CrashHarness::sweep(
        trial_cfg(false), algo, [&](fault::CrashHarness& h, uint64_t k) {
          sim::RealContext w1(1, 4), w2(2, 4);
          h.rt.recover(h.ctx);
          h.seal_initial_state();
          fault::Trial t = h.strike({.thread_at = k}, k, [&] { publish_block(h.rt, w1); });
          // The word is stored before the count that covers it.
          const bool logged =
              ptm::SlotLayout::carve(h.pool.worker_meta(1), h.pool.worker_meta_bytes())
                  .header->alloc_count >= 1;
          w2.advance(kMs);
          h.rt.containment()->sweep(w2, &h.rt.counters(2));
          const std::string at =
              std::string(ptm::algo_suffix(algo)) + " kill at event " + std::to_string(k);
          if (logged) {
            logged_kills++;
            expect_block_accounted(h.rt, off, at);
          }
          h.power_fail();
          h.recover(t);
          EXPECT_TRUE(t.ok()) << at << ": " << t.failure;
          return t;
        });
    EXPECT_GT(fired, 0u) << ptm::algo_suffix(algo);
    EXPECT_GE(logged_kills, 1u) << ptm::algo_suffix(algo);
  }
}

// The same transaction as a pool's very first, with no start-up recovery,
// crashed (power failure) at each persistence event: the fresh slot shows
// IDLE epoch 0 while the transaction tags its words with epoch 1 (tag 0 is
// reserved), so recovery must screen with the epoch the slot runs at.
TEST(Containment, FirstTransactionOnNeverRecoveredPoolIsCancelled) {
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    const uint64_t off = published_block_off(algo);
    uint64_t logged_crashes = 0;
    const uint64_t fired = fault::CrashHarness::sweep(
        trial_cfg(false), algo, [&](fault::CrashHarness& h, uint64_t k) {
          sim::RealContext w1(1, 4);
          h.seal_initial_state();
          fault::Trial t = h.strike({.power_at = k}, k, [&] { publish_block(h.rt, w1); });
          h.power_fail();
          // Logged: the durable count covers a durable word naming the block.
          const ptm::SlotLayout slot =
              ptm::SlotLayout::carve(h.pool.worker_meta(1), h.pool.worker_meta_bytes());
          const uint64_t word = slot.alloc_log[0];
          const bool logged = slot.header->alloc_count >= 1 &&
                              ptm::AllocLogOp::op_of(word) == ptm::AllocLogOp::kAlloc &&
                              ptm::AllocLogOp::off_of(word) == off;
          h.recover(t);
          const std::string at =
              std::string(ptm::algo_suffix(algo)) + " crash at event " + std::to_string(k);
          EXPECT_TRUE(t.ok()) << at << ": " << t.failure;
          if (logged) {
            logged_crashes++;
            expect_block_accounted(h.rt, off, at);
          }
          return t;
        });
    EXPECT_GT(fired, 0u) << ptm::algo_suffix(algo);
    EXPECT_GE(logged_crashes, 1u) << ptm::algo_suffix(algo);
  }
}

// A second kill that strikes the watchdog fiber mid-reclamation: the
// watchdog's death must be recorded like a worker's, so the reclaim guard
// it held can be stolen and the survivors finish rather than abort
// against the victim's locks forever.
TEST(Containment, WatchdogKilledMidReclaimDoesNotHang) {
  fault::ScheduleSpec spec;
  spec.algo = ptm::Algo::kOrecEager;
  spec.domain = nvm::Domain::kAdr;
  spec.workload = 0;  // bank
  spec.wl_seed = 11;
  spec.crash_seed = 5;
  spec.kill = true;
  spec.kill_events = 900;
  spec.kill2_events = 1300;
  std::string why;
  EXPECT_TRUE(fault::run_schedule(spec, &why)) << why;
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
