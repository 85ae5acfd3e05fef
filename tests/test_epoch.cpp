// Group/epoch-commit tests (ptm::EpochManager).
//
// Two layers:
//
//  * Mechanism tests: size- and age-triggered epoch closes, the batching
//    stats, and the headline fence-coalescing claim (strictly fewer
//    fences per committed transaction than per-transaction commit on the
//    same workload).
//
//  * A deterministic crash sweep: one epoch with three member
//    transactions (one per DES worker, epoch_max_txs == 3, so all three
//    publish into the same batch), crashed at *every* persistence event
//    of the run, across both algorithms x all four durability domains x
//    mirror on/off, with torn stores enabled. After power failure +
//    recovery the durable-linearizability oracle proves the epoch
//    contract: every acked (observed-committed) transaction is fully
//    present, and every unacked member is all-or-nothing — present only
//    if its commit record reached the domain before the failure.
#include <gtest/gtest.h>

#include "ptm/runtime.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

constexpr int kAccounts = 24;
constexpr uint64_t kInitBal = 100;
constexpr int kMembers = 3;  // concurrent workers == epoch_max_txs

struct BankRoot {
  uint64_t bal[kAccounts];
};

nvm::SystemConfig epoch_cfg(nvm::Domain domain, bool mirror) {
  nvm::SystemConfig cfg = test::crash_cfg(domain);
  cfg.torn_stores = true;
  cfg.log_mirror = mirror;
  cfg.epoch_commit = true;
  cfg.epoch_max_txs = kMembers;
  cfg.epoch_max_ns = 20000;  // age-close stragglers and tail epochs
  return cfg;
}

void populate(fault::CrashHarness& h) {
  auto* root = h.pool.root<BankRoot>();
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
    for (int i = 0; i < kAccounts; i++) tx.write(&root->bal[i], kInitBal);
  });
}

uint64_t bank_total(fault::CrashHarness& h) {
  auto* root = h.pool.root<BankRoot>();
  uint64_t total = 0;
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
    total = 0;
    for (int i = 0; i < kAccounts; i++) total += tx.read(&root->bal[i]);
  });
  return total;
}

// One disjoint transfer per worker: worker w moves 5 units from account
// 2w to 2w+1. Disjoint write sets mean no conflict aborts perturb the
// event numbering, so the crash sweep is a pure walk over the epoch
// protocol's persistence events.
void one_epoch_round(fault::CrashHarness& h) {
  sim::Engine engine(kMembers);
  engine.run([&](sim::ExecContext& ctx) {
    auto* root = h.pool.root<BankRoot>();
    const int a = 2 * ctx.worker_id();
    h.rt.run(ctx, [&](ptm::Tx& tx) {
      const uint64_t fa = tx.read(&root->bal[a]);
      const uint64_t fb = tx.read(&root->bal[a + 1]);
      tx.write(&root->bal[a], fa - 5);
      tx.write(&root->bal[a + 1], fb + 5);
    });
  });
}

// ----- mechanism ---------------------------------------------------------

TEST(EpochCommit, SizeTriggeredBatching) {
  nvm::SystemConfig cfg = epoch_cfg(nvm::Domain::kAdr, /*mirror=*/false);
  cfg.torn_stores = false;
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  ASSERT_NE(rt.epochs(), nullptr);
  auto* root = pool.root<BankRoot>();

  sim::RealContext setup(3, 4);
  rt.run(setup, [&](ptm::Tx& tx) {
    for (int i = 0; i < kAccounts; i++) tx.write(&root->bal[i], kInitBal);
  });
  const stats::EpochStats before = rt.epochs()->snapshot();

  constexpr int kRounds = 8;
  sim::Engine engine(kMembers);
  engine.run([&](sim::ExecContext& ctx) {
    const int a = 2 * ctx.worker_id();
    for (int r = 0; r < kRounds; r++) {
      rt.run(ctx, [&](ptm::Tx& tx) {
        const uint64_t fa = tx.read(&root->bal[a]);
        tx.write(&root->bal[a], fa + 1);
      });
    }
  });

  const stats::EpochStats after = rt.epochs()->snapshot();
  EXPECT_TRUE(after.enabled);
  const uint64_t epochs = after.epochs - before.epochs;
  const uint64_t members = after.member_txs - before.member_txs;
  EXPECT_EQ(members, uint64_t{kMembers * kRounds});
  // Batching must actually happen: far fewer epochs than members, and at
  // least one epoch closed because it reached epoch_max_txs.
  EXPECT_LT(epochs, members);
  EXPECT_GT(after.closed_by_size, before.closed_by_size);
  EXPECT_EQ(after.size.count(), after.epochs);
}

TEST(EpochCommit, AgeTriggeredLoneWorker) {
  nvm::SystemConfig cfg = epoch_cfg(nvm::Domain::kAdr, /*mirror=*/false);
  cfg.torn_stores = false;
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  auto* root = pool.root<BankRoot>();

  // A lone worker can never fill a size-3 epoch: every commit must close
  // by age as an epoch of one, and must still complete (no deadlock).
  sim::RealContext ctx(0, 4);
  for (int t = 0; t < 5; t++) {
    rt.run(ctx, [&](ptm::Tx& tx) {
      const uint64_t v = tx.read(&root->bal[0]);
      tx.write(&root->bal[0], v + 1);
    });
  }
  const stats::EpochStats s = rt.epochs()->snapshot();
  EXPECT_GE(s.closed_by_age, uint64_t{5});
  EXPECT_EQ(s.member_txs, s.epochs);  // all epochs of one
  EXPECT_DOUBLE_EQ(s.mean_size(), 1.0);
}

// The tentpole claim: with epochs on, committed transactions share fences,
// so the per-commit fence count drops below per-transaction commit's on
// the same concurrent workload (ADR, where fences are real).
TEST(EpochCommit, FewerFencesPerCommitThanPerTx) {
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    uint64_t fences[2], commits[2];
    for (int mode = 0; mode < 2; mode++) {
      nvm::SystemConfig cfg = epoch_cfg(nvm::Domain::kAdr, /*mirror=*/false);
      cfg.torn_stores = false;
      cfg.crash_sim = false;
      cfg.epoch_commit = mode == 1;
      nvm::Pool pool(cfg);
      // REPRO_EPOCH forces epoch commit on for every pool, which turns this
      // A/B comparison into epoch-vs-epoch — equal fence counts by
      // construction, not a coalescing regression.
      if (pool.config().epoch_commit != cfg.epoch_commit) {
        GTEST_SKIP() << "REPRO_EPOCH forces epoch commit on both legs";
      }
      ptm::Runtime rt(pool, algo);
      auto* root = pool.root<BankRoot>();
      sim::RealContext setup(3, 4);
      rt.run(setup, [&](ptm::Tx& tx) {
        for (int i = 0; i < kAccounts; i++) tx.write(&root->bal[i], kInitBal);
      });
      rt.reset_counters();

      sim::Engine engine(kMembers);
      engine.run([&](sim::ExecContext& ctx) {
        const int a = 2 * ctx.worker_id();
        for (int r = 0; r < 32; r++) {
          rt.run(ctx, [&](ptm::Tx& tx) {
            const uint64_t fa = tx.read(&root->bal[a]);
            const uint64_t fb = tx.read(&root->bal[a + 1]);
            tx.write(&root->bal[a], fa - 1);
            tx.write(&root->bal[a + 1], fb + 1);
          });
        }
      });
      const stats::TxCounters tot = stats::aggregate(rt.snapshot_counters());
      fences[mode] = tot.sfences;
      commits[mode] = tot.commits;
    }
    ASSERT_EQ(commits[0], commits[1]);
    EXPECT_LT(fences[1], fences[0])
        << ptm::algo_suffix(algo) << ": epoch mode must coalesce fences";
  }
}

// Per-transaction commit is an epoch of one: both modes run the same seal
// batches (Tx::seal), so a lone worker committing alone and an epoch of
// one must issue the same clwbs, sfences and pmem stores per commit — for
// both algorithms, with and without mirrored metadata. The totals are also
// pinned: a copy loop that adds or drops a store, flush or fence for
// either log copy moves them.
TEST(EpochCommit, EpochOfOneIssuesThePerTxSequence) {
  constexpr int kTxs = 16;
  struct Cost {
    uint64_t clwbs, sfences, pmem_stores;
  };
  // Over kTxs commits of three word writes, ADR: [algo R, U][plain, mirrored].
  // A mirrored commit fences twice more than a plain one: batch B, and the
  // replica's retired header before the retire touches the primary.
  constexpr Cost kPinned[2][2] = {{{84, 64, 256}, {132, 96, 432}},
                                  {{148, 96, 288}, {276, 128, 544}}};
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    for (bool mirror : {false, true}) {
      stats::TxCounters tot[2];  // over kTxs commits, so equal per commit
      for (int mode = 0; mode < 2; mode++) {
        nvm::SystemConfig cfg = epoch_cfg(nvm::Domain::kAdr, mirror);
        cfg.torn_stores = false;
        cfg.epoch_commit = mode == 1;
        cfg.epoch_max_txs = 1;
        nvm::Pool pool(cfg);
        if (pool.config().epoch_commit != cfg.epoch_commit) {
          GTEST_SKIP() << "REPRO_EPOCH forces epoch commit on both legs";
        }
        ptm::Runtime rt(pool, algo);
        auto* root = pool.root<BankRoot>();
        sim::RealContext ctx(0, cfg.max_workers);
        rt.run(ctx, [&](ptm::Tx& tx) {
          for (int i = 0; i < kAccounts; i++) tx.write(&root->bal[i], kInitBal);
        });
        rt.reset_counters();
        for (int t = 0; t < kTxs; t++) {
          rt.run(ctx, [&](ptm::Tx& tx) {
            for (int i = 0; i < 3; i++) {
              const uint64_t v = tx.read(&root->bal[3 * (t % 8) + i]);
              tx.write(&root->bal[3 * (t % 8) + i], v + 1);
            }
          });
        }
        tot[mode] = stats::aggregate(rt.snapshot_counters());
        ASSERT_EQ(tot[mode].commits, uint64_t{kTxs});
      }
      const char* leg = mirror ? "mirrored" : "plain";
      EXPECT_EQ(tot[0].clwbs, tot[1].clwbs) << ptm::algo_suffix(algo) << " " << leg;
      EXPECT_EQ(tot[0].sfences, tot[1].sfences) << ptm::algo_suffix(algo) << " " << leg;
      EXPECT_EQ(tot[0].pmem_stores, tot[1].pmem_stores)
          << ptm::algo_suffix(algo) << " " << leg;
      const Cost& pin = kPinned[algo == ptm::Algo::kOrecLazy ? 0 : 1][mirror ? 1 : 0];
      EXPECT_EQ(tot[0].clwbs, pin.clwbs) << ptm::algo_suffix(algo) << " " << leg;
      EXPECT_EQ(tot[0].sfences, pin.sfences) << ptm::algo_suffix(algo) << " " << leg;
      EXPECT_EQ(tot[0].pmem_stores, pin.pmem_stores) << ptm::algo_suffix(algo) << " " << leg;
    }
  }
}

// ----- reset after recovery ----------------------------------------------

// Runtime::recover() must drop all volatile epoch state: a crash mid-drain
// abandons queued members and can leave the leader flag set, and none of
// it may leak into the next lifetime. After recovery every worker's member
// phase must read "no commit in flight" and a fresh epoch round must
// complete (and batch) normally.
TEST(EpochCommit, ResetAfterRecoveryClearsMembership) {
  const nvm::SystemConfig cfg = epoch_cfg(nvm::Domain::kAdr, /*mirror=*/false);

  // A fault-free trial's event count puts the crash mid-round — inside
  // the epoch machinery, with members queued/staged.
  fault::CrashHarness clean(cfg, ptm::Algo::kOrecLazy);
  populate(clean);
  const fault::Trial full =
      clean.trial(fault::Faults{}, 1, [&] { one_epoch_round(clean); });
  EXPECT_TRUE(full.ok()) << full.failure;
  ASSERT_GT(full.events, 2u);

  fault::CrashHarness h(cfg, ptm::Algo::kOrecLazy);
  ASSERT_NE(h.rt.epochs(), nullptr);
  populate(h);
  const fault::Trial t =
      h.trial({.power_at = full.events / 2}, 23, [&] { one_epoch_round(h); });
  ASSERT_TRUE(t.fired);
  EXPECT_TRUE(t.ok()) << t.failure;

  // No parked member and no stale leader may survive recovery.
  for (int w = 0; w < 4; w++) {
    EXPECT_EQ(h.rt.epochs()->member_phase(w), 0) << "worker " << w;
  }

  // A fresh round on the recovered runtime must complete and batch.
  const stats::EpochStats before = h.rt.epochs()->snapshot();
  one_epoch_round(h);
  const stats::EpochStats after = h.rt.epochs()->snapshot();
  EXPECT_EQ(after.member_txs - before.member_txs, uint64_t{kMembers});
  EXPECT_GT(after.epochs, before.epochs);
  for (int w = 0; w < 4; w++) {
    EXPECT_EQ(h.rt.epochs()->member_phase(w), 0) << "worker " << w;
  }
}

// ----- deterministic crash sweep -----------------------------------------

struct SweepParam {
  ptm::Algo algo;
  nvm::Domain domain;
  bool mirror;
};

std::string sweep_param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string s = ptm::algo_suffix(info.param.algo);
  s += "_";
  s += nvm::domain_name(info.param.domain);
  s += info.param.mirror ? "_mirror" : "_plain";
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class EpochCrashSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EpochCrashSweep, EveryEventAckedDurableUnackedAllOrNothing) {
  const SweepParam p = GetParam();
  // Crash at every event of one full three-member epoch round. The DES
  // schedule is deterministic, so event k always lands at the same
  // instruction of the protocol.
  const uint64_t fired = fault::CrashHarness::sweep(
      epoch_cfg(p.domain, p.mirror), p.algo, [&](fault::CrashHarness& h, uint64_t k) {
        populate(h);
        const fault::Trial t =
            h.trial({.power_at = k}, 100 + k, [&] { one_epoch_round(h); });
        // The verdict's oracle proved acked-durable and unacked-all-or-
        // nothing on the raw heap bytes. Cross-check with the workload
        // invariant: transfers conserve money whichever epoch subset
        // survived.
        EXPECT_TRUE(t.ok()) << "event " << k << ": " << t.failure;
        EXPECT_EQ(bank_total(h), uint64_t{kAccounts} * kInitBal) << "event " << k;
        return t;
      });
  EXPECT_GT(fired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgoDomainMirror, EpochCrashSweep,
    ::testing::Values(
        SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kAdr, false},
        SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kAdr, true},
        SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kEadr, false},
        SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kPdram, false},
        SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kPdramLite, true},
        SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kAdr, false},
        SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kAdr, true},
        SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kEadr, true},
        SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kPdram, true},
        SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kPdramLite, false}),
    sweep_param_name);

}  // namespace
