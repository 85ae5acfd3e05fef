// Crash-recovery property tests: the "linearizable durability" contract.
//
// A bank of accounts is updated by transfer transactions; a crash is
// injected after a random number of persistence events (pmem stores, clwb,
// sfence). After simulate_power_failure() + Runtime::recover(), the heap
// must reflect exactly the committed prefix of transactions: the invariant
// (constant total balance) must hold, and the account state must equal the
// last committed shadow state, except that a transaction in flight at the
// crash may appear included iff its commit record persisted.
//
// Trials run on fault::CrashHarness, so every recovery is additionally
// checked by the durable-linearizability oracle and for a clean
// RecoveryReport; the hand-rolled shadow comparison below is kept as an
// independent cross-check of the oracle itself.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "ptm/runtime.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

constexpr int kAccounts = 32;
constexpr uint64_t kInitialBalance = 1000;

struct BankRoot {
  uint64_t balance[kAccounts];
};

struct CrashParam {
  ptm::Algo algo;
  nvm::Domain domain;
};

std::string crash_param_name(const ::testing::TestParamInfo<CrashParam>& info) {
  std::string s = ptm::algo_suffix(info.param.algo);
  s += "_";
  s += nvm::domain_name(info.param.domain);
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class CrashTest : public ::testing::TestWithParam<CrashParam> {};

void expect_total_balance(fault::CrashHarness& h, BankRoot* root) {
  uint64_t total = 0;
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
    total = 0;
    for (int i = 0; i < kAccounts; i++) total += tx.read(&root->balance[i]);
  });
  EXPECT_EQ(total, kAccounts * kInitialBalance);
}

void populate(fault::CrashHarness& h, BankRoot* root) {
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
    for (int i = 0; i < kAccounts; i++) tx.write(&root->balance[i], kInitialBalance);
  });
}

TEST_P(CrashTest, RecoversToCommittedPrefix_SingleThread) {
  for (uint64_t trial = 0; trial < 30; trial++) {
    fault::CrashHarness h(test::crash_cfg(GetParam().domain), GetParam().algo);
    auto* root = h.pool.root<BankRoot>();
    populate(h, root);

    util::Rng rng(1000 + trial);
    std::array<uint64_t, kAccounts> shadow;
    shadow.fill(kInitialBalance);

    // Crash after a random number of persistence events.
    uint64_t from = 0, to = 0, amt = 0;
    const fault::Trial t =
        h.trial({.power_at = 1 + rng.next_bounded(600)}, 777 + trial, [&] {
          for (int i = 0; i < 200; i++) {
            from = rng.next_bounded(kAccounts);
            to = (from + 1 + rng.next_bounded(kAccounts - 1)) % kAccounts;
            amt = rng.next_bounded(50);
            h.rt.run(h.ctx, [&](ptm::Tx& tx) {
              const uint64_t f = tx.read(&root->balance[from]);
              const uint64_t s = tx.read(&root->balance[to]);
              const uint64_t take = amt > f ? f : amt;
              tx.write(&root->balance[from], f - take);
              tx.write(&root->balance[to], s + take);
            });
            // Committed: update the shadow.
            const uint64_t take = amt > shadow[from] ? shadow[from] : amt;
            shadow[from] -= take;
            shadow[to] += take;
          }
        });
    ASSERT_TRUE(t.fired) << "crash must fire within 200 transfers";
    EXPECT_TRUE(t.ok()) << "trial " << trial << ": " << t.failure;

    // Invariant: money is conserved regardless of where the crash hit.
    expect_total_balance(h, root);

    // State equals the committed shadow, or the shadow plus the in-flight
    // transfer (iff its commit record persisted first).
    std::array<uint64_t, kAccounts> got;
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < kAccounts; i++) got[i] = tx.read(&root->balance[i]);
    });
    auto with_inflight = shadow;
    const uint64_t take = amt > with_inflight[from] ? with_inflight[from] : amt;
    with_inflight[from] -= take;
    with_inflight[to] += take;
    EXPECT_TRUE(got == shadow || got == with_inflight)
        << "trial " << trial << ": recovered state matches neither the "
        << "committed prefix nor prefix+in-flight";

    // The pool must be fully usable after recovery.
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      const uint64_t v = tx.read(&root->balance[0]);
      tx.write(&root->balance[0], v);
    });
  }
}

TEST_P(CrashTest, RecoversUnderConcurrentWorkers) {
  for (uint64_t trial = 0; trial < 10; trial++) {
    fault::CrashHarness h(test::crash_cfg(GetParam().domain), GetParam().algo);
    auto* root = h.pool.root<BankRoot>();
    populate(h, root);

    util::Rng seed_rng(5000 + trial);
    const fault::Trial t =
        h.trial({.power_at = 50 + seed_rng.next_bounded(3000)}, 31 * trial + 7, [&] {
          sim::Engine engine(3);
          engine.run([&](sim::ExecContext& ctx) {
            util::Rng rng(trial * 97 + static_cast<uint64_t>(ctx.worker_id()));
            for (int i = 0; i < 300; i++) {
              const uint64_t from = rng.next_bounded(kAccounts);
              const uint64_t to = (from + 1 + rng.next_bounded(kAccounts - 1)) % kAccounts;
              const uint64_t amt = rng.next_bounded(50);
              h.rt.run(ctx, [&](ptm::Tx& tx) {
                const uint64_t f = tx.read(&root->balance[from]);
                const uint64_t s = tx.read(&root->balance[to]);
                const uint64_t take = amt > f ? f : amt;
                tx.write(&root->balance[from], f - take);
                tx.write(&root->balance[to], s + take);
              });
            }
          });
        });
    ASSERT_TRUE(t.fired);
    EXPECT_TRUE(t.ok()) << "trial " << trial << ": " << t.failure;
    expect_total_balance(h, root);
  }
}

TEST_P(CrashTest, CrashDuringRecoveryIsSafe) {
  // Recovery itself is idempotent: rebuild the same crash image (same
  // workload schedule, same crash point, same writeback resolution), crash
  // the first recovery attempt at its k-th persistence event for every k
  // until it runs out of events, recover again, and require the verdict
  // and the invariant each time. Deterministic — any failure names its k.
  const uint64_t fired = fault::CrashHarness::sweep(
      test::crash_cfg(GetParam().domain), GetParam().algo,
      [&](fault::CrashHarness& h, uint64_t k) {
        auto* root = h.pool.root<BankRoot>();
        populate(h, root);
        h.seal_initial_state();
        util::Rng rng(4242);
        const fault::Trial image = h.strike({.power_at = 120}, 9, [&] {
          for (int i = 0; i < 100; i++) {
            const uint64_t a = rng.next_bounded(kAccounts);
            const uint64_t b = (a + 1 + rng.next_bounded(kAccounts - 1)) % kAccounts;
            h.rt.run(h.ctx, [&](ptm::Tx& tx) {
              const uint64_t f = tx.read(&root->balance[a]);
              const uint64_t s = tx.read(&root->balance[b]);
              const uint64_t take = f > 10 ? 10 : f;
              tx.write(&root->balance[a], f - take);
              tx.write(&root->balance[b], s + take);
            });
          }
        });
        EXPECT_TRUE(image.fired);
        h.power_fail();

        // The first recovery dies at its k-th persistence event; the
        // second completes and is judged against the workload's history.
        fault::Trial t = h.strike({.power_at = k}, 10 + k, [&] { h.rt.recover(h.ctx); });
        h.power_fail();
        h.recover(t);
        EXPECT_TRUE(t.ok()) << "recovery crashed at event " << k << ": " << t.failure;
        expect_total_balance(h, root);
        return t;
      });
  EXPECT_GT(fired, 0u);
}

// A crash inside the first recovery's retire of a mirrored slot caught
// between commit batches B and C. The crash image holds the replica
// header's COMMITTED image (batch B) beside a primary that is not
// committed, so the first recovery cancels the transaction and returns its
// block to a free list. Its retire then rewrites both header copies; were
// the primary stored before the replica's retired image is durable, a
// crash there could leave a torn primary beside the old COMMITTED replica,
// which the second recovery would trust and replay, publishing a block
// that is still free. The workload is worker 1's {p = alloc(64);
// root->slot = p} on a 2 MiB mirrored, torn-store ADR pool, crashed at
// every event with eight seeds; recovery events are swept only for
// images in that window.
TEST(RecoveryCrash, MirroredRetireKeepsTheFirstVerdict) {
  nvm::SystemConfig cfg = test::crash_cfg(nvm::Domain::kAdr);
  cfg.pool_size = 2ull << 20;
  cfg.log_mirror = true;
  cfg.torn_stores = true;
  constexpr ptm::Algo kAlgo = ptm::Algo::kOrecLazy;
  struct SlotRoot {
    uint64_t slot;
  };

  // The crash image: the publish transaction on a recovered pool, power
  // failed at its event e.
  const auto crash_publish = [&](fault::CrashHarness& h, uint64_t e, uint64_t seed) {
    auto* root = h.pool.root<SlotRoot>();
    sim::RealContext w1(1, cfg.max_workers);
    h.rt.recover(h.ctx);
    h.seal_initial_state();
    const fault::Trial t = h.strike({.power_at = e}, seed, [&] {
      h.rt.run(w1, [&](ptm::Tx& tx) {
        tx.write(&root->slot, reinterpret_cast<uint64_t>(tx.alloc(64)));
      });
    });
    h.power_fail();
    return t;
  };
  // After recovery a published block is live: on no free list, and no
  // fresh allocation hands it out again.
  const auto expect_published_block_live = [](fault::CrashHarness& h, const std::string& at) {
    const uint64_t p = h.pool.root<SlotRoot>()->slot;
    if (p == 0) return;
    EXPECT_FALSE(h.rt.allocator().in_free_list(reinterpret_cast<void*>(p)))
        << at << ": published block is on a free list";
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < 64; i++) {
        EXPECT_NE(reinterpret_cast<uint64_t>(tx.alloc(64)), p) << at << ": allocated twice";
      }
    });
  };

  uint64_t windows = 0;
  for (uint64_t s = 0; s < 8; s++) {
    const uint64_t fired =
        fault::CrashHarness::sweep(cfg, kAlgo, [&](fault::CrashHarness& h, uint64_t e) {
          const uint64_t seed = 8 * e + s;
          fault::Trial t = crash_publish(h, e, seed);
          const ptm::SlotLayout slot = ptm::SlotLayout::carve(
              h.pool.worker_meta(1), h.pool.worker_meta_bytes(), /*mirror=*/true);
          const ptm::TxSlotHeader& rep = *slot.header_copy(ptm::SlotLayout::kReplica);
          const auto committed = [](const ptm::TxSlotHeader& hdr) {
            return ptm::TxSlotHeader::state_of(hdr.status) == ptm::TxSlotHeader::kCommitted;
          };
          if (committed(rep) && ptm::slot_header_crc_ok(rep) && !committed(*slot.header)) {
            windows++;
            const uint64_t recovery_events = fault::CrashHarness::sweep(
                cfg, kAlgo, [&](fault::CrashHarness& g, uint64_t k) {
                  crash_publish(g, e, seed);
                  fault::Trial r =
                      g.strike({.power_at = k}, seed + k, [&] { g.rt.recover(g.ctx); });
                  g.power_fail();
                  g.recover(r);
                  const std::string at = "workload event " + std::to_string(e) + " seed " +
                                         std::to_string(seed) + ", recovery crashed at " +
                                         std::to_string(k);
                  EXPECT_TRUE(r.ok()) << at << ": " << r.failure;
                  expect_published_block_live(g, at);
                  return r;
                });
            EXPECT_GT(recovery_events, 0u);
          }
          h.recover(t);
          const std::string at = "workload event " + std::to_string(e) + " seed " +
                                 std::to_string(seed);
          EXPECT_TRUE(t.ok()) << at << ": " << t.failure;
          expect_published_block_live(h, at);
          return t;
        });
    EXPECT_GT(fired, 0u);
  }
  EXPECT_GT(windows, 0u) << "no crash image fell between batches B and C";
}

INSTANTIATE_TEST_SUITE_P(
    AlgoDomain, CrashTest,
    ::testing::Values(CrashParam{ptm::Algo::kOrecLazy, nvm::Domain::kAdr},
                      CrashParam{ptm::Algo::kOrecLazy, nvm::Domain::kEadr},
                      CrashParam{ptm::Algo::kOrecEager, nvm::Domain::kAdr},
                      CrashParam{ptm::Algo::kOrecEager, nvm::Domain::kEadr}),
    crash_param_name);

}  // namespace
