// Race-sanitizer tests: each seeded known-bad synchronization sequence
// must produce exactly its expected diagnostic, clean runs of both
// algorithms across all four domains must report zero correctness
// diagnostics, the REPRO_JSON "rsan" key must appear exactly when the
// sanitizer ran, and an undrained diagnostic must fail its crash trial or
// abort its pool. docs/ANALYSIS.md documents the vector-clock model under
// test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/rsan.h"
#include "nvm/pool.h"
#include "ptm/runtime.h"
#include "test_common.h"

namespace {

using analysis::Rsan;
using analysis::RsanDiag;
using analysis::RsanKind;

nvm::SystemConfig rsan_cfg(nvm::Domain domain = nvm::Domain::kAdr) {
  auto cfg = test::small_cfg(domain, nvm::Media::kOptane, false);
  cfg.rsan = true;
  return cfg;
}

struct Root {
  uint64_t a;
  uint64_t b;
};

// ------------------------------------------------- seeded bad sequences
//
// Each test drives nvm::Memory and the declared-synchronization hooks
// directly, standing in for the PTM, so the event stream contains exactly
// the seeded synchronization bug and nothing else. No orec resolver is
// installed unless the test needs the coverage/release lints — bare
// pools have no runtime, so the coverage lint is off by construction.

TEST(RsanSeeded, UnsynchronizedStoresRace) {
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  sim::RealContext c1{1, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  // Two workers store the same word with no declared edge between them.
  rs->on_tx_begin(0);
  rs->on_tx_begin(1);
  pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
  pool.mem().store_word(c1, nullptr, w, 2, nvm::Space::kData);
  rs->on_tx_end(0);
  rs->on_tx_end(1);

  const auto s = rs->summary();
  EXPECT_EQ(s.write_write_race, 1u);
  EXPECT_EQ(s.correctness(), 1u);

  const auto diags = rs->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, RsanKind::kWriteWriteRace);
  EXPECT_EQ(diags[0].worker, 1);
  EXPECT_EQ(diags[0].other, 0);
  EXPECT_EQ(diags[0].addr, reinterpret_cast<uint64_t>(w));
}

TEST(RsanSeeded, RawLoadVersusStoreRaces) {
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  sim::RealContext c1{1, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  // A raw (non-orec-mediated) load by one worker, then a store by another
  // with no edge: the store must flag the read entry.
  rs->on_tx_begin(0);
  rs->on_tx_begin(1);
  (void)pool.mem().load_word(c0, nullptr, w, nvm::Space::kData);
  pool.mem().store_word(c1, nullptr, w, 2, nvm::Space::kData);
  rs->on_tx_end(0);
  rs->on_tx_end(1);

  const auto s = rs->summary();
  EXPECT_EQ(s.read_write_race, 1u);
  EXPECT_EQ(s.write_write_race, 0u);
  EXPECT_EQ(s.correctness(), 1u);

  const auto diags = rs->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, RsanKind::kReadWriteRace);
  EXPECT_EQ(diags[0].worker, 1);
  EXPECT_EQ(diags[0].other, 0);
}

TEST(RsanSeeded, OrecHandoffMakesConflictingStoresClean) {
  // Control for the two races above: the same conflicting accesses become
  // race-free once the orec protocol's release→acquire edge orders them.
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  sim::RealContext c1{1, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  uint64_t fake_orec = 0;

  rs->on_tx_begin(0);
  rs->on_orec_acquire(0, &fake_orec);
  pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
  pool.mem().clwb(c0, nullptr, w);
  pool.mem().sfence(c0, nullptr);
  rs->on_orec_release(0, &fake_orec);
  rs->on_tx_end(0);

  rs->on_tx_begin(1);
  rs->on_orec_acquire(1, &fake_orec);  // joins worker 0's history
  (void)pool.mem().load_word(c1, nullptr, w, nvm::Space::kData);
  pool.mem().store_word(c1, nullptr, w, 2, nvm::Space::kData);
  pool.mem().clwb(c1, nullptr, w);
  pool.mem().sfence(c1, nullptr);
  rs->on_orec_release(1, &fake_orec);
  rs->on_tx_end(1);

  const auto s = rs->summary();
  EXPECT_EQ(s.correctness(), 0u)
      << "ww=" << s.write_write_race << " rw=" << s.read_write_race;
  EXPECT_EQ(rs->drain().size(), 0u);
}

TEST(RsanSeeded, OrecReleasedBeforeFenceIsEarlyRelease) {
  // ADR domain: stores are in-flight until a fence retires them. Releasing
  // the covering orec before that point publishes pre-durable state.
  nvm::Pool pool(rsan_cfg(nvm::Domain::kAdr));
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  static uint64_t fake_orec = 0;
  // Attribution of stored lines to the owned orec needs the resolver.
  rs->set_orec_resolver([](const void*) -> const void* { return &fake_orec; });

  rs->on_tx_begin(0);
  rs->on_orec_acquire(0, &fake_orec);
  pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
  // Seeded bug: no clwb/sfence before the release.
  rs->on_orec_release(0, &fake_orec);
  rs->on_tx_end(0);

  const auto s = rs->summary();
  EXPECT_EQ(s.early_release, 1u);
  EXPECT_EQ(s.orec_coverage, 0u) << "the store was under the owned orec";
  EXPECT_EQ(s.correctness(), 1u);

  const auto diags = rs->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, RsanKind::kEarlyRelease);
  EXPECT_EQ(diags[0].worker, 0);
  EXPECT_EQ(diags[0].line, pool.mem().line_of(w));
}

TEST(RsanSeeded, ReleaseAfterFenceIsClean) {
  // Control: the identical sequence with the fence in place is clean.
  nvm::Pool pool(rsan_cfg(nvm::Domain::kAdr));
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  static uint64_t fake_orec = 0;
  rs->set_orec_resolver([](const void*) -> const void* { return &fake_orec; });

  rs->on_tx_begin(0);
  rs->on_orec_acquire(0, &fake_orec);
  pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
  pool.mem().clwb(c0, nullptr, w);
  pool.mem().sfence(c0, nullptr);
  rs->on_orec_release(0, &fake_orec);
  rs->on_tx_end(0);

  const auto s = rs->summary();
  EXPECT_EQ(s.correctness(), 0u) << "early_release=" << s.early_release;
  EXPECT_EQ(rs->drain().size(), 0u);
}

TEST(RsanSeeded, UncoveredTransactionalStoreFlagsCoverage) {
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  static uint64_t fake_orec = 0;
  rs->set_orec_resolver([](const void*) -> const void* { return &fake_orec; });

  // Seeded bug: a transactional store with the covering orec never
  // acquired — the protocol left the word unprotected.
  rs->on_tx_begin(0);
  pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
  rs->on_tx_end(0);

  const auto s = rs->summary();
  EXPECT_EQ(s.orec_coverage, 1u);

  const auto diags = rs->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, RsanKind::kOrecCoverage);
  EXPECT_EQ(diags[0].worker, 0);
}

TEST(RsanSeeded, EpochLeaderWithoutHandoffRaces) {
  // Epoch shape: a member stores, then the leader touches the same word.
  // Without the publish→join handoff the leader's store is a race.
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext member{1, 8};
  sim::RealContext leader{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  rs->on_tx_begin(1);
  pool.mem().store_word(member, nullptr, w, 1, nvm::Space::kData);
  // Seeded bug: no on_publish(member)/on_join(leader) edge.
  rs->on_tx_begin(0);
  pool.mem().store_word(leader, nullptr, w, 2, nvm::Space::kData);
  rs->on_tx_end(0);
  rs->on_tx_end(1);

  const auto s = rs->summary();
  EXPECT_EQ(s.write_write_race, 1u);

  const auto diags = rs->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, RsanKind::kWriteWriteRace);
  EXPECT_EQ(diags[0].worker, 0);
  EXPECT_EQ(diags[0].other, 1);
}

TEST(RsanSeeded, EpochPublishJoinHandoffIsClean) {
  // Control: the member publishes its slot, the leader joins it before
  // staging — the exact edge EpochManager declares — and the same store
  // pair is ordered.
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext member{1, 8};
  sim::RealContext leader{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  int handoff = 0;  // stands in for the epoch member slot object

  rs->on_tx_begin(1);
  pool.mem().store_word(member, nullptr, w, 1, nvm::Space::kData);
  rs->on_publish(1, &handoff);
  rs->on_tx_begin(0);
  rs->on_join(0, &handoff);
  pool.mem().store_word(leader, nullptr, w, 2, nvm::Space::kData);
  rs->on_tx_end(0);
  rs->on_tx_end(1);

  const auto s = rs->summary();
  EXPECT_EQ(s.correctness(), 0u) << "ww=" << s.write_write_race;
  EXPECT_EQ(rs->drain().size(), 0u);
}

TEST(RsanSeeded, InheritanceCoversContainmentTakeover) {
  // A reclaimer touching the victim's words is only ordered through
  // on_inherit (lease expiry + fence happened in the protocol); without
  // the edge the same replay store would race.
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext victim{1, 8};
  sim::RealContext reclaimer{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  rs->on_tx_begin(1);
  pool.mem().store_word(victim, nullptr, w, 1, nvm::Space::kData);
  rs->on_tx_begin(0);
  rs->on_inherit(0, 1);  // reclaimer inherits the victim's clock
  pool.mem().store_word(reclaimer, nullptr, w, 2, nvm::Space::kData);
  rs->on_tx_end(0);
  rs->on_tx_end(1);

  const auto s = rs->summary();
  EXPECT_EQ(s.inherits, 1u);
  EXPECT_EQ(s.correctness(), 0u) << "ww=" << s.write_write_race;
  EXPECT_EQ(rs->drain().size(), 0u);
}

TEST(RsanSeeded, OutOfTransactionAccessesAreInvisible) {
  // Population/oracle shape: conflicting accesses outside any transaction
  // must never diagnose (recovery and verification own the pool then).
  nvm::Pool pool(rsan_cfg());
  Rsan* rs = pool.mem().rsan();
  ASSERT_NE(rs, nullptr);
  sim::RealContext c0{0, 8};
  sim::RealContext c1{1, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
  pool.mem().store_word(c1, nullptr, w, 2, nvm::Space::kData);

  const auto s = rs->summary();
  EXPECT_EQ(s.stores, 0u) << "out-of-tx stores must not be tracked";
  EXPECT_EQ(s.correctness(), 0u);
  EXPECT_EQ(rs->drain().size(), 0u);
}

// ------------------------------------------------- clean matrix

TEST(RsanClean, BothAlgosAllDomainsReportZeroCorrectness) {
  for (const auto algo : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
    for (const auto dom : {nvm::Domain::kAdr, nvm::Domain::kEadr,
                           nvm::Domain::kPdram, nvm::Domain::kPdramLite}) {
      test::Fixture fx(rsan_cfg(dom), algo);
      auto* root = fx.pool.root<Root>();
      std::vector<void*> blocks;
      for (uint64_t i = 0; i < 64; i++) {
        fx.rt.run(fx.ctx, [&](ptm::Tx& tx) {
          tx.write(&root->a, i);
          tx.write(&root->b, i * 3);
          if (i % 4 == 0) blocks.push_back(tx.alloc(48));
          if (i % 8 == 0 && !blocks.empty()) {
            tx.dealloc(blocks.back());
            blocks.pop_back();
          }
        });
      }
      // Read-only and alloc-only shapes too.
      fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { (void)tx.read(&root->a); });
      fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { (void)tx.alloc(64); });

      Rsan* rs = fx.pool.mem().rsan();
      ASSERT_NE(rs, nullptr);
      const auto s = rs->summary();
      EXPECT_GT(s.stores, 0u) << "the sanitizer must actually observe the run";
      EXPECT_GT(s.acquires, 0u);
      EXPECT_EQ(s.correctness(), 0u)
          << ptm::algo_suffix(algo) << "/" << nvm::domain_name(dom)
          << ": ww=" << s.write_write_race << " rw=" << s.read_write_race
          << " cov=" << s.orec_coverage << " rel=" << s.early_release;
      rs->drain();
    }
  }
}

// ------------------------------------------------- the verdict
//
// Every rsan diagnostic fails what produced it: the crash trial whose
// verdict drains it, or else the pool it outlives.

TEST(RsanVerdictDeathTest, UndrainedRaceAbortsPoolTeardown) {
  auto leak = [] {
    nvm::Pool pool(rsan_cfg());
    Rsan* rs = pool.mem().rsan();
    sim::RealContext c0{0, 8};
    sim::RealContext c1{1, 8};
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    rs->on_tx_begin(0);
    rs->on_tx_begin(1);
    pool.mem().store_word(c0, nullptr, w, 1, nvm::Space::kData);
    pool.mem().store_word(c1, nullptr, w, 2, nvm::Space::kData);
  };
  EXPECT_DEATH(leak(), "rsan: write_write_race worker=1 other=0");
}

TEST(RsanVerdict, CrashTrialFailsOnItsFinding) {
  auto cfg = test::crash_cfg();
  cfg.rsan = true;
  fault::CrashHarness h(cfg, ptm::Algo::kOrecLazy);
  Rsan* rs = h.pool.mem().rsan();
  auto* w = h.pool.root<uint64_t>();
  const fault::Trial t = h.trial({}, 1, [&] {
    // A transactional store under no orec (the runtime installed the
    // coverage resolver).
    rs->on_tx_begin(0);
    h.pool.mem().store_word(h.ctx, nullptr, w, 42, nvm::Space::kData);
    rs->on_tx_end(0);
  });
  EXPECT_FALSE(t.ok());
  EXPECT_NE(t.failure.find("rsan: orec_coverage worker=0"), std::string::npos) << t.failure;
  // The verdict drained it, so the harness's teardown does not abort.
  EXPECT_EQ(rs->summary().correctness(), 0u);
}

}  // namespace
