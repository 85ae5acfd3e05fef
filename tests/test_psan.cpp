// Persistency-sanitizer tests: each seeded known-bad instruction sequence
// must produce exactly its expected diagnostic, clean runs of both
// algorithms across all four domains must produce zero correctness
// violations, the REPRO_JSON "psan" key must appear exactly when the
// sanitizer ran, and an undrained correctness diagnostic must fail its
// crash trial or abort its pool. docs/ANALYSIS.md documents the state
// machine under test.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/psan.h"
#include "nvm/pool.h"
#include "ptm/runtime.h"
#include "test_common.h"

namespace {

using analysis::Diag;
using analysis::DiagKind;

nvm::SystemConfig psan_cfg(nvm::Domain domain = nvm::Domain::kAdr,
                           bool crash_sim = false) {
  auto cfg = test::small_cfg(domain, nvm::Media::kOptane, crash_sim);
  cfg.psan = true;
  return cfg;
}

size_t count_kind(const std::vector<Diag>& ds, DiagKind k) {
  size_t n = 0;
  for (const Diag& d : ds) {
    if (d.kind == k) n++;
  }
  return n;
}

struct Root {
  uint64_t a;
  uint64_t b;
};

// ------------------------------------------------- seeded bad sequences
//
// Each test drives nvm::Memory directly (store/clwb/sfence plus a
// psan_check_persisted ordering point standing in for the PTM's) so the
// instruction stream contains exactly the seeded bug and nothing else.

TEST(PsanSeeded, DroppedFlushBeforeCommitSeal) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  // Seeded bug: no clwb/sfence before the ordering point.
  pool.mem().psan_check_persisted(ctx, w, 8, DiagKind::kMissingFlush,
                                  "seeded: commit-record seal over a dirty line");

  const auto s = ps->summary();
  EXPECT_EQ(s.missing_flush, 1u);
  EXPECT_EQ(s.correctness(), 1u);

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kMissingFlush);
  EXPECT_STREQ(diags[0].state, "dirty (never flushed)");
  EXPECT_EQ(diags[0].worker, 0);
  EXPECT_GT(diags[0].store_event, 0u);
  EXPECT_EQ(diags[0].flush_event, 0u);  // never flushed
}

TEST(PsanSeeded, FlushedButUnfencedIsNotDurable) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  // Seeded bug: the fence is missing, so the clwb may still be in flight.
  pool.mem().psan_check_persisted(ctx, w, 8, DiagKind::kMissingFlush,
                                  "seeded: seal over a flushed-but-unfenced line");

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kMissingFlush);
  EXPECT_STREQ(diags[0].state, "flushed but not fenced");
  EXPECT_GT(diags[0].flush_event, diags[0].store_event);
}

TEST(PsanSeeded, FenceBeforeFlush) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  // Seeded bug: fence first (orders nothing), flush never issued.
  pool.mem().sfence(ctx, nullptr);
  pool.mem().psan_check_persisted(ctx, w, 8, DiagKind::kMissingFlush,
                                  "seeded: fence issued before the flush");

  const auto s = ps->summary();
  EXPECT_EQ(s.redundant_fence, 1u);  // the fence had no clwb to retire
  EXPECT_EQ(s.missing_flush, 1u);    // and the line is still dirty

  const auto diags = ps->drain();
  EXPECT_EQ(count_kind(diags, DiagKind::kRedundantFence), 1u);
  EXPECT_EQ(count_kind(diags, DiagKind::kMissingFlush), 1u);
}

TEST(PsanSeeded, DataStoreAheadOfUndoRecord) {
  // The eager rule: the undo record (log space) must be durable before the
  // in-place data store. Seed the inversion: data goes in-place while the
  // log line was stored but never persisted.
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* log_w = reinterpret_cast<uint64_t*>(pool.heap_base());
  auto* data_w = reinterpret_cast<uint64_t*>(pool.heap_base() + 4096);

  pool.mem().store_word(ctx, nullptr, log_w, 7, nvm::Space::kLog);
  // Seeded bug: in-place store issued now; the log record is not durable.
  pool.mem().store_word(ctx, nullptr, data_w, 9, nvm::Space::kData);
  pool.mem().psan_check_persisted(ctx, log_w, 8, DiagKind::kMisorderedPersist,
                                  "seeded: in-place store ahead of its undo record");

  const auto s = ps->summary();
  EXPECT_EQ(s.misordered_persist, 1u);
  EXPECT_EQ(s.correctness(), 1u);

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kMisorderedPersist);
}

TEST(PsanSeeded, DoubleFlushIsRedundant) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  pool.mem().clwb(ctx, nullptr, w);  // seeded bug: no store since the first
  pool.mem().sfence(ctx, nullptr);
  pool.mem().psan_check_persisted(ctx, w, 8, DiagKind::kMissingFlush,
                                  "control: properly persisted after the fence");

  const auto s = ps->summary();
  EXPECT_EQ(s.redundant_flush, 1u);
  EXPECT_EQ(s.correctness(), 0u);  // the sequence is correct, just wasteful

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kRedundantFlush);
  EXPECT_STREQ(diags[0].state, "line already flushed; no store since");
}

TEST(PsanSeeded, FlushOfCleanLineIsRedundant) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().clwb(ctx, nullptr, w);  // nothing was ever stored here

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kRedundantFlush);
  EXPECT_STREQ(diags[0].state, "no unpersisted store on line");
}

TEST(PsanSeeded, ProperSequenceIsClean) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  pool.mem().sfence(ctx, nullptr);
  pool.mem().psan_check_persisted(ctx, w, 8, DiagKind::kMissingFlush,
                                  "control: store+clwb+sfence is durable");

  const auto s = ps->summary();
  EXPECT_GT(s.checks, 0u);
  EXPECT_EQ(ps->drain().size(), 0u);
}

TEST(PsanSeeded, RedundantFenceAttributedToPhase) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};

  ps->set_phase(0, stats::Phase::kLogAppend);
  pool.mem().sfence(ctx, nullptr);  // nothing pending: redundant
  ps->set_phase(0, stats::Phase::kBegin);

  const auto s = ps->summary();
  EXPECT_EQ(s.redundant_fence, 1u);
  EXPECT_EQ(s.redundant_fence_by_phase[static_cast<size_t>(stats::Phase::kLogAppend)],
            1u);
  ps->drain();
}

// ------------------------------------------------- crash classification

TEST(PsanCrash, NeverFlushedStoreFlaggedAtPowerFailure) {
  nvm::Pool pool(psan_cfg(nvm::Domain::kAdr, /*crash_sim=*/true));
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);

  const auto s = ps->summary();
  EXPECT_EQ(s.unflushed_at_crash, 1u);
  EXPECT_EQ(s.torn_at_crash, 0u);
  EXPECT_EQ(ps->crash_unflushed_lines().size(), 1u);
  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kUnflushedAtCrash);
}

TEST(PsanCrash, FlushedUnfencedStoreCountsAsTorn) {
  nvm::Pool pool(psan_cfg(nvm::Domain::kAdr, /*crash_sim=*/true));
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext ctx{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);  // flushed, never fenced
  util::Rng rng(1);
  pool.simulate_power_failure(rng);

  const auto s = ps->summary();
  EXPECT_EQ(s.unflushed_at_crash, 0u);
  EXPECT_EQ(s.torn_at_crash, 1u);
  EXPECT_TRUE(ps->crash_unflushed_lines().empty());
  EXPECT_EQ(ps->drain().size(), 0u);  // torn is a counter, not a diagnostic
}

// ------------------------------------------------- clean-run guarantees

TEST(PsanClean, BothAlgosAllDomainsReportZeroViolations) {
  for (const auto algo : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
    for (const auto dom : {nvm::Domain::kAdr, nvm::Domain::kEadr,
                           nvm::Domain::kPdram, nvm::Domain::kPdramLite}) {
      test::Fixture fx(psan_cfg(dom), algo);
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

      analysis::Psan* ps = fx.pool.mem().psan();
      ASSERT_NE(ps, nullptr);
      const auto s = ps->summary();
      EXPECT_EQ(s.correctness(), 0u)
          << ptm::algo_suffix(algo) << "/" << nvm::domain_name(dom)
          << ": missing_flush=" << s.missing_flush
          << " misordered_persist=" << s.misordered_persist;
      ps->drain();
    }
  }
}

TEST(PsanClean, AllocOnlyCommitsFenceNothingRedundant) {
  // Regression guard for the fence fixes psan motivated: alloc-only
  // transactions used to fence an empty flush batch in eager_commit and
  // run the empty write-back fence in lazy_commit.
  for (const auto algo : {ptm::Algo::kOrecEager, ptm::Algo::kOrecLazy}) {
    test::Fixture fx(psan_cfg(nvm::Domain::kAdr), algo);
    for (int i = 0; i < 32; i++) {
      fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { (void)tx.alloc(64); });
    }
    analysis::Psan* ps = fx.pool.mem().psan();
    ASSERT_NE(ps, nullptr);
    const auto s = ps->summary();
    EXPECT_EQ(s.redundant_fence, 0u) << ptm::algo_suffix(algo);
    EXPECT_EQ(s.correctness(), 0u) << ptm::algo_suffix(algo);
    ps->drain();
  }
}

// ------------------------------------------------- epoch-commit attribution
//
// Under group/epoch commit the LEADER flushes and fences lines the MEMBERS
// stored. psan keys outstanding stores by (worker, line), so correctness
// hinges on two cross-worker rules: a fence retires ANY worker's store
// captured by the fencing worker's pending clwbs, and a diagnostic names
// the OWNING member, not the worker that happened to flush. These tests
// drive nvm::Memory directly in the leader/member shape so a future psan
// change that silently re-keys attribution fails here, not in a crashfuzz
// sweep.

TEST(PsanEpochAttribution, LeaderFlushRetiresMemberStore) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext member{1, 8};
  sim::RealContext leader{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  // Member stores; the leader write-backs and fences on its behalf.
  pool.mem().store_word(member, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(leader, nullptr, w);
  pool.mem().sfence(leader, nullptr);

  // The member's ordering point (its commit ack) must see the line durable.
  pool.mem().psan_check_persisted(member, w, 8, DiagKind::kMissingFlush,
                                  "epoch ack over a leader-persisted line");
  const auto s = ps->summary();
  EXPECT_EQ(s.correctness(), 0u)
      << "leader clwb+sfence must retire the member's outstanding store";
  ps->drain();
}

TEST(PsanEpochAttribution, DiagnosticNamesOwningMemberNotLeader) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext member{1, 8};
  sim::RealContext leader{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  // Seeded bug: the leader flushes but never fences before the ack.
  pool.mem().store_word(member, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(leader, nullptr, w);
  pool.mem().psan_check_persisted(member, w, 8, DiagKind::kMissingFlush,
                                  "seeded: epoch ack before the leader's fence");

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kMissingFlush);
  EXPECT_STREQ(diags[0].state, "flushed but not fenced");
  // Attribution pins to the member that owns the store, not the flushing
  // leader — the repro points at whose transaction lost data.
  EXPECT_EQ(diags[0].worker, 1);
}

TEST(PsanEpochAttribution, LeaderFenceDoesNotRetireStoreAfterCapture) {
  nvm::Pool pool(psan_cfg());
  analysis::Psan* ps = pool.mem().psan();
  ASSERT_NE(ps, nullptr);
  sim::RealContext member{1, 8};
  sim::RealContext leader{0, 8};
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());

  // Seeded bug: the member stores AGAIN after the leader's clwb captured
  // the line; the leader's fence only makes the first image durable.
  pool.mem().store_word(member, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(leader, nullptr, w);
  pool.mem().store_word(member, nullptr, w, 43, nvm::Space::kData);
  pool.mem().sfence(leader, nullptr);
  pool.mem().psan_check_persisted(member, w, 8, DiagKind::kMissingFlush,
                                  "seeded: store raced ahead of the capture");

  const auto diags = ps->drain();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::kMissingFlush);
  EXPECT_EQ(diags[0].worker, 1);
  EXPECT_STREQ(diags[0].state, "dirty (never flushed)");
}

// ------------------------------------------------- the verdict
//
// A correctness diagnostic fails what produced it: the crash trial whose
// verdict drains it, or else the pool it outlives.

TEST(PsanVerdictDeathTest, UndrainedMissingFlushAbortsPoolTeardown) {
  auto leak = [] {
    nvm::Pool pool(psan_cfg());
    sim::RealContext ctx{0, 8};
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
    pool.mem().psan_check_persisted(ctx, w, 8, DiagKind::kMissingFlush,
                                    "seeded: seal over a dirty line");
  };
  EXPECT_DEATH(leak(), "psan: missing_flush worker=0 .*seeded: seal over a dirty line");
}

TEST(PsanVerdict, CrashTrialFailsOnItsFinding) {
  fault::CrashHarness h(psan_cfg(nvm::Domain::kAdr, /*crash_sim=*/true),
                        ptm::Algo::kOrecLazy);
  auto* w = h.pool.root<uint64_t>();
  const fault::Trial t = h.trial({}, 1, [&] {
    h.pool.mem().store_word(h.ctx, nullptr, w, 42, nvm::Space::kData);
    h.pool.mem().psan_check_persisted(h.ctx, w, 8, DiagKind::kMisorderedPersist,
                                      "seeded: store ahead of its log");
  });
  EXPECT_FALSE(t.ok());
  EXPECT_NE(t.failure.find("psan: misordered_persist worker=0"), std::string::npos)
      << t.failure;
  EXPECT_NE(t.failure.find("seeded: store ahead of its log"), std::string::npos) << t.failure;
  // The verdict drained it, so the harness's teardown does not abort.
  EXPECT_EQ(h.pool.mem().psan()->summary().correctness(), 0u);
}

}  // namespace
