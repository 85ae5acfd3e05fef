// Fault-injection subsystem tests: torn-record detection, media faults,
// writeback-adversary schedules, the durable-linearizability oracle's own
// sensitivity, the crash-trial path's sweep and seed rules, and the
// log-range-drop counter.
//
// The deterministic crash-during-recovery sweep lives in test_crash.cpp
// (CrashDuringRecoveryIsSafe); the randomized schedule explorer is the
// crashfuzz binary (src/fault/crashfuzz.cpp) — these tests pin the sharp
// edges those two drive at scale.
#include <gtest/gtest-spi.h>
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "fault/harness.h"
#include "ptm/runtime.h"
#include "test_common.h"
#include "util/crc32.h"

namespace {

// ---------------------------------------------------------------------------
// Torn commit record: a redo record whose `off` word persisted but whose
// `val` word did not (sub-line tearing under ADR). Recovery must detect it
// by CRC, refuse to replay it, and report it — never apply the garbage.

TEST(TornRecord, TornCommitRecordIsDetectedNotReplayed) {
  auto cfg = test::crash_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<uint64_t>();
  *root = 111;

  // Hand-craft a committed lazy slot whose single record is torn: the
  // committer sealed (off, val=999), but only the off word hit the medium
  // and the val cell still holds old debris.
  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes());
  const uint64_t epoch = 5;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  slot.log[0].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, pool.offset_of(root)), 999);
  slot.log[0].val = 222;  // tear: not the 999 the seal covers
  slot.header->pad[ptm::SlotLayout::kLogCrcPad] =
      util::crc32c_u64(999, util::crc32c_u64(slot.log[0].off, 0));

  const auto rep = rt.recover(ctx);
  EXPECT_GE(rep.records_torn, 1u) << "tear not attributed to the record CRC";
  EXPECT_EQ(rep.records_replayed, 0u) << "torn record was replayed";
  EXPECT_GE(rep.log_crc_mismatches, 1u)
      << "whole-log CRC should also disagree with the torn bytes";
  EXPECT_EQ(*root, 111u) << "torn record's value reached the heap";

  // The pool stays usable.
  rt.run(ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{7}); });
  EXPECT_EQ(*root, 7u);
}

TEST(TornRecord, OutOfBoundsOffsetIsRefused) {
  auto cfg = test::crash_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<uint64_t>();
  *root = 111;

  // A sealed, tag-matching record whose offset targets the pool header:
  // content-valid but *location*-invalid. Applying it would let a corrupt
  // log scribble over the metadata recovery depends on.
  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes());
  const uint64_t epoch = 5;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  slot.log[0].off = ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, /*off=*/8), 999);
  slot.log[0].val = 999;

  const auto rep = rt.recover(ctx);
  EXPECT_GE(rep.records_invalid, 1u);
  EXPECT_EQ(rep.records_replayed, 0u);
}

// ---------------------------------------------------------------------------
// Media faults: a poisoned line is surfaced through the report and the
// affected records are refused, not trusted.

TEST(MediaFault, PoisonedHeaderLineIsReportedAndSlotRebuilt) {
  auto cfg = test::crash_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<uint64_t>();
  *root = 111;

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes());
  const uint64_t epoch = 5;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  slot.log[0].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, pool.offset_of(root)), 999);
  slot.log[0].val = 999;

  pool.mem().inject_media_fault(pool.mem().line_of(slot.header));
  const auto rep = rt.recover(ctx);
  EXPECT_GE(rep.media_faults, 1u);
  EXPECT_GE(rep.records_media_faulted, 1u) << "lost header not attributed";
  EXPECT_EQ(rep.records_replayed, 0u)
      << "replayed a log whose header line is untrustworthy";
  EXPECT_EQ(*root, 111u);

  // The quiesce rebuilt the slot; the worker is usable again.
  pool.mem().clear_media_faults();
  rt.run(ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{7}); });
  EXPECT_EQ(*root, 7u);
}

TEST(MediaFault, PoisonedRecordLineRefusesOnlyThatRecord) {
  auto cfg = test::crash_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<uint64_t[8]>();
  for (int i = 0; i < 8; i++) (*root)[i] = 111;

  // Five committed records spanning at least two log lines (16-byte
  // records, 64-byte lines); poison only the line holding the last one.
  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes());
  const uint64_t epoch = 5;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 5;
  for (uint64_t i = 0; i < 5; i++) {
    const uint64_t off = pool.offset_of(&(*root)[i]);
    slot.log[i].off = ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, off), 500 + i);
    slot.log[i].val = 500 + i;
  }
  uint32_t lc = 0;
  for (uint64_t i = 0; i < 5; i++) {
    lc = util::crc32c_u64(slot.log[i].val, util::crc32c_u64(slot.log[i].off, lc));
  }
  slot.header->pad[ptm::SlotLayout::kLogCrcPad] = lc;

  pool.mem().inject_media_fault(pool.mem().line_of(&slot.log[4]));
  // Records can share the poisoned line with log[4]; expectations follow
  // the actual line geometry rather than assuming alignment.
  uint64_t poisoned = 0;
  bool on_bad[5];
  for (uint64_t i = 0; i < 5; i++) {
    on_bad[i] = pool.mem().media_faulted(&slot.log[i], sizeof(ptm::LogEntry));
    if (on_bad[i]) poisoned++;
  }
  ASSERT_GE(poisoned, 1u);
  ASSERT_LT(poisoned, 5u) << "geometry left no healthy record to replay";

  const auto rep = rt.recover(ctx);
  EXPECT_EQ(rep.records_media_faulted, poisoned);
  EXPECT_EQ(rep.records_replayed, 5u - poisoned)
      << "good records on healthy lines must still replay";
  for (uint64_t i = 0; i < 5; i++) {
    EXPECT_EQ((*root)[i], on_bad[i] ? 111u : 500 + i)
        << "record " << i << (on_bad[i] ? " from a poisoned line was applied"
                                        : " from a healthy line was skipped");
  }
}

// ---------------------------------------------------------------------------
// Writeback adversaries: every spontaneous-writeback schedule — nothing
// persists, everything persists, logs-before-data, data-before-logs — must
// leave a recoverable, durably-linearizable heap.

class AdversaryTest : public ::testing::TestWithParam<nvm::WritebackAdversary> {};

TEST_P(AdversaryTest, BankSurvivesEveryWritebackSchedule) {
  for (auto algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    for (uint64_t trial = 0; trial < 4; trial++) {
      auto cfg = test::crash_cfg(nvm::Domain::kAdr);
      cfg.torn_stores = true;
      cfg.writeback_adversary = GetParam();
      fault::CrashHarness h(cfg, algo);
      auto* bal = h.pool.root<uint64_t[16]>();
      h.rt.run(h.ctx, [&](ptm::Tx& tx) {
        for (int i = 0; i < 16; i++) tx.write(&(*bal)[i], uint64_t{100});
      });

      // Short schedules may outrun the arm point: still judged.
      util::Rng rng(2200 + trial);
      const fault::Trial t =
          h.trial({.power_at = 20 + rng.next_bounded(500)}, trial * 7 + 3, [&] {
            for (int i = 0; i < 150; i++) {
              const uint64_t a = rng.next_bounded(16);
              const uint64_t b = (a + 1 + rng.next_bounded(15)) % 16;
              h.rt.run(h.ctx, [&](ptm::Tx& tx) {
                const uint64_t fa = tx.read(&(*bal)[a]);
                const uint64_t fb = tx.read(&(*bal)[b]);
                const uint64_t amt = fa > 9 ? 9 : fa;
                tx.write(&(*bal)[a], fa - amt);
                tx.write(&(*bal)[b], fb + amt);
              });
            }
          });
      EXPECT_TRUE(t.ok()) << ptm::algo_suffix(algo) << " trial " << trial << ": " << t.failure;

      uint64_t total = 0;
      h.rt.run(h.ctx, [&](ptm::Tx& tx) {
        total = 0;
        for (int i = 0; i < 16; i++) total += tx.read(&(*bal)[i]);
      });
      EXPECT_EQ(total, 16u * 100u)
          << ptm::algo_suffix(algo) << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, AdversaryTest,
    ::testing::Values(nvm::WritebackAdversary::kRandom, nvm::WritebackAdversary::kNone,
                      nvm::WritebackAdversary::kAll, nvm::WritebackAdversary::kLogFirst,
                      nvm::WritebackAdversary::kDataFirst),
    [](const ::testing::TestParamInfo<nvm::WritebackAdversary>& i) {
      switch (i.param) {
        case nvm::WritebackAdversary::kRandom: return "random";
        case nvm::WritebackAdversary::kNone: return "none";
        case nvm::WritebackAdversary::kAll: return "all";
        case nvm::WritebackAdversary::kLogFirst: return "log_first";
        case nvm::WritebackAdversary::kDataFirst: return "data_first";
      }
      return "unknown";
    });

// ---------------------------------------------------------------------------
// The oracle itself must not be vacuous: a heap word that silently changes
// outside the recorded history has to fail verification.

TEST(Oracle, DetectsSilentHeapCorruption) {
  fault::CrashHarness h(test::crash_cfg(), ptm::Algo::kOrecLazy);
  auto* bal = h.pool.root<uint64_t[8]>();
  h.rt.run(h.ctx, [&](ptm::Tx& tx) {
    for (int i = 0; i < 8; i++) tx.write(&(*bal)[i], uint64_t{50});
  });

  // No fault armed: every transaction commits, so the oracle's
  // expectation is exact — no in-flight subset could explain a divergent
  // word.
  util::Rng rng(91);
  const fault::Trial t = h.trial(fault::Faults{}, 3, [&] {
    for (int i = 0; i < 40; i++) {
      const uint64_t a = rng.next_bounded(8);
      const uint64_t b = (a + 1) % 8;
      h.rt.run(h.ctx, [&](ptm::Tx& tx) {
        const uint64_t fa = tx.read(&(*bal)[a]);
        const uint64_t fb = tx.read(&(*bal)[b]);
        tx.write(&(*bal)[a], fa - 1);
        tx.write(&(*bal)[b], fb + 1);
      });
    }
    // Touch the word the corruption below will target, so it is
    // provably part of the recorded history.
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      tx.write(&(*bal)[3], tx.read(&(*bal)[3]) + 2);
    });
  });
  ASSERT_TRUE(t.ok()) << t.failure;

  // Now change one word behind the PTM's back: the oracle must notice.
  (*bal)[3] += 5;
  const auto res = h.oracle.verify();
  EXPECT_FALSE(res.ok) << "oracle accepted a corrupted heap";
  EXPECT_FALSE(res.detail.empty());
  (*bal)[3] -= 5;
  EXPECT_TRUE(h.oracle.verify().ok) << "oracle verdict not restored after undo";
}

// ---------------------------------------------------------------------------
// The crash-trial path itself (fault::CrashHarness): a sweep strikes every
// event of its body exactly once and stops after the one trial that runs
// past the end; a body with no event gives a sweep nothing to fire; and
// the trial's seed is what resolves its crash image.

// Four cells on worker 0 (power failures) or two per worker on a
// two-worker containment round (kills), on a torn-store ADR pool cut to
// 2 MiB: every trial builds one.
nvm::SystemConfig path_cfg() {
  auto cfg = test::crash_cfg();
  cfg.pool_size = 2ull << 20;
  cfg.torn_stores = true;
  cfg.tx_timeout_ns = 20000;  // containment on: kill trials get reclaimed
  return cfg;
}

void write_cells(fault::CrashHarness& h, sim::ExecContext& ctx, int first, int n) {
  auto* cells = h.pool.root<std::array<uint64_t, 8>>();
  h.rt.run(ctx, [&](ptm::Tx& tx) {
    for (int i = first; i < first + n; i++) tx.write(&(*cells)[i], uint64_t{7});
  });
}

TEST(CrashTrialPath, SweepsStrikeEveryEventOnceThenStop) {
  const auto power_body = [](fault::CrashHarness& h) { write_cells(h, h.ctx, 0, 4); };
  const auto kill_body = [](fault::CrashHarness& h) {
    h.run_round(2, 5000, [&](sim::ExecContext& w) { write_cells(h, w, 2 * w.worker_id(), 2); });
  };
  for (bool kill : {false, true}) {
    const auto body = [&](fault::CrashHarness& h) { kill ? kill_body(h) : power_body(h); };
    fault::CrashHarness clean(path_cfg(), ptm::Algo::kOrecLazy);
    const fault::Trial full = clean.trial(fault::Faults{}, 1, [&] { body(clean); });
    ASSERT_TRUE(full.ok()) << full.failure;
    ASSERT_GT(full.events, 0u);

    std::vector<uint64_t> struck, missed;
    const uint64_t fired = fault::CrashHarness::sweep(
        path_cfg(), ptm::Algo::kOrecLazy, [&](fault::CrashHarness& h, uint64_t k) {
          const fault::Faults f = kill ? fault::Faults{.thread_at = k} : fault::Faults{.power_at = k};
          const fault::Trial t = h.trial(f, k, [&] { body(h); });
          EXPECT_TRUE(t.ok()) << (kill ? "kill" : "power failure") << " at " << k << ": "
                              << t.failure;
          (t.fired ? struck : missed).push_back(k);
          return t;
        });
    std::vector<uint64_t> every(full.events);
    for (uint64_t k = 1; k <= full.events; k++) every[k - 1] = k;
    EXPECT_EQ(fired, full.events) << (kill ? "kill" : "power failure");
    EXPECT_EQ(struck, every) << (kill ? "kill" : "power failure");
    EXPECT_EQ(missed, std::vector<uint64_t>{full.events + 1}) << (kill ? "kill" : "power failure");
  }
}

TEST(CrashTrialPath, BodyWithoutEventsFiresNothing) {
  uint64_t trials = 0;
  const uint64_t fired = fault::CrashHarness::sweep(
      path_cfg(), ptm::Algo::kOrecLazy, [&](fault::CrashHarness& h, uint64_t k) {
        trials++;
        return h.trial({.power_at = k}, k, [] {});
      });
  EXPECT_EQ(fired, 0u);
  EXPECT_EQ(trials, 1u);
  // The assertion every suite makes on its sweep's count catches it.
  EXPECT_NONFATAL_FAILURE(EXPECT_GT(fired, 0u), "fired");
}

TEST(CrashTrialPath, SeedResolvesTheImage) {
  // The image a power failure at event k leaves, before recovery.
  const auto image = [](uint64_t k, uint64_t seed) {
    fault::CrashHarness h(path_cfg(), ptm::Algo::kOrecLazy);
    h.seal_initial_state();
    h.strike({.power_at = k}, seed, [&] { write_cells(h, h.ctx, 0, 4); });
    h.power_fail();
    return std::vector<char>(h.pool.base(), h.pool.base() + h.pool.size());
  };
  uint64_t differ = 0;
  for (uint64_t k = 1; k <= 24; k++) {
    const std::vector<char> a = image(k, 100 + k);
    EXPECT_TRUE(a == image(k, 100 + k)) << "event " << k << ": one seed, two images";
    if (a != image(k, 200 + k)) differ++;
  }
  EXPECT_GT(differ, 0u) << "no event's image depends on the trial's seed";
}

// ---------------------------------------------------------------------------
// The log-range registration table is best-effort but never silent: drops
// past its fixed capacity are counted.

TEST(LogRanges, DropsPastTableCapacityAreCounted) {
  auto cfg = test::crash_cfg();
  nvm::Pool pool(cfg);
  auto& mem = pool.mem();
  const uint64_t before = mem.log_range_drops();
  // A fresh pool registers no extra ranges; fill the table and overflow it.
  for (uint64_t i = 0; i < nvm::Memory::kMaxExtraLogRanges + 3; i++) {
    mem.add_log_line_range(1000 + 2 * i, 1000 + 2 * i + 1);
  }
  EXPECT_EQ(mem.log_range_drops(), before + 3);
}

// ---------------------------------------------------------------------------
// Mirror-seal path: with log_mirror on, a commit writes both copies of
// every record plus the replica COMMITTED header (its own fence batch, see
// docs/LOGGING.md). Crash at every persistence event of that sequence —
// both algorithms, all four durability domains, torn stores on — and the
// outcome must be all-or-nothing with zero lost records: whichever copies
// survive, they agree or recovery prefers the consistent one.

class MirrorSealSweep
    : public ::testing::TestWithParam<std::tuple<ptm::Algo, nvm::Domain>> {};

TEST_P(MirrorSealSweep, CrashAtEveryEventLosesNothing) {
  const auto [algo, domain] = GetParam();
  auto cfg = test::crash_cfg(domain);
  cfg.log_mirror = true;
  cfg.torn_stores = true;
  const uint64_t fired =
      fault::CrashHarness::sweep(cfg, algo, [&](fault::CrashHarness& h, uint64_t k) {
        auto* cells = h.pool.root<std::array<uint64_t, 8>>();
        for (int i = 0; i < 8; i++) (*cells)[i] = 100;
        const fault::Trial t = h.trial({.power_at = k}, 1000 + k, [&] {
          h.rt.run(h.ctx, [&](ptm::Tx& tx) {
            for (int i = 0; i < 8; i++) tx.write(&(*cells)[i], static_cast<uint64_t>(i));
          });
        });
        // The verdict includes zero lost records.
        EXPECT_TRUE(t.ok()) << "event " << k << ": " << t.failure;
        EXPECT_TRUE(h.report.mirror_enabled);
        return t;
      });
  EXPECT_GT(fired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgosAllDomains, MirrorSealSweep,
    ::testing::Combine(::testing::Values(ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager),
                       ::testing::Values(nvm::Domain::kAdr, nvm::Domain::kEadr,
                                         nvm::Domain::kPdram, nvm::Domain::kPdramLite)),
    [](const auto& pinfo) {
      const ptm::Algo algo = std::get<0>(pinfo.param);
      const nvm::Domain domain = std::get<1>(pinfo.param);
      std::string n = algo == ptm::Algo::kOrecLazy ? "Lazy" : "Eager";
      switch (domain) {
        case nvm::Domain::kAdr: return n + "Adr";
        case nvm::Domain::kEadr: return n + "Eadr";
        case nvm::Domain::kPdram: return n + "Pdram";
        case nvm::Domain::kPdramLite: return n + "PdramLite";
      }
      return n;
    });

}  // namespace
