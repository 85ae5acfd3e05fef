// Repair-and-survive durability: mirrored log metadata, the background
// scrubber, and degraded-mode recovery (SystemConfig::log_mirror and
// scrub_interval_ns).
//
// The randomized side of this surface is crashfuzz --mirror 1; these tests
// pin the deterministic edges: single-copy faults healing from the
// replica, double-copy faults surfacing as reported (never silent) loss,
// crashes landing mid-repair and mid-scrub, and the abort-backoff clamp.
#include <gtest/gtest.h>

#include <stdexcept>

#include "ptm/orec.h"
#include "ptm/redo_log.h"
#include "ptm/runtime.h"
#include "ptm/scrub.h"
#include "test_common.h"
#include "util/crc32.h"
#include "workloads/btree_micro.h"
#include "workloads/driver.h"

namespace {

struct Root {
  uint64_t cells[256];
};

nvm::SystemConfig mirror_cfg(nvm::Domain domain = nvm::Domain::kAdr) {
  auto cfg = test::crash_cfg(domain);
  cfg.log_mirror = true;
  return cfg;
}

// Seal a hand-crafted slot: whole-log CRC over the first `n` records, then
// the header CRC, then copy the full image plus records to the mirror.
void seal_and_replicate(ptm::SlotLayout& slot, uint64_t n) {
  uint32_t lc = 0;
  for (uint64_t i = 0; i < n; i++) {
    lc = util::crc32c_u64(slot.log[i].val, util::crc32c_u64(slot.log[i].off, lc));
  }
  slot.header->pad[ptm::SlotLayout::kLogCrcPad] = lc;
  slot.header->pad[ptm::SlotLayout::kHdrCrcPad] = ptm::slot_header_crc(*slot.header);
  *slot.header_copy(ptm::SlotLayout::kReplica) = *slot.header;
  for (uint64_t i = 0; i < n; i++) slot.log_copy(ptm::SlotLayout::kReplica)[i] = slot.log[i];
}

// ---------------------------------------------------------------------------
// Single-copy damage: the replica both supplies the data and rewrites the
// primary in place.

TEST(MirrorRecovery, PoisonedHeaderLineIsRepairedFromMirrorAndReplayed) {
  auto cfg = mirror_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<Root>();
  root->cells[0] = 111;

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes(),
                                     /*mirror=*/true);
  const uint64_t epoch = 5;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  slot.log[0].val = 999;
  slot.log[0].off =
      ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, pool.offset_of(&root->cells[0])), 999);
  seal_and_replicate(slot, 1);

  pool.mem().inject_media_fault(pool.mem().line_of(slot.header));
  const auto rep = rt.recover(ctx);

  // Without the mirror this is exactly MediaFault.PoisonedHeaderLine...:
  // the slot's log is refused wholesale. With it, the replica header
  // carries the commit and the log replays.
  EXPECT_EQ(root->cells[0], 999u) << "commit behind a repaired header not replayed";
  EXPECT_EQ(rep.records_replayed, 1u);
  EXPECT_GE(rep.records_damaged, 1u);
  EXPECT_GE(rep.records_repaired, 1u);
  EXPECT_EQ(rep.records_lost, 0u);
  EXPECT_TRUE(rep.mirror_enabled);
  EXPECT_EQ(rep.log_crc_mismatches, 0u);
  EXPECT_FALSE(pool.mem().media_faulted(slot.header, sizeof(ptm::TxSlotHeader)))
      << "repair must retire the media fault after rewriting the line";
  EXPECT_FALSE(rt.degraded().degraded);

  rt.run(ctx, [&](ptm::Tx& tx) { tx.write(&root->cells[1], uint64_t{7}); });
  EXPECT_EQ(root->cells[1], 7u);
}

TEST(MirrorRecovery, PoisonedRecordLineIsRepairedAndEveryRecordReplays) {
  auto cfg = mirror_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<Root>();
  for (int i = 0; i < 8; i++) root->cells[i] = 111;

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes(),
                                     /*mirror=*/true);
  const uint64_t epoch = 5;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 5;
  for (uint64_t i = 0; i < 5; i++) {
    const uint64_t off = pool.offset_of(&root->cells[i]);
    slot.log[i].off = ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, off), 500 + i);
    slot.log[i].val = 500 + i;
  }
  seal_and_replicate(slot, 5);

  pool.mem().inject_media_fault(pool.mem().line_of(&slot.log[0]));
  uint64_t poisoned = 0;
  for (uint64_t i = 0; i < 5; i++) {
    if (pool.mem().media_faulted(&slot.log[i], sizeof(ptm::LogEntry))) poisoned++;
  }
  ASSERT_GE(poisoned, 1u);

  const auto rep = rt.recover(ctx);
  // The unmirrored twin of this test (MediaFault.PoisonedRecordLine...)
  // loses the poisoned records; here every one replays from its replica.
  EXPECT_EQ(rep.records_replayed, 5u);
  EXPECT_EQ(rep.records_media_faulted, poisoned);
  EXPECT_GE(rep.records_repaired, poisoned);
  EXPECT_EQ(rep.records_lost, 0u);
  EXPECT_EQ(rep.log_crc_mismatches, 0u)
      << "whole-log CRC must be checked against the repaired records";
  for (uint64_t i = 0; i < 5; i++) {
    EXPECT_EQ(root->cells[i], 500 + i) << "record " << i << " not applied";
  }
  EXPECT_FALSE(pool.mem().media_faulted(&slot.log[0], nvm::Memory::kLineBytes))
      << "record-granular repairs must retire the line's fault at the end";
}

// ---------------------------------------------------------------------------
// Double-copy damage: reported loss and quarantine.

TEST(MirrorRecovery, BothCopiesPoisonedSalvageQuarantinesAndReports) {
  auto cfg = mirror_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  auto* root = pool.root<Root>();
  root->cells[0] = 111;

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes(),
                                     /*mirror=*/true);
  const uint64_t epoch = 5;
  // The record targets the allocator heap (quarantine is heap-scoped): the
  // word under a lost redo record may hold a partial write-back.
  const uint64_t heap_off = pool.header()->heap_off;
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kCommitted);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecLazy);
  slot.header->log_count = 1;
  slot.log[0].val = 999;
  slot.log[0].off = ptm::LogEntry::seal(ptm::LogEntry::pack(epoch, heap_off), 999);
  seal_and_replicate(slot, 1);

  pool.mem().inject_media_fault(pool.mem().line_of(&slot.log[0]));
  pool.mem().inject_media_fault(pool.mem().line_of(slot.log_copy(ptm::SlotLayout::kReplica)));

  const auto rep = rt.recover(ctx);
  EXPECT_EQ(rep.records_replayed, 0u);
  EXPECT_EQ(rep.records_lost, 1u);
  const auto& deg = rt.degraded();
  EXPECT_TRUE(deg.degraded);
  EXPECT_EQ(deg.lost_records, 1u);
  EXPECT_EQ(deg.lost_txs, 1u);
  EXPECT_GE(deg.quarantined_bytes, 64u) << "lost record's home line not quarantined";
  EXPECT_TRUE(rt.allocator().is_quarantined(pool.at(heap_off), 8));

  // Degraded, not dead: the runtime stays usable.
  pool.mem().clear_media_faults();
  rt.run(ctx, [&](ptm::Tx& tx) { tx.write(&root->cells[1], uint64_t{7}); });
  EXPECT_EQ(root->cells[1], 7u);
}

// ---------------------------------------------------------------------------
// Crash-at-every-event sweeps over the repair paths themselves.

TEST(MirrorRecovery, CrashDuringHeaderRepairIsSafe) {
  for (const uint64_t k : {1ull, 2ull, 3ull, 5ull, 8ull, 13ull, 21ull, 34ull}) {
    fault::CrashHarness h(mirror_cfg(), ptm::Algo::kOrecLazy);
    auto* root = h.pool.root<Root>();
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < 16; i++) tx.write(&root->cells[i], static_cast<uint64_t>(100 + i));
    });

    // Rot the (sealed, quiesced) primary header; the first recovery's
    // mirror repair is then interrupted at event k. Whatever state the
    // crash leaves, the second recovery must finish the job with nothing
    // lost: the repair order (rewrite durably, then retire the fault)
    // makes a half-done repair indistinguishable from no repair.
    auto slot = ptm::SlotLayout::carve(h.pool.worker_meta(0), h.pool.worker_meta_bytes(),
                                       /*mirror=*/true);
    h.pool.mem().inject_media_fault(h.pool.mem().line_of(slot.header));
    const fault::Trial t = h.trial({.power_at = k}, k * 13 + 1, [&] { h.rt.recover(h.ctx); },
                                   {.media = true});
    EXPECT_TRUE(t.ok()) << "crash point " << k << ": " << t.failure;
    // The poison hit the header, which the mirror repairs: no record and
    // no committed log may count as damaged.
    EXPECT_EQ(h.report.records_media_faulted, 0u) << "crash point " << k;
    EXPECT_EQ(h.report.log_crc_mismatches, 0u) << "crash point " << k;
    for (int i = 0; i < 16; i++) {
      EXPECT_EQ(root->cells[i], 100u + i) << "crash point " << k;
    }
  }
}

TEST(Scrub, CrashDuringScrubRepairIsSafe) {
  for (const uint64_t k : {1ull, 2ull, 4ull, 7ull, 11ull, 16ull, 25ull}) {
    fault::CrashHarness h(mirror_cfg(), ptm::Algo::kOrecEager);
    auto* root = h.pool.root<Root>();
    h.rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < 16; i++) tx.write(&root->cells[i], static_cast<uint64_t>(200 + i));
    });

    auto slot = ptm::SlotLayout::carve(h.pool.worker_meta(0), h.pool.worker_meta_bytes(),
                                       /*mirror=*/true);
    h.pool.mem().inject_media_fault(h.pool.mem().line_of(slot.header));
    ptm::Scrubber scrub(h.rt);
    const fault::Trial t = h.trial({.power_at = k}, k * 7 + 5, [&] { scrub.run_pass(h.ctx); },
                                   {.media = true});
    EXPECT_TRUE(t.ok()) << "crash point " << k << ": " << t.failure;
    EXPECT_EQ(h.report.records_media_faulted, 0u) << "crash point " << k;
    EXPECT_EQ(h.report.log_crc_mismatches, 0u) << "crash point " << k;
  }
}

// ---------------------------------------------------------------------------
// The scrubber's steady-state behaviours.

TEST(Scrub, LatentHeaderFaultIsDetectedAndRepairedFromMirror) {
  auto cfg = mirror_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  rt.recover(ctx);  // quiesce: every slot header sealed, both copies

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes(),
                                     /*mirror=*/true);
  // A latent fault: armed now, due immediately — the line rots *after* its
  // last persist, which is exactly the window recovery alone cannot see.
  pool.mem().arm_media_fault_at(pool.mem().line_of(slot.header), 0);
  EXPECT_EQ(pool.mem().armed_media_fault_count(), 1u);

  ptm::Scrubber scrub(rt);
  scrub.run_pass(ctx);

  const auto& s = scrub.stats();
  EXPECT_TRUE(s.enabled);
  EXPECT_EQ(s.passes, 1u);
  EXPECT_GT(s.lines_scanned, 0u);
  EXPECT_GE(s.media_faults_found, 1u);
  EXPECT_GE(s.repaired, 1u);
  EXPECT_GE(s.header_repairs, 1u);
  EXPECT_EQ(s.unrepairable, 0u);
  EXPECT_FALSE(pool.mem().media_faulted(slot.header, sizeof(ptm::TxSlotHeader)));
  EXPECT_EQ(pool.mem().armed_media_fault_count(), 0u) << "armed fault not activated";
}

TEST(Scrub, FaultWithoutMirrorIsSurfacedAsUnrepairable) {
  auto cfg = test::crash_cfg();  // log_mirror off
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  rt.recover(ctx);

  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes());
  pool.mem().inject_media_fault(pool.mem().line_of(slot.header));

  ptm::Scrubber scrub(rt);
  scrub.run_pass(ctx);
  EXPECT_GE(scrub.stats().media_faults_found, 1u);
  EXPECT_GE(scrub.stats().unrepairable, 1u);
  EXPECT_EQ(scrub.stats().repaired, 0u);
  // Detect-only: the wreck is left for recovery's loss accounting.
  EXPECT_TRUE(pool.mem().media_faulted(slot.header, sizeof(ptm::TxSlotHeader)));
  pool.mem().clear_media_faults();
}

TEST(Scrub, BusySlotsAreSkippedWholesale) {
  auto cfg = mirror_cfg();
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, 4);
  rt.recover(ctx);

  // Fake an in-flight transaction on worker 2: the scrubber must not
  // second-guess a live slot's mid-batch log state.
  auto slot = ptm::SlotLayout::carve(pool.worker_meta(2), pool.worker_meta_bytes(),
                                     /*mirror=*/true);
  const uint64_t epoch = ptm::TxSlotHeader::epoch_of(slot.header->status);
  slot.header->status = ptm::TxSlotHeader::make(epoch, ptm::TxSlotHeader::kActive);

  ptm::Scrubber scrub(rt);
  scrub.run_pass(ctx);
  EXPECT_GE(scrub.stats().skipped_busy, 1u);
  EXPECT_EQ(scrub.stats().media_faults_found, 0u);
}

TEST(Scrub, DriverRunsScrubFiberAndReportsStats) {
  // End-to-end through workloads::run_point: a scrub fiber patrols at the
  // configured cadence alongside the workers and the run terminates.
  workloads::BTreeMicroParams bp;
  bp.insert_only = true;
  workloads::RunPoint p;
  p.sys.domain = nvm::Domain::kAdr;
  p.sys.media = nvm::Media::kOptane;
  p.sys.crash_sim = true;
  p.sys.log_mirror = true;
  p.sys.scrub_interval_ns = 100000;  // aggressive cadence for a short run
  p.sys.l3_bytes = 1ull << 20;
  p.algo = ptm::Algo::kOrecLazy;
  p.threads = 2;
  p.ops_per_thread = 120;
  p.seed = 11;
  const auto r = workloads::run_point(workloads::btree_micro_factory(bp), p);
  EXPECT_TRUE(r.scrub.enabled);
  EXPECT_GE(r.scrub.passes, 1u);
  EXPECT_GT(r.scrub.lines_scanned, 0u);
  EXPECT_EQ(r.scrub.media_faults_found, 0u) << "phantom fault on a healthy pool";
  EXPECT_EQ(r.scrub.unrepairable, 0u);
  EXPECT_TRUE(r.recovery.mirror_enabled);
  EXPECT_GT(r.totals.commits, 0u);
}

// ---------------------------------------------------------------------------
// Mirrored overflow segments: a segment header copies the slot layout
// (primary line, then its replica), so a damaged primary heals from the
// replica instead of truncating the chain.

constexpr size_t kMirrorMicroMeta = 5120;  // 28 base-log records per copy
constexpr uint64_t kGrowWords = 60;        // 28 -> 56 -> 112: two growths

nvm::SystemConfig grown_cfg() {
  auto cfg = mirror_cfg();
  cfg.per_worker_meta_bytes = kMirrorMicroMeta;
  return cfg;
}

uint64_t* grow_words(nvm::Pool& pool) {
  return reinterpret_cast<uint64_t*>(pool.heap_base() + pool.heap_bytes() / 2);
}

// Commit `base + i` to every grow word as one transaction on worker 0.
void commit_grow_words(ptm::Runtime& rt, sim::ExecContext& ctx, uint64_t* words,
                       uint64_t base) {
  rt.run(ctx, [&](ptm::Tx& tx) {
    for (uint64_t i = 0; i < kGrowWords; i++) tx.write(&words[i], base + i);
  });
}

// Worker 0's slot with its overflow chain attached.
ptm::SlotLayout attached_slot(nvm::Pool& pool) {
  auto slot = ptm::SlotLayout::carve(pool.worker_meta(0), pool.worker_meta_bytes(),
                                     /*mirror=*/true);
  slot.attach_segments(pool);
  return slot;
}

TEST(MirrorSegments, PoisonedSegmentHeaderIsRepairedByRecovery) {
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    auto cfg = grown_cfg();
    nvm::Pool pool(cfg);
    ptm::Runtime rt(pool, algo);
    sim::RealContext ctx(0, cfg.max_workers);
    rt.recover(ctx);
    uint64_t* words = grow_words(pool);
    commit_grow_words(rt, ctx, words, 1000);
    ASSERT_EQ(stats::aggregate(rt.snapshot_counters()).log_growths, 2u);

    const auto slot = attached_slot(pool);
    ASSERT_EQ(slot.segs.size(), 2u);
    ASSERT_NE(slot.segs[0]->flags & ptm::LogSegment::kFlagMirrored, 0u);
    pool.mem().inject_media_fault(pool.mem().line_of(slot.segs[0]));

    const auto rep = rt.recover(ctx);
    EXPECT_EQ(rep.segment_links_truncated, 0u) << ptm::algo_suffix(algo);
    EXPECT_GE(rep.records_repaired, 1u) << ptm::algo_suffix(algo);
    EXPECT_EQ(rep.records_lost, 0u) << ptm::algo_suffix(algo);
    EXPECT_FALSE(pool.mem().media_faulted(slot.segs[0], sizeof(ptm::LogSegment)))
        << ptm::algo_suffix(algo) << ": repair must retire the segment header's fault";
    for (uint64_t i = 0; i < kGrowWords; i++) {
      ASSERT_EQ(words[i], 1000 + i) << ptm::algo_suffix(algo) << " word " << i;
    }

    // The chain survived whole: the same footprint commits without growing.
    rt.reset_counters();
    commit_grow_words(rt, ctx, words, 2000);
    EXPECT_EQ(stats::aggregate(rt.snapshot_counters()).log_growths, 0u)
        << ptm::algo_suffix(algo);
    for (uint64_t i = 0; i < kGrowWords; i++) ASSERT_EQ(words[i], 2000 + i);
  }
}

TEST(MirrorSegments, PoisonedSegmentHeaderIsRepairedByScrub) {
  for (ptm::Algo algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    auto cfg = grown_cfg();
    nvm::Pool pool(cfg);
    ptm::Runtime rt(pool, algo);
    sim::RealContext ctx(0, cfg.max_workers);
    rt.recover(ctx);
    uint64_t* words = grow_words(pool);
    commit_grow_words(rt, ctx, words, 1000);

    const auto slot = attached_slot(pool);
    ASSERT_EQ(slot.segs.size(), 2u);
    pool.mem().inject_media_fault(pool.mem().line_of(slot.segs[0]));

    ptm::Scrubber scrub(rt);
    scrub.run_pass(ctx);
    const auto& s = scrub.stats();
    EXPECT_GE(s.header_repairs, 1u) << ptm::algo_suffix(algo);
    EXPECT_GE(s.repaired, 1u) << ptm::algo_suffix(algo);
    EXPECT_EQ(s.unrepairable, 0u) << ptm::algo_suffix(algo);
    EXPECT_FALSE(pool.mem().media_faulted(slot.segs[0], sizeof(ptm::LogSegment)))
        << ptm::algo_suffix(algo) << ": scrub must retire the segment header's fault";

    // Nothing is left for recovery: the chain walks whole, no repair runs.
    const auto rep = rt.recover(ctx);
    EXPECT_EQ(rep.segment_links_truncated, 0u) << ptm::algo_suffix(algo);
    EXPECT_EQ(rep.records_repaired, 0u) << ptm::algo_suffix(algo);
    EXPECT_EQ(rep.records_lost, 0u) << ptm::algo_suffix(algo);
    for (uint64_t i = 0; i < kGrowWords; i++) {
      ASSERT_EQ(words[i], 1000 + i) << ptm::algo_suffix(algo) << " word " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Slot sizing: a slot must hold every copy's header and alloc log plus one
// record per copy, or the runtime refuses to build on it.

TEST(MirrorLayout, CarveRejectsASlotWithoutRoomForOneRecordPerCopy) {
  // Per copy: a 64-byte header and a 256-word alloc log.
  constexpr size_t kFixed = sizeof(ptm::TxSlotHeader) + 256 * sizeof(uint64_t);
  alignas(64) static char slot[2 * (kFixed + sizeof(ptm::LogEntry))];
  for (const bool mirror : {false, true}) {
    const size_t copies = mirror ? 2 : 1;
    const size_t need = copies * (kFixed + sizeof(ptm::LogEntry));
    const auto l = ptm::SlotLayout::carve(slot, need, mirror);
    EXPECT_EQ(l.copies, copies);
    EXPECT_EQ(l.log_capacity, 1u);
    EXPECT_THROW(ptm::SlotLayout::carve(slot, need - 1, mirror), std::invalid_argument);
  }
}

TEST(MirrorLayout, UndersizedMirroredSlotIsRejectedBeforeAnyTransaction) {
  // 2560 bytes hold a 28-record log unmirrored, but not two copies of the
  // slot's fixed part: the runtime must refuse the configuration instead
  // of carving a log past the slot's end.
  auto cfg = mirror_cfg();
  cfg.per_worker_meta_bytes = 2560;
  nvm::Pool pool(cfg);
  sim::RealContext ctx(0, cfg.max_workers);
  auto* root = pool.root<Root>();
  EXPECT_THROW(
      {
        ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
        rt.recover(ctx);
        rt.run(ctx, [&](ptm::Tx& tx) { tx.write(&root->cells[0], uint64_t{1}); });
      },
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Abort backoff: the draw is clamped to at least one backoff_base_ns, so
// two conflicting workers can never retry at the same simulated instant.

TEST(Backoff, AbortBackoffNeverCollapsesBelowBase) {
  auto cfg = test::small_cfg();
  cfg.cost.backoff_base_ns = 1000000.0;  // dwarfs every other cost in the loop
  test::Fixture fx(cfg);
  auto* root = fx.pool.root<Root>();
  auto& orec = fx.rt.orecs().for_addr(&root->cells[0]);

  // 30 single-abort transactions: the first attempt finds the orec locked
  // by another worker and aborts; the retry finds it free and commits.
  // Under the pre-clamp draw (uniform over [0, 2*base]) at least one of 30
  // backoffs would land below base with probability ~1 - 2^-30.
  for (int trial = 0; trial < 30; trial++) {
    int attempt = 0;
    uint64_t t_abort = 0, t_retry = 0;
    fx.rt.run(fx.ctx, [&](ptm::Tx& tx) {
      if (attempt++ == 0) {
        orec.store(ptm::OrecTable::lock_word(3), std::memory_order_release);
        t_abort = fx.ctx.now_ns();
        tx.read(&root->cells[0]);  // locked by "worker 3" → conflict abort
        ADD_FAILURE() << "read of a locked orec did not abort";
      } else {
        t_retry = fx.ctx.now_ns();
        orec.store(ptm::OrecTable::version_word(0), std::memory_order_release);
        tx.read(&root->cells[0]);
      }
    });
    ASSERT_EQ(attempt, 2) << "trial " << trial;
    EXPECT_GE(t_retry - t_abort, 1000000u)
        << "trial " << trial << ": backoff collapsed below backoff_base_ns";
  }
}

}  // namespace
