// Capacity-overflow behavior: log / write-set exhaustion must be a
// *recoverable* abort — the runtime grows the exhausted resource (overflow
// log segments, write-index doubling) and retries — never a terminal error
// that strands locked orecs or leaks allocations. Where growth is
// impossible (alloc log, chain ceiling), the failure must surface as a
// clean ptm::CapacityError after full rollback.
//
// Includes the deterministic crash sweep over a two-segment overflow
// commit: a crash injected at *every* persistence event of such a commit
// must recover to linearizable durability under all four domains.
#include <gtest/gtest.h>

#include <vector>

#include "ptm/runtime.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

// Base-log capacity per per_worker_meta_bytes M: (M - 64 - 2048) / 16.
constexpr size_t kTinyMeta = 1ull << 12;  // -> 124 base log entries
constexpr size_t kMicroMeta = 2560;       // -> 28 base log entries
// Mirrored, every region has two copies: (M - 2 * (64 + 2048)) / 32.
constexpr size_t kMirrorMicroMeta = 5120;  // -> 28 base log entries per copy

nvm::SystemConfig tiny_cfg(nvm::Domain domain, bool crash_sim = false) {
  auto cfg = test::small_cfg(domain, nvm::Media::kOptane, crash_sim);
  cfg.pool_size = 8ull << 20;
  cfg.max_workers = 4;
  cfg.per_worker_meta_bytes = kTinyMeta;
  return cfg;
}

// Raw heap region for direct transactional writes, placed at mid-heap:
// overflow log segments bump-allocate from the heap *start*, so a test
// writing at heap_base() would scribble over its own grown log.
uint64_t* scratch_region(nvm::Pool& pool) {
  return reinterpret_cast<uint64_t*>(pool.heap_base() + pool.heap_bytes() / 2);
}

void expect_no_orec_locked(ptm::Runtime& rt) {
  for (size_t i = 0; i < ptm::OrecTable::kNumOrecs; i++) {
    ASSERT_FALSE(ptm::OrecTable::is_locked(rt.orecs().at(i).load(std::memory_order_relaxed)))
        << "orec " << i << " left locked after overflow handling";
  }
}

struct AlgoParam {
  ptm::Algo algo;
};

std::string algo_param_name(const ::testing::TestParamInfo<AlgoParam>& info) {
  return info.param.algo == ptm::Algo::kOrecLazy ? "redo" : "undo";
}

class OverflowTest : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(OverflowTest, WriteLogOverflowGrowsAndCommits) {
  auto cfg = tiny_cfg(nvm::Domain::kEadr);
  nvm::Pool pool(cfg);
  sim::RealContext ctx(0, cfg.max_workers);
  constexpr uint64_t kWords = 300;  // 124 -> 248 -> 496: exactly two growths
  uint64_t* heap = scratch_region(pool);
  {
    ptm::Runtime rt(pool, GetParam().algo);
    rt.run(ctx, [&](ptm::Tx& tx) {
      for (uint64_t i = 0; i < kWords; i++) tx.write(&heap[i], i + 1);
    });
    for (uint64_t i = 0; i < kWords; i++) ASSERT_EQ(heap[i], i + 1);

    const auto totals = stats::aggregate(rt.snapshot_counters());
    EXPECT_EQ(totals.commits, 1u);
    EXPECT_EQ(totals.aborts_of(stats::AbortCause::kCapacity), 2u);
    EXPECT_EQ(totals.log_growths, 2u);
    expect_no_orec_locked(rt);

    // The grown capacity is retained: a second large transaction fits
    // without further growth.
    rt.reset_counters();
    rt.run(ctx, [&](ptm::Tx& tx) {
      for (uint64_t i = 0; i < 340; i++) tx.write(&heap[i], i + 2);
    });
    EXPECT_EQ(stats::aggregate(rt.snapshot_counters())
                  .aborts_of(stats::AbortCause::kCapacity),
              0u);
  }

  // The chain is durable slot state, not process state: a fresh runtime on
  // the same pool reattaches it and also fits the large write set directly.
  ptm::Runtime rt2(pool, GetParam().algo);
  rt2.recover(ctx);
  rt2.run(ctx, [&](ptm::Tx& tx) {
    for (uint64_t i = 0; i < 340; i++) tx.write(&heap[i], i + 3);
  });
  for (uint64_t i = 0; i < 340; i++) ASSERT_EQ(heap[i], i + 3);
  EXPECT_EQ(stats::aggregate(rt2.snapshot_counters())
                .aborts_of(stats::AbortCause::kCapacity),
            0u);
}

TEST_P(OverflowTest, ChainCeilingSurfacesCapacityError) {
  // 28-entry base log, doubling per growth, 8-segment ceiling: total
  // capacity tops out at 28 * 256 = 7168 records.
  auto cfg = tiny_cfg(nvm::Domain::kEadr);
  cfg.per_worker_meta_bytes = kMicroMeta;
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, GetParam().algo);
  sim::RealContext ctx(0, cfg.max_workers);
  uint64_t* heap = scratch_region(pool);

  EXPECT_THROW(rt.run(ctx,
                      [&](ptm::Tx& tx) {
                        for (uint64_t i = 0; i < 8000; i++) tx.write(&heap[i], i);
                      }),
               ptm::CapacityError);
  expect_no_orec_locked(rt);

  // The runtime stays usable; the maximal footprint still commits.
  rt.run(ctx, [&](ptm::Tx& tx) {
    for (uint64_t i = 0; i < 7000; i++) tx.write(&heap[i], i + 1);
  });
  for (uint64_t i = 0; i < 7000; i++) ASSERT_EQ(heap[i], i + 1);
}

TEST_P(OverflowTest, AllocLogOverflowIsCleanAndLeakFree) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, cfg.max_workers);
  auto* root = pool.root<uint64_t>();
  constexpr size_t kCap = 256;  // the fixed alloc-log capacity

  // Warm the free list with kCap blocks so the overflow attempt below can
  // be served entirely from reuse.
  std::vector<void*> blocks(kCap);
  rt.run(ctx, [&](ptm::Tx& tx) {
    for (size_t i = 0; i < kCap; i++) blocks[i] = tx.alloc(64);
  });
  rt.run(ctx, [&](ptm::Tx& tx) {
    for (size_t i = 0; i < kCap; i++) tx.dealloc(blocks[i]);
  });

  const uint64_t hw_before = rt.allocator().high_water_bytes();
  EXPECT_THROW(rt.run(ctx,
                      [&](ptm::Tx& tx) {
                        for (size_t i = 0; i < kCap + 1; i++) (void)tx.alloc(64);
                      }),
               ptm::CapacityError);
  // Leak regression check: the capacity check must run *before* the
  // allocation, so the failing transaction touches exactly the kCap
  // free-list blocks (all returned by rollback) and never bumps the heap.
  EXPECT_EQ(rt.allocator().high_water_bytes(), hw_before);
  const auto totals = stats::aggregate(rt.snapshot_counters());
  EXPECT_EQ(totals.aborts_of(stats::AbortCause::kCapacity), 1u);
  expect_no_orec_locked(rt);

  // Runtime stays usable.
  rt.run(ctx, [&](ptm::Tx& tx) {
    auto* p = static_cast<uint64_t*>(tx.alloc(64));
    tx.write(p, uint64_t{41});
    tx.write(root, uint64_t{42});
  });
  EXPECT_EQ(*root, 42u);
}

TEST_P(OverflowTest, DeallocOverflowAborts) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, GetParam().algo);
  sim::RealContext ctx(0, cfg.max_workers);

  uint64_t* survivor = nullptr;
  rt.run(ctx, [&](ptm::Tx& tx) {
    survivor = static_cast<uint64_t*>(tx.alloc(64));
    tx.write(survivor, uint64_t{7});
  });

  EXPECT_THROW(rt.run(ctx,
                      [&](ptm::Tx& tx) {
                        for (size_t i = 0; i < 256; i++) (void)tx.alloc(64);
                        tx.dealloc(survivor);  // 257th alloc-log record
                      }),
               ptm::CapacityError);
  expect_no_orec_locked(rt);
  // The deferred free never took effect: the block is intact and usable.
  uint64_t got = 0;
  rt.run(ctx, [&](ptm::Tx& tx) { got = tx.read(survivor); });
  EXPECT_EQ(got, 7u);
}

TEST_P(OverflowTest, ConcurrentWorkersOverflowIndependently) {
  // Each DES worker overflows its own slot (disjoint write regions): the
  // chains grow independently and every transaction commits.
  auto cfg = test::small_cfg(nvm::Domain::kAdr);
  cfg.per_worker_meta_bytes = kTinyMeta;
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, GetParam().algo);
  uint64_t* heap = scratch_region(pool);

  constexpr int kWorkers = 4;
  constexpr int kIters = 3;
  constexpr uint64_t kWords = 150;  // one growth per worker (124 -> 248)
  sim::Engine engine(kWorkers);
  engine.run([&](sim::ExecContext& ctx) {
    uint64_t* mine = heap + static_cast<uint64_t>(ctx.worker_id()) * 1024;
    for (int it = 0; it < kIters; it++) {
      rt.run(ctx, [&](ptm::Tx& tx) {
        for (uint64_t i = 0; i < kWords; i++) {
          tx.write(&mine[i], (static_cast<uint64_t>(it) << 32) | i);
        }
      });
    }
  });

  for (int w = 0; w < kWorkers; w++) {
    for (uint64_t i = 0; i < kWords; i++) {
      ASSERT_EQ(heap[static_cast<uint64_t>(w) * 1024 + i],
                (uint64_t{kIters - 1} << 32) | i);
    }
  }
  const auto totals = stats::aggregate(rt.snapshot_counters());
  EXPECT_EQ(totals.commits, static_cast<uint64_t>(kWorkers) * kIters);
  // Exactly one capacity abort per worker: the first transaction grows the
  // chain, later ones reuse it.
  EXPECT_EQ(totals.aborts_of(stats::AbortCause::kCapacity),
            static_cast<uint64_t>(kWorkers));
  EXPECT_EQ(totals.log_growths, static_cast<uint64_t>(kWorkers));
  expect_no_orec_locked(rt);
}

INSTANTIATE_TEST_SUITE_P(Algos, OverflowTest,
                         ::testing::Values(AlgoParam{ptm::Algo::kOrecLazy},
                                           AlgoParam{ptm::Algo::kOrecEager}),
                         algo_param_name);

TEST(WriteIndexOverflow, GrowsAndCommits) {
  // Redo-only path: the DRAM write index (initially 8192 writes) overflows
  // before the persistent log does (default meta: ~16k entries), doubles,
  // and the retry commits.
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  sim::RealContext ctx(0, cfg.max_workers);
  uint64_t* heap = scratch_region(pool);

  constexpr uint64_t kWords = 9000;
  rt.run(ctx, [&](ptm::Tx& tx) {
    for (uint64_t i = 0; i < kWords; i++) tx.write(&heap[i], i + 1);
  });
  for (uint64_t i = 0; i < kWords; i++) ASSERT_EQ(heap[i], i + 1);

  const auto totals = stats::aggregate(rt.snapshot_counters());
  EXPECT_EQ(totals.commits, 1u);
  EXPECT_EQ(totals.aborts_of(stats::AbortCause::kCapacity), 1u);
  EXPECT_EQ(totals.log_growths, 1u);
  expect_no_orec_locked(rt);
}

TEST(EpochWrap, RetirePathQuiescesAndSkipsTagZero) {
  constexpr uint64_t kBoundary = 1ull << 24;  // 24-bit tag space wraps here
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  test::Fixture fx(cfg);
  auto* root = fx.pool.root<uint64_t>();

  fx.rt.debug_set_epoch(fx.ctx, 0, kBoundary - 2);
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{1}); });
  EXPECT_EQ(fx.rt.debug_epoch(0), kBoundary - 1);

  // This retire crosses the wrap: the slot must quiesce and skip tag 0.
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{2}); });
  EXPECT_EQ(fx.rt.debug_epoch(0), kBoundary + 1);
  EXPECT_NE(fx.rt.debug_epoch(0) & ptm::LogEntry::kTagMask, 0u);
  EXPECT_EQ(*root, 2u);

  // Post-wrap transactions run normally.
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{3}); });
  EXPECT_EQ(*root, 3u);
  EXPECT_EQ(fx.rt.debug_epoch(0), kBoundary + 2);
}

TEST(EpochWrap, RecoveryPathQuiescesAndSkipsTagZero) {
  constexpr uint64_t kBoundary = 1ull << 24;
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, true);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, ptm::Algo::kOrecEager);
  sim::RealContext ctx(0, cfg.max_workers);
  auto* root = pool.root<uint64_t>();
  *root = 888;

  // Hand-craft a crashed ACTIVE undo transaction at the last pre-wrap
  // epoch: recovery must roll it back, then advance past tag 0 with a
  // durable log wipe.
  auto slot = ptm::SlotLayout::carve(pool.worker_meta(1), pool.worker_meta_bytes());
  slot.header->status = ptm::TxSlotHeader::make(kBoundary - 1, ptm::TxSlotHeader::kActive);
  slot.header->algo = static_cast<uint64_t>(ptm::Algo::kOrecEager);
  slot.header->log_count = 1;
  slot.log[0].off = ptm::LogEntry::seal(
      ptm::LogEntry::pack(kBoundary - 1, pool.offset_of(root)), 777);
  slot.log[0].val = 777;

  rt.recover(ctx);
  EXPECT_EQ(*root, 777u) << "undo record was not rolled back";
  EXPECT_EQ(ptm::TxSlotHeader::epoch_of(slot.header->status), kBoundary + 1);
  EXPECT_EQ(slot.log[0].off, 0u) << "wrap quiesce did not wipe the log";
  EXPECT_EQ(rt.debug_epoch(1), kBoundary + 1);

  rt.run(ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{5}); });
  EXPECT_EQ(*root, 5u);
}

// ---------------------------------------------------------------------------
// Deterministic crash sweep over a two-segment overflow commit.

struct SweepParam {
  ptm::Algo algo;
  nvm::Domain domain;
  bool mirror = false;
};

std::string sweep_param_name(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string s = ptm::algo_suffix(info.param.algo);
  s += "_";
  s += nvm::domain_name(info.param.domain);
  if (info.param.mirror) s += "_mirror";
  for (auto& ch : s) {
    if (ch == '-') ch = '_';
  }
  return s;
}

class OverflowCrashSweep : public ::testing::TestWithParam<SweepParam> {};

constexpr uint64_t kSweepWords = 60;  // 28 -> 56 -> 112: two growths
constexpr uint64_t kOldBase = 100;
constexpr uint64_t kNewBase = 1000;

// Every trial builds, snapshots and power-fails a whole pool, so the pool
// is no larger than the two-segment commit needs.
nvm::SystemConfig sweep_cfg(const SweepParam& p) {
  auto cfg = test::small_cfg(p.domain, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.pool_size = 2ull << 20;
  cfg.max_workers = 2;
  cfg.log_mirror = p.mirror;
  cfg.per_worker_meta_bytes = p.mirror ? kMirrorMicroMeta : kMicroMeta;
  return cfg;
}

TEST_P(OverflowCrashSweep, EveryPersistenceEventRecoversConsistently) {
  const uint64_t fired = fault::CrashHarness::sweep(
      sweep_cfg(GetParam()), GetParam().algo, [&](fault::CrashHarness& h, uint64_t k) {
        uint64_t* heap = scratch_region(h.pool);
        for (uint64_t i = 0; i < kSweepWords; i++) heap[i] = kOldBase + i;
        const fault::Trial t = h.trial({.power_at = k}, 1234 + k, [&] {
          h.rt.run(h.ctx, [&](ptm::Tx& tx) {
            for (uint64_t i = 0; i < kSweepWords; i++) tx.write(&heap[i], kNewBase + i);
          });
        });
        EXPECT_TRUE(t.ok()) << "event " << k << ": " << t.failure;
        if (!t.fired) {
          // The completed run: the commit must actually have crossed two
          // overflow growths.
          const auto totals = stats::aggregate(h.rt.snapshot_counters());
          EXPECT_EQ(totals.aborts_of(stats::AbortCause::kCapacity), 2u);
          EXPECT_EQ(totals.log_growths, 2u);
        }

        // Linearizable durability: the transaction is all-or-nothing —
        // every word shows the old value, or every word shows the new one.
        const bool first_new = heap[0] == kNewBase;
        for (uint64_t i = 0; i < kSweepWords; i++) {
          EXPECT_EQ(heap[i], (first_new ? kNewBase : kOldBase) + i)
              << "torn state at word " << i << " after crash at event " << k;
        }

        // The recovered pool is fully usable for further transactions.
        h.rt.run(h.ctx, [&](ptm::Tx& tx) {
          for (uint64_t i = 0; i < 3; i++) tx.write(&heap[i], uint64_t{5 + i});
        });
        for (uint64_t i = 0; i < 3; i++) EXPECT_EQ(heap[i], 5 + i);
        return t;
      });
  EXPECT_GT(fired, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AlgoDomainMatrix, OverflowCrashSweep,
    ::testing::Values(SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kAdr},
                      SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kEadr},
                      SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kPdram},
                      SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kPdramLite},
                      SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kAdr},
                      SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kEadr},
                      SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kPdram},
                      SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kPdramLite},
                      // Mirrored: each growth also writes the replica
                      // segment header and tail link, so the sweep
                      // crashes inside those writes too.
                      SweepParam{ptm::Algo::kOrecLazy, nvm::Domain::kAdr, true},
                      SweepParam{ptm::Algo::kOrecEager, nvm::Domain::kAdr, true}),
    sweep_param_name);

}  // namespace
