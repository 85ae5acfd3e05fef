// Memory-system model behaviours that the figure benches rely on:
// bandwidth saturation knees, PDRAM directory routing, virtual-payload
// modelling, prewarm, WPQ backpressure, and no modelled cost outside the
// discrete-event engine.
#include <gtest/gtest.h>

#include "nvm/pool.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

// Sweep N workers, each issuing `per_worker` strided pmem loads; returns
// aggregate simulated throughput (lines/us).
double read_throughput(nvm::Media media, int workers) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, media);
  cfg.l3_bytes = 16 << 10;  // effectively always miss
  cfg.max_workers = 33;
  nvm::Pool pool(cfg);
  sim::Engine e(workers);
  constexpr int kPer = 1500;
  e.run([&](sim::ExecContext& ctx) {
    const auto base = static_cast<uint64_t>(ctx.worker_id()) * (512 << 10);
    for (int i = 0; i < kPer; i++) {
      auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + base + (i * 64) % (256 << 10));
      pool.mem().load_word(ctx, nullptr, w, nvm::Space::kData);
    }
  });
  return static_cast<double>(workers) * kPer * 1e3 / static_cast<double>(e.elapsed_ns());
}

TEST(Saturation, OptaneReadsSaturateEarlierThanDram) {
  // Per [46]/the paper: Optane read bandwidth saturates around 17 reader
  // threads while DRAM keeps scaling. Measure the 32-vs-4-worker scaling.
  const double optane_scaling = read_throughput(nvm::Media::kOptane, 32) /
                                read_throughput(nvm::Media::kOptane, 4);
  const double dram_scaling = read_throughput(nvm::Media::kDram, 32) /
                              read_throughput(nvm::Media::kDram, 4);
  EXPECT_LT(optane_scaling, dram_scaling);
  EXPECT_GT(dram_scaling, 6.0);    // DRAM still ~linear at 32 readers
  EXPECT_LT(optane_scaling, 6.0);  // Optane capped near its knee (~17)
}

TEST(Saturation, OptaneWritesSaturateEarlierThanReads) {
  // clwb-driven write streams: 4 writers should already saturate Optane.
  auto write_throughput = [](int workers) {
    auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane);
    cfg.max_workers = 33;
    nvm::Pool pool(cfg);
    sim::Engine e(workers);
    constexpr int kPer = 800;
    e.run([&](sim::ExecContext& ctx) {
      // Write a small, L3-resident stripe so the stream is flush-bound
      // (write-allocate read misses would otherwise dominate the cycle).
      const auto base = static_cast<uint64_t>(ctx.worker_id()) * (16 << 10);
      for (int i = 0; i < kPer; i++) {
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + base + (i % 64) * 64);
        pool.mem().store_word(ctx, nullptr, w, 1, nvm::Space::kData);
        pool.mem().clwb(ctx, nullptr, w);
        pool.mem().sfence(ctx, nullptr);
      }
    });
    return static_cast<double>(workers) * kPer * 1e3 / static_cast<double>(e.elapsed_ns());
  };
  const double w8_vs_w2 = write_throughput(8) / write_throughput(2);
  EXPECT_LT(w8_vs_w2, 3.0);  // nowhere near the 4x of linear scaling
}

TEST(Pdram, DirectoryHitCostsDramNotOptane) {
  auto cfg = test::small_cfg(nvm::Domain::kPdram, nvm::Media::kOptane);
  cfg.l3_bytes = 16 << 10;
  cfg.dram_cache_bytes = 64 << 20;  // directory holds the whole pool
  nvm::Pool pool(cfg);
  pool.mem().prewarm_directory(0, pool.size() / 64);

  stats::TxCounters c;
  sim::Engine e(1);
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 1000; i++) {
      auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + (i * 64) % (4 << 20));
      pool.mem().load_word(ctx, &c, w, nvm::Space::kData);
    }
  });
  EXPECT_EQ(c.dram_cache_misses, 0u);  // prewarmed
  EXPECT_EQ(c.dram_cache_hits, c.l3_misses);
  // Mean per-access cost is DRAM-scale (<120ns), not Optane-scale (>240).
  EXPECT_LT(e.elapsed_ns() / 1000, 120u);
}

TEST(Pdram, ColdDirectoryPaysOptaneFetch) {
  auto cfg = test::small_cfg(nvm::Domain::kPdram, nvm::Media::kOptane);
  cfg.l3_bytes = 16 << 10;
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  sim::Engine e(1);
  e.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < 500; i++) {
      auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + i * 64);
      pool.mem().load_word(ctx, &c, w, nvm::Space::kData);
    }
  });
  EXPECT_EQ(c.dram_cache_misses, 500u);
  EXPECT_GT(e.elapsed_ns() / 500, 240u);
}

TEST(Pdram, PrewarmIsNoOpForOtherDomains) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  pool.mem().prewarm_directory(0, 1000);  // must be harmless
  stats::TxCounters c;
  sim::Engine e(1);
  e.run([&](sim::ExecContext& ctx) {
    pool.mem().load_word(ctx, &c, reinterpret_cast<uint64_t*>(pool.heap_base()),
                         nvm::Space::kData);
  });
  EXPECT_EQ(c.dram_cache_hits, 0u);
}

TEST(PdramLite, LogAccessesCostDramDataCostsOptane) {
  auto cfg = test::small_cfg(nvm::Domain::kPdramLite, nvm::Media::kOptane);
  cfg.l3_bytes = 16 << 10;
  nvm::Pool pool(cfg);

  auto time_loads = [&](char* base, nvm::Space space) {
    sim::Engine e(1);
    e.run([&](sim::ExecContext& ctx) {
      for (int i = 0; i < 500; i++) {
        auto* w = reinterpret_cast<uint64_t*>(base + (i * 64) % (64 << 10));
        pool.mem().load_word(ctx, nullptr, w, space);
      }
    });
    return e.elapsed_ns();
  };
  const uint64_t log_time = time_loads(pool.worker_meta(0), nvm::Space::kLog);
  // Use a heap region disjoint in cache sets from the log region.
  const uint64_t data_time = time_loads(pool.heap_base() + (1 << 20), nvm::Space::kData);
  EXPECT_LT(log_time * 2, data_time);  // DRAM log ~3x cheaper than Optane data
}

TEST(VirtualLines, BehaveLikeRealLinesInTheModel) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  cfg.l3_bytes = 1 << 20;
  nvm::Pool pool(cfg);
  const uint64_t base = pool.mem().virtual_line_base();
  stats::TxCounters c;
  sim::Engine e(1);
  e.run([&](sim::ExecContext& ctx) {
    pool.mem().touch_lines(ctx, &c, base, 64, false, nvm::Space::kData);  // cold
    pool.mem().touch_lines(ctx, &c, base, 64, false, nvm::Space::kData);  // hot
  });
  EXPECT_EQ(c.l3_misses, 64u);
  EXPECT_EQ(c.l3_hits, 64u);
}

TEST(Wpq, BackpressureStallsRecordedInCounters) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane);
  cfg.cost.wpq_capacity = 4;  // tiny queue: bursts must stall
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  sim::Engine e(1);
  e.run([&](sim::ExecContext& ctx) {
    // Tight clwb burst (no intervening store misses): enqueue rate beats
    // the drain rate, so the 4-deep queue must backpressure.
    for (int i = 0; i < 64; i++) {
      pool.mem().clwb(ctx, &c, pool.heap_base() + i * 64);
    }
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_GT(c.wpq_stall_ns, 0u);
  EXPECT_GT(c.fence_wait_ns, 0u);
}

TEST(MemoryModel, RealContextChargesNoModelTime) {
  // Population, recovery and the real-thread tests run on a RealContext:
  // the accesses execute and are counted, but none is modelled, so the
  // clock stays at zero and no bandwidth channel is ever requested.
  nvm::Pool pool(nvm::SystemConfig{});  // Optane, ADR
  nvm::Memory& mem = pool.mem();
  sim::RealContext ctx;
  stats::TxCounters c;
  auto* words = reinterpret_cast<uint64_t*>(pool.heap_base());
  for (int i = 0; i < 64; i++) {
    mem.store_word(ctx, &c, words + 8 * i, 1, nvm::Space::kData);
    mem.clwb(ctx, &c, words + 8 * i);
  }
  mem.sfence(ctx, &c);
  EXPECT_EQ(mem.load_word(ctx, &c, words, nvm::Space::kData), 1u);
  mem.touch_lines(ctx, &c, mem.virtual_line_base(), 16, /*is_write=*/true, nvm::Space::kData);
  mem.persist_lines(ctx, &c, mem.virtual_line_base(), 16);
  mem.sfence(ctx, &c);

  EXPECT_EQ(ctx.now_ns(), 0u);
  EXPECT_EQ(mem.channel_requests(), 0u);
  EXPECT_EQ(c.pmem_loads, 1u);
  EXPECT_EQ(c.pmem_stores, 64u + 16u);
  EXPECT_EQ(c.clwbs, 64u + 16u);
  EXPECT_EQ(c.sfences, 2u);
}

}  // namespace
