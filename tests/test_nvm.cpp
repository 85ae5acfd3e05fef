#include <gtest/gtest.h>

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "nvm/cache_model.h"
#include "nvm/channel.h"
#include "nvm/pool.h"
#include "nvm/wpq.h"
#include "sim/engine.h"
#include "test_common.h"
#include "util/rng.h"

// ---------------------------------------------------------------- channel

TEST(Channel, NoWaitWhenIdle) {
  nvm::BandwidthChannel ch;
  auto g = ch.request(1000, 20);
  EXPECT_EQ(g.wait_ns, 0u);
  EXPECT_EQ(g.done_ns, 1020u);
}

TEST(Channel, BackToBackRequestsQueue) {
  nvm::BandwidthChannel ch;
  ch.request(0, 20);
  auto g = ch.request(0, 20);
  EXPECT_EQ(g.wait_ns, 20u);
  EXPECT_EQ(g.done_ns, 40u);
  EXPECT_EQ(ch.backlog_ns(0), 40u);
}

TEST(Channel, IdleGapDrainsBacklog) {
  nvm::BandwidthChannel ch;
  ch.request(0, 20);
  auto g = ch.request(100, 20);
  EXPECT_EQ(g.wait_ns, 0u);
  EXPECT_EQ(ch.backlog_ns(100), 20u);
}

// ---------------------------------------------------------------- wpq

TEST(Wpq, SfenceWaitsForWorkerDrain) {
  nvm::BandwidthChannel ch;
  nvm::Wpq wpq(64, 4);
  const uint64_t done = wpq.enqueue(1, 0, ch, 27.0, 94.0);
  EXPECT_EQ(done, 94u);  // latency floor dominates when idle
  EXPECT_EQ(wpq.worker_drain_ns(1), 94u);
  EXPECT_EQ(wpq.worker_drain_ns(0), 0u);
}

TEST(Wpq, FullQueueForcesStall) {
  nvm::BandwidthChannel ch;
  nvm::Wpq wpq(4, 1);
  for (int i = 0; i < 4; i++) wpq.enqueue(0, 0, ch, 27.0, 94.0);
  // All 4 in flight at t=0: the oldest completes at 94.
  EXPECT_GE(wpq.stall_until_ns(0), 94u);
  // Once the oldest drains, a slot is free.
  EXPECT_EQ(wpq.stall_until_ns(200), 200u);
}

TEST(Wpq, ThroughputBoundedByServiceTime) {
  nvm::BandwidthChannel ch;
  nvm::Wpq wpq(64, 1);
  uint64_t last = 0;
  for (int i = 0; i < 100; i++) last = wpq.enqueue(0, 0, ch, 27.0, 94.0);
  // 100 lines at 27 ns service each: completion ~ 100*27.
  EXPECT_GE(last, 2700u);
  EXPECT_LE(last, 2800u);
}

// ---------------------------------------------------------------- caches

TEST(CacheModel, HitAfterInstall) {
  nvm::CacheModel l3(64 * 1024, 16);
  EXPECT_FALSE(l3.access(5, false).hit);
  EXPECT_TRUE(l3.access(5, false).hit);
}

TEST(CacheModel, LruEvictionWithinSet) {
  nvm::CacheModel l3(4 * 64, 4);  // one set of 4 ways
  ASSERT_EQ(l3.num_sets(), 1u);
  for (uint64_t i = 0; i < 4; i++) l3.access(i, false);
  l3.access(0, false);            // refresh 0; LRU is now 1
  auto r = l3.access(100, true);  // install: evicts 1 (clean -> no wb)
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.evicted_dirty_line, nvm::CacheModel::kNoLine);
  EXPECT_TRUE(l3.access(0, false).hit);
  EXPECT_FALSE(l3.access(1, false).hit);  // got evicted
}

TEST(CacheModel, DirtyEvictionReportsLine) {
  nvm::CacheModel l3(2 * 64, 2);  // one set, 2 ways
  l3.access(1, true);             // dirty
  l3.access(2, false);
  auto r = l3.access(3, false);  // evicts LRU = line 1 (dirty)
  EXPECT_EQ(r.evicted_dirty_line, 1u);
}

TEST(CacheModel, CleanDropsDirtyBit) {
  nvm::CacheModel l3(2 * 64, 2);
  l3.access(1, true);
  EXPECT_TRUE(l3.clean(1));   // was dirty
  EXPECT_FALSE(l3.clean(1));  // now clean
  EXPECT_FALSE(l3.clean(99));  // absent
}

TEST(DramCache, DirectMappedConflict) {
  nvm::CacheModel dir(64 * 8, 1);  // the directory: 8 one-way sets
  EXPECT_FALSE(dir.access(3, true).hit);
  EXPECT_TRUE(dir.access(3, false).hit);
  // 3 and 11 collide (11 % 8 == 3): dirty victim reported.
  auto r = dir.access(11, false);
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.evicted_dirty_line, 3u);
}

namespace {

// The tag model before ways were packed (16-byte ways, a 64-bit LRU tick,
// scalar scans), kept verbatim as the oracle for the packed one.
class RefCacheModel {
 public:
  static constexpr uint64_t kNoLine = ~0ull;

  struct AccessResult {
    bool hit;
    uint64_t evicted_dirty_line;  // kNoLine if none
  };

  RefCacheModel(uint64_t bytes, int ways) : ways_(ways) {
    assert(ways > 0);
    num_sets_ = bytes / 64 / static_cast<uint64_t>(ways);
    if (num_sets_ == 0) num_sets_ = 1;
    ways_store_.assign(num_sets_ * static_cast<uint64_t>(ways_), Way{});
  }

  AccessResult access(uint64_t line, bool is_write) {
    Way* set = set_of(line);
    tick_++;
    const uint64_t dirty = is_write ? 1 : 0;
    // Hit?
    for (int i = 0; i < ways_; i++) {
      if (set[i].tag == line) {
        set[i].stamp = (tick_ << 1) | (set[i].stamp & 1) | dirty;
        return {true, kNoLine};
      }
    }
    // Miss: install over the LRU way (or an invalid one).
    int victim = 0;
    for (int i = 1; i < ways_; i++) {
      if (set[i].tag == kNoLine) {
        victim = i;
        break;
      }
      if (set[i].lru() < set[victim].lru()) victim = i;
    }
    uint64_t evicted = kNoLine;
    if (set[victim].tag != kNoLine && set[victim].dirty()) evicted = set[victim].tag;
    set[victim] = Way{line, (tick_ << 1) | dirty};
    return {false, evicted};
  }

  bool clean(uint64_t line) {
    Way* set = set_of(line);
    for (int i = 0; i < ways_; i++) {
      if (set[i].tag == line) {
        const bool was_dirty = set[i].dirty();
        set[i].stamp &= ~uint64_t{1};
        return was_dirty;
      }
    }
    return false;
  }

  void reset() {
    ways_store_.assign(ways_store_.size(), Way{});
    tick_ = 0;
  }

 private:
  struct Way {
    uint64_t tag = kNoLine;
    uint64_t stamp = 0;  // (lru tick << 1) | dirty

    uint64_t lru() const { return stamp >> 1; }
    bool dirty() const { return (stamp & 1) != 0; }
  };

  int ways_;
  uint64_t num_sets_;
  uint64_t tick_ = 0;
  std::vector<Way> ways_store_;  // num_sets_ * ways_, row-major by set

  Way* set_of(uint64_t line) {
    return &ways_store_[(line % num_sets_) * static_cast<uint64_t>(ways_)];
  }
};

}  // namespace

TEST(CacheModel, MatchesTheReferenceModel) {
  struct Shape {
    uint64_t sets;
    int ways;
  };
  std::vector<Shape> shapes;
  // 3 and 12 ways write their rank bytes back in every chunk size.
  for (const uint64_t sets : {1ull, 3ull, 160ull, 2048ull}) {
    for (const int ways : {1, 2, 3, 4, 8, 12, 16}) shapes.push_back({sets, ways});
  }
  // kv's directory (6 * 2^20 one-way sets), and two ways of that many sets;
  // the reference spends 16 bytes a way, so wider shapes would need GBs.
  shapes.push_back({6ull << 20, 1});
  shapes.push_back({6ull << 20, 2});

  constexpr int kOps = 1'000'000;
  for (const auto& [sets, ways] : shapes) {
    SCOPED_TRACE("sets " + std::to_string(sets) + " ways " + std::to_string(ways));
    nvm::CacheModel model(sets * static_cast<uint64_t>(ways) * 64, ways);
    RefCacheModel ref(sets * static_cast<uint64_t>(ways) * 64, ways);
    ASSERT_EQ(model.num_sets(), sets);
    util::Rng rng(sets * 17 + static_cast<uint64_t>(ways));

    // Lines fall in a few sets (the first, the last and some between) with
    // more tags per set than ways, spread up to the packed-tag limit, so
    // sets fill, hit, evict and reach the 16-lane loads at the array's end.
    const uint64_t top_tag = (model.line_limit() - sets) / sets;  // any set's largest
    std::vector<uint64_t> set_pool = {0, sets - 1};
    for (int i = 0; i < 6; i++) set_pool.push_back(rng.next_bounded(sets));
    std::vector<uint64_t> tag_pool = {0, 1, top_tag, top_tag - 1};
    while (tag_pool.size() < static_cast<size_t>(2 * ways + 3)) {
      tag_pool.push_back(rng.range(0, top_tag));
    }

    uint64_t hits = 0, dirty_evictions = 0, dirty_cleans = 0;
    for (int op = 1; op <= kOps; op++) {
      if (op % (1 << 18) == 0) {
        model.reset();
        ref.reset();
        continue;
      }
      const uint64_t line = tag_pool[rng.next_bounded(tag_pool.size())] * sets +
                            set_pool[rng.next_bounded(set_pool.size())];
      const uint64_t kind = rng.next_bounded(100);
      if (kind < 85) {
        const bool is_write = kind < 40;
        const auto got = model.access(line, is_write);
        const auto want = ref.access(line, is_write);
        ASSERT_EQ(got.hit, want.hit) << "op " << op << " line " << line;
        ASSERT_EQ(got.evicted_dirty_line, want.evicted_dirty_line)
            << "op " << op << " line " << line;
        hits += got.hit;
        dirty_evictions += got.evicted_dirty_line != nvm::CacheModel::kNoLine;
      } else {
        const bool got = model.clean(line);
        ASSERT_EQ(got, ref.clean(line)) << "op " << op << " line " << line;
        dirty_cleans += got;
      }
    }
    // The stream exercised every outcome.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(dirty_evictions, 0u);
    EXPECT_GT(dirty_cleans, 0u);
  }
}

TEST(CacheModel, UnrepresentableLineThrows) {
  // One set: the tag is line + 1, which must fit in 32 bits.
  nvm::CacheModel one(64, 1);
  EXPECT_EQ(one.line_limit(), 0xFFFFFFFFull);
  EXPECT_FALSE(one.access(0xFFFFFFFEull, true).hit);
  EXPECT_TRUE(one.clean(0xFFFFFFFEull));
  EXPECT_THROW(one.access(0xFFFFFFFFull, false), std::out_of_range);
  EXPECT_THROW(one.clean(0xFFFFFFFFull), std::out_of_range);
  EXPECT_THROW(one.access(nvm::CacheModel::kNoLine, false), std::out_of_range);

  // kv's directory: the reciprocal's exact range binds before the tag's.
  nvm::CacheModel dir(384ull << 20, 1);
  ASSERT_EQ(dir.num_sets(), 6ull << 20);
  EXPECT_EQ(dir.line_limit(), (uint64_t{1} << 63) / dir.num_sets());
  const uint64_t last = dir.line_limit() - 1;
  EXPECT_FALSE(dir.access(last, true).hit);
  EXPECT_EQ(dir.access(last % dir.num_sets(), false).evicted_dirty_line, last);
  EXPECT_THROW(dir.access(dir.line_limit(), false), std::out_of_range);

  // Fig 8's 320 GB point reaches line ~3.1e7, far inside both limits.
  EXPECT_GT(nvm::CacheModel(160ull << 10, 16).line_limit(), uint64_t{1} << 32);
  EXPECT_THROW(nvm::CacheModel(1 << 20, 17), std::invalid_argument);
  EXPECT_THROW(nvm::CacheModel(1 << 20, 0), std::invalid_argument);
}

// ---------------------------------------------------------------- pool

TEST(Pool, LayoutIsSane) {
  auto cfg = test::small_cfg();
  nvm::Pool pool(cfg);
  auto* h = pool.header();
  EXPECT_EQ(h->magic, nvm::Pool::kMagic);
  EXPECT_EQ(h->size, cfg.pool_size);
  EXPECT_GT(h->heap_off, h->meta_off);
  EXPECT_GT(pool.heap_bytes(), 1u << 20);
  // Worker meta slots are disjoint.
  EXPECT_EQ(pool.worker_meta(1) - pool.worker_meta(0),
            static_cast<ptrdiff_t>(cfg.per_worker_meta_bytes));
  EXPECT_TRUE(pool.contains(pool.heap_base()));
  EXPECT_FALSE(pool.contains(&cfg));
}

TEST(Pool, OffsetRoundTrip) {
  nvm::Pool pool(test::small_cfg());
  char* p = pool.heap_base() + 1234;
  EXPECT_EQ(pool.at(pool.offset_of(p)), p);
}

TEST(Pool, RootAreaIsStable) {
  nvm::Pool pool(test::small_cfg());
  struct R {
    uint64_t a, b;
  };
  pool.root<R>()->a = 77;
  EXPECT_EQ(pool.root<R>()->a, 77u);
}

namespace {

// Resident set of this process, from /proc/self/statm's second field.
int64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t size_pages = 0, resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * sysconf(_SC_PAGESIZE);
}

// Offset of the first nonzero byte past the header, or pool.size().
size_t first_nonzero_past_header(nvm::Pool& pool) {
  const char* begin = pool.base() + nvm::Pool::kHeaderBytes;
  const char* end = pool.base() + pool.size();
  return static_cast<size_t>(std::find_if(begin, end, [](char c) { return c != 0; }) -
                             pool.base());
}

}  // namespace

TEST(Pool, HostMemoryScalesWithTouchedPages) {
  // Eagerly zeroing this pool and filling a directory eADR never reads
  // would make ~320 MiB resident; only the pages in use should be.
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  cfg.pool_size = 256ull << 20;
  cfg.dram_cache_bytes = 256ull << 20;
  const int64_t before = resident_bytes();
  nvm::Pool pool(cfg);
  EXPECT_LT(resident_bytes() - before, int64_t{32} << 20);
}

TEST(Pool, DirectoryCostsAtMostSixBytesPerSet) {
  // kv's PDRAM-on-Optane directory: 384 MiB of DRAM cache is 6 * 2^20
  // one-way sets. With every set filled it may hold at most 6 bytes each.
  auto cfg = test::small_cfg(nvm::Domain::kPdram);
  cfg.dram_cache_bytes = 384ull << 20;
  const uint64_t sets = cfg.dram_cache_bytes / nvm::Memory::kLineBytes;
  const int64_t before = resident_bytes();
  nvm::Pool pool(cfg);
  pool.mem().prewarm_directory(0, sets);  // one line per set
  EXPECT_LE(resident_bytes() - before, static_cast<int64_t>(6 * sets));
}

TEST(Pool, RuntimeAndRecoverTouchLessThanTheOrecTable) {
  // The orec table is 8 MiB of lock words. Building a runtime and
  // recovering it should make resident only the pages they touch, not
  // clear every orec by hand, twice.
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  nvm::Pool pool(cfg);
  sim::RealContext ctx(0, cfg.max_workers);
  const int64_t before = resident_bytes();
  ptm::Runtime rt(pool, ptm::Algo::kOrecLazy);
  rt.recover(ctx);
  EXPECT_LT(resident_bytes() - before,
            static_cast<int64_t>(ptm::OrecTable::kNumOrecs * sizeof(uint64_t)));
}

TEST(Pool, FreshPoolReadsZero) {
  // Bump-allocated log records and status words rely on a fresh pool
  // reading as zero past its header, however it was zeroed: eagerly
  // (crash_sim) or on demand, and in a block the allocator recycled.
#ifdef __GLIBC__
  // Pools this small then come from the heap rather than a fresh mapping,
  // and a freed block stays in the heap, so the second pool below reuses
  // the dirtied block of the first.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 64 << 20);
#endif
  for (const bool crash_sim : {false, true}) {
    SCOPED_TRACE(crash_sim ? "crash_sim" : "no crash_sim");
    auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, crash_sim);
    cfg.pool_size = (4ull << 20) + 1000;  // ends in a partial page
    {
      nvm::Pool dirty(cfg);
      EXPECT_EQ(first_nonzero_past_header(dirty), dirty.size());
      std::memset(dirty.base() + nvm::Pool::kHeaderBytes, 0xA5,
                  dirty.size() - nvm::Pool::kHeaderBytes);
    }
    nvm::Pool pool(cfg);
    EXPECT_EQ(first_nonzero_past_header(pool), pool.size());
  }
}

// ------------------------------------------------- memory timing (DES)

namespace {

// Run a single DES worker over `body` and return its simulated duration.
uint64_t timed(nvm::Pool& pool, const std::function<void(sim::ExecContext&)>& body) {
  (void)pool;
  sim::Engine e(1);
  e.run(body);
  return e.elapsed_ns();
}

}  // namespace

TEST(MemoryTiming, OptaneLoadSlowerThanDram) {
  auto mk = [](nvm::Media m) {
    auto cfg = test::small_cfg(nvm::Domain::kEadr, m);
    return cfg;
  };
  uint64_t t_dram, t_optane;
  {
    nvm::Pool pool(mk(nvm::Media::kDram));
    t_dram = timed(pool, [&](sim::ExecContext& ctx) {
      for (int i = 0; i < 1000; i++) {
        // Stride by 64 lines so every access misses the small L3.
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + (i * 64 * 67) % (16 << 20));
        pool.mem().load_word(ctx, nullptr, w, nvm::Space::kData);
      }
    });
  }
  {
    nvm::Pool pool(mk(nvm::Media::kOptane));
    t_optane = timed(pool, [&](sim::ExecContext& ctx) {
      for (int i = 0; i < 1000; i++) {
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + (i * 64 * 67) % (16 << 20));
        pool.mem().load_word(ctx, nullptr, w, nvm::Space::kData);
      }
    });
  }
  EXPECT_GT(t_optane, t_dram * 2);
}

TEST(MemoryTiming, L3HitsAreCheap) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    for (int i = 0; i < 1000; i++) pool.mem().load_word(ctx, &c, w, nvm::Space::kData);
  });
  EXPECT_EQ(c.l3_misses, 1u);
  EXPECT_EQ(c.l3_hits, 999u);
  EXPECT_LT(t, 1000u * 25);  // ~l3_hit_ns each, not optane_load_ns
}

TEST(MemoryTiming, AdrClwbAndFenceCost) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, &c, w, 1, nvm::Space::kData);
    pool.mem().clwb(ctx, &c, w);
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_EQ(c.clwbs, 1u);
  EXPECT_EQ(c.sfences, 1u);
  // The fence must wait for the ~94ns drain of the clwb'd line.
  EXPECT_GT(t, 94u);
}

TEST(MemoryTiming, EadrElidesFlushes) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, &c, w, 1, nvm::Space::kData);
    pool.mem().clwb(ctx, &c, w);
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_EQ(c.clwbs, 0u);   // not even counted: the instruction is elided
  EXPECT_EQ(c.sfences, 0u);
  EXPECT_LT(t, 94u + 250u);
}

TEST(MemoryTiming, ElideFencesSkipsDrainButCountsClwb) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane);
  cfg.elide_fences = true;
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, &c, w, 1, nvm::Space::kData);
    pool.mem().clwb(ctx, &c, w);
    pool.mem().sfence(ctx, &c);
  });
  EXPECT_EQ(c.clwbs, 1u);
  EXPECT_EQ(c.sfences, 1u);
  EXPECT_EQ(c.fence_wait_ns, 0u);
}

TEST(MemoryTiming, PdramHitsDramLatency) {
  auto cfg = test::small_cfg(nvm::Domain::kPdram, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  timed(pool, [&](sim::ExecContext& ctx) {
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    // First access: L3 miss + directory miss (fetch from Optane).
    pool.mem().load_word(ctx, &c, w, nvm::Space::kData);
  });
  EXPECT_EQ(c.dram_cache_misses, 1u);
  // Re-run with a line working set larger than L3 (1MB = 16384 lines) but
  // inside the 4MB directory: the second sweep thrashes L3 (sequential LRU
  // scan) yet hits the DRAM cache.
  stats::TxCounters c2;
  timed(pool, [&](sim::ExecContext& ctx) {
    for (int rep = 0; rep < 2; rep++) {
      for (int i = 0; i < 20000; i++) {
        auto* w = reinterpret_cast<uint64_t*>(pool.heap_base() + i * 64);
        pool.mem().load_word(ctx, &c2, w, nvm::Space::kData);
      }
    }
  });
  EXPECT_GT(c2.dram_cache_hits, 15000u);
}

TEST(MemoryTiming, TouchLinesModelsVirtualPayloads) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane);
  nvm::Pool pool(cfg);
  stats::TxCounters c;
  const uint64_t base = pool.mem().virtual_line_base();
  const uint64_t t = timed(pool, [&](sim::ExecContext& ctx) {
    pool.mem().touch_lines(ctx, &c, base, 16, false, nvm::Space::kData);
  });
  EXPECT_EQ(c.pmem_loads, 16u);
  EXPECT_EQ(c.l3_misses, 16u);
  EXPECT_GT(t, 16u * 200);  // 16 cold Optane line reads
}

// --------------------------------------------- crash shadow semantics

TEST(CrashSim, AdrUnflushedStoreIsLost) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.writeback_adversary = nvm::WritebackAdversary::kNone;  // nothing persists uninvited
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 0u);
}

TEST(CrashSim, AdrFencedStoreSurvives) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.writeback_adversary = nvm::WritebackAdversary::kNone;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  pool.mem().sfence(ctx, nullptr);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 42u);
}

TEST(CrashSim, AdrClwbWithoutFenceMayOrMayNotPersist) {
  for (const auto adv : {nvm::WritebackAdversary::kNone, nvm::WritebackAdversary::kAll}) {
    auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
    cfg.writeback_adversary = adv;
    nvm::Pool pool(cfg);
    sim::RealContext ctx;
    auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
    pool.mem().store_word(ctx, nullptr, w, 42, nvm::Space::kData);
    pool.mem().clwb(ctx, nullptr, w);  // no fence
    util::Rng rng(1);
    pool.simulate_power_failure(rng);
    EXPECT_EQ(*w, adv == nvm::WritebackAdversary::kAll ? 42u : 0u);
  }
}

TEST(CrashSim, EadrEverythingPersists) {
  auto cfg = test::small_cfg(nvm::Domain::kEadr, nvm::Media::kOptane, /*crash_sim=*/true);
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 7, nvm::Space::kData);  // no flush at all
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 7u);
}

TEST(CrashSim, ClwbCapturesContentAtFlushTime) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.writeback_adversary = nvm::WritebackAdversary::kNone;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 1, nvm::Space::kData);
  pool.mem().clwb(ctx, nullptr, w);
  pool.mem().sfence(ctx, nullptr);
  // Overwrite after the fence, without flushing the new value.
  pool.mem().store_word(ctx, nullptr, w, 2, nvm::Space::kData);
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 1u);  // the fenced value, not the later dirty one
}

TEST(CrashSim, CheckpointMakesStateDurable) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr, nvm::Media::kOptane, /*crash_sim=*/true);
  cfg.writeback_adversary = nvm::WritebackAdversary::kNone;
  nvm::Pool pool(cfg);
  sim::RealContext ctx;
  auto* w = reinterpret_cast<uint64_t*>(pool.heap_base());
  pool.mem().store_word(ctx, nullptr, w, 9, nvm::Space::kData);
  pool.mem().checkpoint_all_persistent();
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  EXPECT_EQ(*w, 9u);
}
