// Allocator crash-consistency property tests: after a power failure at an
// arbitrary persistence event, recovery must leave the heap free of
// *double allocations* (a block reachable both from committed data and
// from a free list, or handed out twice). Leaks are permitted (documented
// Makalu-style trade-off); corruption is not.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "ptm/runtime.h"
#include "test_common.h"

namespace {

struct Root {
  uint64_t slots[64];  // pointers to live blocks
};

class AllocCrashTest : public ::testing::TestWithParam<ptm::Algo> {};

TEST_P(AllocCrashTest, NoDoubleAllocationAfterRecovery) {
  for (uint64_t trial = 0; trial < 15; trial++) {
    fault::CrashHarness h(test::crash_cfg(), GetParam());
    auto* root = h.pool.root<Root>();

    util::Rng rng(9100 + trial);
    // Churn: allocate into random slots, freeing whatever was there. The
    // oracle is off — freed blocks get free-list links threaded through
    // them outside the Tx write path — but the recovery report is still
    // judged.
    const fault::Trial t = h.trial(
        {.power_at = 30 + rng.next_bounded(1500)}, trial * 13 + 1,
        [&] {
          for (int i = 0; i < 300; i++) {
            const uint64_t s = rng.next_bounded(64);
            const uint64_t sz = 16 + rng.next_bounded(100);
            h.rt.run(h.ctx, [&](ptm::Tx& tx) {
              const uint64_t old = tx.read(&root->slots[s]);
              if (old != 0) tx.dealloc(reinterpret_cast<void*>(old));
              auto* blk = static_cast<uint64_t*>(tx.alloc(sz));
              tx.write(blk, s);  // stamp ownership
              tx.write(&root->slots[s], reinterpret_cast<uint64_t>(blk));
            });
          }
        },
        {.oracle = false});
    EXPECT_TRUE(t.ok()) << "trial " << trial << ": " << t.failure;
    ptm::Runtime& rt = h.rt;

    // 1. No live slot may point at a block that sits on a free list.
    auto& allocator = rt.allocator();
    std::set<uint64_t> live;
    for (int s = 0; s < 64; s++) {
      const uint64_t p = root->slots[s];
      if (p == 0) continue;
      EXPECT_TRUE(live.insert(p).second) << "two slots share a block";
      EXPECT_FALSE(allocator.in_free_list(reinterpret_cast<void*>(p)))
          << "live block is simultaneously free (trial " << trial << ")";
    }

    // 2. Fresh allocations must never alias a live block.
    std::set<void*> fresh;
    rt.run(h.ctx, [&](ptm::Tx& tx) {
      for (int i = 0; i < 128; i++) {
        void* p = tx.alloc(64);
        EXPECT_TRUE(fresh.insert(p).second) << "allocator returned a block twice";
        EXPECT_EQ(live.count(reinterpret_cast<uint64_t>(p)), 0u)
            << "fresh allocation aliases committed data (trial " << trial << ")";
      }
    });
  }
}

TEST_P(AllocCrashTest, BuildingARuntimeLeavesThePersistedPoolAlone) {
  // Every store a runtime makes into the pool goes through the memory
  // model, formatting included: a power failure right after construction,
  // before any transaction, must give back the very pool it left.
  nvm::Pool pool(test::crash_cfg());
  ptm::Runtime rt(pool, GetParam());
  const std::vector<char> live(pool.base(), pool.base() + pool.size());
  util::Rng rng(1);
  pool.simulate_power_failure(rng);
  const auto first_diff = std::mismatch(live.begin(), live.end(), pool.base()).first;
  EXPECT_EQ(static_cast<size_t>(first_diff - live.begin()), pool.size())
      << "first byte a power failure changed (heap starts at "
      << pool.header()->heap_off << ")";
}

INSTANTIATE_TEST_SUITE_P(Algos, AllocCrashTest,
                         ::testing::Values(ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager),
                         [](const ::testing::TestParamInfo<ptm::Algo>& i) {
                           return std::string(ptm::algo_suffix(i.param));
                         });

}  // namespace
