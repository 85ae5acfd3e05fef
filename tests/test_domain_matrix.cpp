// Cross-domain property tests: the orderings the paper's figures rest on,
// asserted at miniature scale for every durability domain, plus crash
// consistency under the PDRAM domains.
#include <gtest/gtest.h>

#include "ptm/runtime.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

struct Root {
  uint64_t accounts;  // pointer to heap array
};

// Bank-transfer throughput at 4 workers with an L3-exceeding working set.
double throughput(nvm::Domain domain, nvm::Media media, ptm::Algo algo,
                  bool elide_fences = false) {
  nvm::SystemConfig cfg;
  cfg.media = media;
  cfg.domain = domain;
  cfg.elide_fences = elide_fences;
  cfg.pool_size = 64ull << 20;
  cfg.max_workers = 5;
  cfg.l3_bytes = 64ull << 10;
  cfg.dram_cache_bytes = 8ull << 20;

  constexpr uint64_t kAccounts = 16384;
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, algo);
  sim::RealContext setup(4, 5);
  auto* root = pool.root<Root>();
  uint64_t* bal = nullptr;
  rt.run(setup, [&](ptm::Tx& tx) {
    bal = static_cast<uint64_t*>(rt.allocator().alloc_raw(setup, nullptr, kAccounts * 8));
    tx.write(&root->accounts, reinterpret_cast<uint64_t>(bal));
  });
  for (uint64_t i0 = 0; i0 < kAccounts; i0 += 2048) {
    rt.run(setup, [&](ptm::Tx& tx) {
      for (uint64_t i = i0; i < i0 + 2048; i++) tx.write(&bal[i], uint64_t{100});
    });
  }
  rt.reset_counters();
  pool.mem().reset_models();
  pool.mem().prewarm_directory(0, pool.size() / nvm::Memory::kLineBytes);

  sim::Engine engine(4);
  engine.run([&](sim::ExecContext& ctx) {
    util::Rng rng(11 + static_cast<uint64_t>(ctx.worker_id()));
    for (int i = 0; i < 400; i++) {
      const uint64_t a = rng.next_bounded(kAccounts);
      const uint64_t b = (a + 1 + rng.next_bounded(kAccounts - 1)) % kAccounts;
      rt.run(ctx, [&](ptm::Tx& tx) {
        const uint64_t fa = tx.read(&bal[a]);
        const uint64_t fb = tx.read(&bal[b]);
        const uint64_t amt = fa > 5 ? 5 : fa;
        tx.write(&bal[a], fa - amt);
        tx.write(&bal[b], fb + amt);
      });
    }
  });
  const auto t = stats::aggregate(rt.snapshot_counters());
  return static_cast<double>(t.commits) * 1e9 / static_cast<double>(engine.elapsed_ns());
}

TEST(DomainOrdering, EadrAboveAdr) {
  for (auto algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    EXPECT_GT(throughput(nvm::Domain::kEadr, nvm::Media::kOptane, algo),
              throughput(nvm::Domain::kAdr, nvm::Media::kOptane, algo));
  }
}

TEST(DomainOrdering, PdramAboveEadr) {
  EXPECT_GT(throughput(nvm::Domain::kPdram, nvm::Media::kOptane, ptm::Algo::kOrecLazy),
            throughput(nvm::Domain::kEadr, nvm::Media::kOptane, ptm::Algo::kOrecLazy));
}

TEST(DomainOrdering, PdramLiteAtLeastEadr) {
  EXPECT_GE(
      throughput(nvm::Domain::kPdramLite, nvm::Media::kOptane, ptm::Algo::kOrecLazy),
      throughput(nvm::Domain::kEadr, nvm::Media::kOptane, ptm::Algo::kOrecLazy) * 0.99);
}

TEST(DomainOrdering, DramAbovePdram) {
  EXPECT_GT(throughput(nvm::Domain::kEadr, nvm::Media::kDram, ptm::Algo::kOrecLazy),
            throughput(nvm::Domain::kPdram, nvm::Media::kOptane, ptm::Algo::kOrecLazy) *
                0.999);
}

TEST(DomainOrdering, ElidingFencesSpeedsUpAdr) {
  for (auto algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    EXPECT_GT(throughput(nvm::Domain::kAdr, nvm::Media::kOptane, algo, true),
              throughput(nvm::Domain::kAdr, nvm::Media::kOptane, algo, false));
  }
}

TEST(DomainOrdering, RedoAboveUndoUnderAdr) {
  EXPECT_GT(throughput(nvm::Domain::kAdr, nvm::Media::kOptane, ptm::Algo::kOrecLazy),
            throughput(nvm::Domain::kAdr, nvm::Media::kOptane, ptm::Algo::kOrecEager));
}

// Crash consistency under the proposed domains (PDRAM battery semantics:
// everything dirty persists; recovery still discards in-flight logs).
TEST(PdramCrash, MoneyConservedAcrossPowerFailure) {
  for (auto domain : {nvm::Domain::kPdram, nvm::Domain::kPdramLite}) {
    for (auto algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
      auto cfg = test::small_cfg(domain, nvm::Media::kOptane, /*crash_sim=*/true);
      fault::CrashHarness h(cfg, algo);
      struct B {
        uint64_t bal[32];
      };
      auto* root = h.pool.root<B>();
      h.rt.run(h.ctx, [&](ptm::Tx& tx) {
        for (int i = 0; i < 32; i++) tx.write(&root->bal[i], uint64_t{500});
      });

      util::Rng rng(777);
      const fault::Trial t = h.trial({.power_at = 60 + rng.next_bounded(400)}, 5, [&] {
        for (int i = 0; i < 300; i++) {
          const uint64_t a = rng.next_bounded(32);
          const uint64_t b = (a + 1 + rng.next_bounded(31)) % 32;
          h.rt.run(h.ctx, [&](ptm::Tx& tx) {
            const uint64_t fa = tx.read(&root->bal[a]);
            const uint64_t fb = tx.read(&root->bal[b]);
            const uint64_t amt = fa > 7 ? 7 : fa;
            tx.write(&root->bal[a], fa - amt);
            tx.write(&root->bal[b], fb + amt);
          });
        }
      });
      ASSERT_TRUE(t.fired) << "crash did not fire";
      EXPECT_TRUE(t.ok()) << t.failure;
      uint64_t total = 0;
      h.rt.run(h.ctx, [&](ptm::Tx& tx) {
        total = 0;
        for (int i = 0; i < 32; i++) total += tx.read(&root->bal[i]);
      });
      EXPECT_EQ(total, 32u * 500u)
          << nvm::domain_name(domain) << "/" << ptm::algo_suffix(algo);
    }
  }
}

}  // namespace
