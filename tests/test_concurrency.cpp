// Concurrency correctness: atomicity and isolation under both execution
// substrates — the discrete-event engine (deterministic interleavings in
// simulated time) and genuine OS threads (real races on the orec table).
#include <gtest/gtest.h>

#include <thread>

#include "ptm/runtime.h"
#include "sim/engine.h"
#include "test_common.h"

namespace {

struct Root {
  uint64_t counter;
  uint64_t a, b;
  uint64_t cells[64];
};

struct Param {
  ptm::Algo algo;
};

std::string pname(const ::testing::TestParamInfo<Param>& info) {
  return info.param.algo == ptm::Algo::kOrecLazy ? "redo" : "undo";
}

class ConcurrencyTest : public ::testing::TestWithParam<Param> {};

TEST_P(ConcurrencyTest, DesCounterIncrementsAreAtomic) {
  auto cfg = test::small_cfg(nvm::Domain::kAdr);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, GetParam().algo);
  auto* root = pool.root<Root>();

  constexpr int kWorkers = 6;
  constexpr int kIncs = 300;
  sim::Engine engine(kWorkers);
  engine.run([&](sim::ExecContext& ctx) {
    for (int i = 0; i < kIncs; i++) {
      rt.run(ctx, [&](ptm::Tx& tx) {
        tx.write(&root->counter, tx.read(&root->counter) + 1);
      });
    }
  });
  EXPECT_EQ(root->counter, static_cast<uint64_t>(kWorkers) * kIncs);
  // Contention on one word must produce actual aborts (and they must not
  // break atomicity, checked above).
  const auto totals = stats::aggregate(rt.snapshot_counters());
  EXPECT_EQ(totals.commits, static_cast<uint64_t>(kWorkers) * kIncs);
  EXPECT_GT(totals.aborts, 0u);
}

TEST_P(ConcurrencyTest, DesRunsAreDeterministic) {
  auto run_once = [&] {
    auto cfg = test::small_cfg(nvm::Domain::kAdr);
    nvm::Pool pool(cfg);
    ptm::Runtime rt(pool, GetParam().algo);
    auto* root = pool.root<Root>();
    sim::Engine engine(4);
    engine.run([&](sim::ExecContext& ctx) {
      util::Rng rng(static_cast<uint64_t>(ctx.worker_id()) + 1);
      for (int i = 0; i < 100; i++) {
        const uint64_t cell = rng.next_bounded(64);
        rt.run(ctx, [&](ptm::Tx& tx) {
          tx.write(&root->cells[cell], tx.read(&root->cells[cell]) + 1);
        });
      }
    });
    const auto totals = stats::aggregate(rt.snapshot_counters());
    return std::tuple(engine.elapsed_ns(), totals.commits, totals.aborts);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(ConcurrencyTest, DesInvariantPairStaysConsistent) {
  // Writers keep a == b; readers must never observe a != b (isolation /
  // opacity): a torn read would fire the EXPECT inside the transaction.
  auto cfg = test::small_cfg(nvm::Domain::kEadr);
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, GetParam().algo);
  auto* root = pool.root<Root>();

  sim::Engine engine(4);
  engine.run([&](sim::ExecContext& ctx) {
    if (ctx.worker_id() % 2 == 0) {
      for (int i = 0; i < 200; i++) {
        rt.run(ctx, [&](ptm::Tx& tx) {
          const uint64_t v = tx.read(&root->a);
          tx.write(&root->a, v + 1);
          tx.write(&root->b, v + 1);
        });
      }
    } else {
      for (int i = 0; i < 200; i++) {
        uint64_t a = 0, b = 0;
        rt.run(ctx, [&](ptm::Tx& tx) {
          a = tx.read(&root->a);
          b = tx.read(&root->b);
        });
        ASSERT_EQ(a, b) << "snapshot isolation violated";
      }
    }
  });
  EXPECT_EQ(root->a, root->b);
}

TEST_P(ConcurrencyTest, RealThreadsCounter) {
  // Genuine parallelism (as genuine as a 1-core host allows): the STM's
  // atomics must provide the same guarantees without the DES scheduler.
  nvm::Pool pool(test::small_cfg(nvm::Domain::kEadr));
  ptm::Runtime rt(pool, GetParam().algo);
  auto* root = pool.root<Root>();

  constexpr int kThreads = 4;
  constexpr int kIncs = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      sim::RealContext ctx(t, kThreads);
      for (int i = 0; i < kIncs; i++) {
        rt.run(ctx, [&](ptm::Tx& tx) {
          tx.write(&root->counter, tx.read(&root->counter) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(root->counter, static_cast<uint64_t>(kThreads) * kIncs);
}

TEST_P(ConcurrencyTest, RealThreadsDisjointCells) {
  nvm::Pool pool(test::small_cfg(nvm::Domain::kEadr));
  ptm::Runtime rt(pool, GetParam().algo);
  auto* root = pool.root<Root>();

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      sim::RealContext ctx(t, kThreads);
      for (int i = 0; i < 1000; i++) {
        rt.run(ctx, [&](ptm::Tx& tx) {
          const uint64_t idx = static_cast<uint64_t>(t) * 16 + (i % 16);
          tx.write(&root->cells[idx], tx.read(&root->cells[idx]) + 1);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; t++) {
    for (int s = 0; s < 16; s++) {
      const uint64_t expect = 1000 / 16 + (s < 1000 % 16 ? 1 : 0);
      EXPECT_EQ(root->cells[t * 16 + s], expect) << t << "," << s;
    }
  }
}

TEST_P(ConcurrencyTest, MoreThreadsMoreAbortsUnderContention) {
  // The mechanism behind the paper's Tables I/II: contention (and thus the
  // commit/abort ratio) worsens with thread count.
  auto ratio_at = [&](int workers) {
    auto cfg = test::small_cfg(nvm::Domain::kAdr);
    nvm::Pool pool(cfg);
    ptm::Runtime rt(pool, GetParam().algo);
    auto* root = pool.root<Root>();
    sim::Engine engine(workers);
    engine.run([&](sim::ExecContext& ctx) {
      util::Rng rng(static_cast<uint64_t>(ctx.worker_id()) * 3 + 11);
      for (int i = 0; i < 200; i++) {
        rt.run(ctx, [&](ptm::Tx& tx) {
          // Small hot set: 4 cells.
          const uint64_t cell = rng.next_bounded(4);
          tx.write(&root->cells[cell], tx.read(&root->cells[cell]) + 1);
        });
      }
    });
    const auto t = stats::aggregate(rt.snapshot_counters());
    return static_cast<double>(t.aborts) / static_cast<double>(t.commits);
  };
  const double a2 = ratio_at(2);
  const double a8 = ratio_at(8);
  EXPECT_GT(a8, a2);
}

INSTANTIATE_TEST_SUITE_P(Algos, ConcurrencyTest,
                         ::testing::Values(Param{ptm::Algo::kOrecLazy},
                                           Param{ptm::Algo::kOrecEager}),
                         pname);

}  // namespace
