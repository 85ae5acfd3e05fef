// Integration tests: every paper workload runs end-to-end through the
// driver (fresh pool, populate, DES run) and passes its own invariant
// check, for both PTM algorithms.
#include <gtest/gtest.h>

#include "workloads/btree_micro.h"
#include "workloads/driver.h"
#include "workloads/kv.h"
#include "workloads/tatp.h"
#include "workloads/tpcc.h"
#include "workloads/vacation.h"

namespace {

using workloads::RunPoint;

RunPoint small_point(ptm::Algo algo, int threads) {
  RunPoint p;
  p.sys.domain = nvm::Domain::kAdr;
  p.sys.media = nvm::Media::kOptane;
  p.sys.l3_bytes = 1ull << 20;
  p.algo = algo;
  p.threads = threads;
  p.ops_per_thread = 150;
  p.seed = 7;
  return p;
}

// Run a point AND the workload's verify() on the same instance — a
// one-off driver variant (run_point constructs its own instance).
stats::RunResult run_and_verify(workloads::Workload& w, const RunPoint& p) {
  nvm::SystemConfig cfg = p.sys;
  cfg.pool_size = w.pool_bytes();
  cfg.max_workers = p.threads + 1;
  nvm::Pool pool(cfg);
  ptm::Runtime rt(pool, p.algo);
  sim::RealContext setup_ctx(p.threads, p.threads + 1);
  w.setup(rt, setup_ctx);
  rt.reset_counters();
  pool.mem().reset_models();

  sim::Engine engine(p.threads);
  engine.run([&](sim::ExecContext& ctx) {
    util::Rng rng(p.seed ^ static_cast<uint64_t>(ctx.worker_id() + 1));
    for (uint64_t i = 0; i < p.ops_per_thread; i++) w.op(rt, ctx, rng);
  });
  w.verify(rt, setup_ctx);

  stats::RunResult r;
  r.threads = p.threads;
  r.sim_ns = engine.elapsed_ns();
  r.totals = stats::aggregate(rt.snapshot_counters());
  return r;
}

class WorkloadTest : public ::testing::TestWithParam<ptm::Algo> {};

TEST_P(WorkloadTest, BTreeInsertOnly) {
  workloads::BTreeMicroParams bp;
  bp.insert_only = true;
  workloads::BTreeMicro w(bp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_EQ(r.totals.commits, 3u * 150u + 1 /*verify tx*/);
  EXPECT_GT(r.sim_ns, 0u);
}

TEST_P(WorkloadTest, BTreeMixed) {
  workloads::BTreeMicroParams bp;
  bp.insert_only = false;
  bp.key_range = 1 << 10;
  bp.preload = 1 << 9;
  workloads::BTreeMicro w(bp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_GE(r.totals.commits, 3u * 150u);
}

TEST_P(WorkloadTest, TatpUpdates) {
  workloads::TatpParams tp;
  tp.subscribers = 2000;
  workloads::Tatp w(tp);
  const auto r = run_and_verify(w, small_point(GetParam(), 2));
  EXPECT_GE(r.totals.commits, 2u * 150u);
  // TATP transactions write 1-2 words: tiny logs.
  EXPECT_LE(r.totals.log_lines_hwm, 2u);
}

TEST_P(WorkloadTest, TpccHashConsistency) {
  workloads::TpccParams tp;
  tp.index = workloads::TpccIndex::kHashTable;
  tp.warehouses = 2;
  tp.customers_per_district = 64;
  tp.items = 256;
  workloads::Tpcc w(tp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_GE(r.totals.commits, 3u * 150u);
}

TEST_P(WorkloadTest, TpccBTreeConsistency) {
  workloads::TpccParams tp;
  tp.index = workloads::TpccIndex::kBPlusTree;
  tp.warehouses = 2;
  tp.customers_per_district = 64;
  tp.items = 256;
  workloads::Tpcc w(tp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_GE(r.totals.commits, 3u * 150u);
}

TEST_P(WorkloadTest, VacationLowConsistency) {
  auto vp = workloads::vacation_low();
  vp.relations = 512;
  vp.customers = 512;
  workloads::Vacation w(vp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_GE(r.totals.commits, 3u * 150u);
}

TEST_P(WorkloadTest, VacationHighConsistency) {
  auto vp = workloads::vacation_high();
  vp.relations = 512;
  vp.customers = 512;
  workloads::Vacation w(vp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_GE(r.totals.commits, 3u * 150u);
}

TEST_P(WorkloadTest, TpccFullMixConsistency) {
  // Extension: the complete five-transaction TPC-C mix (OrderStatus,
  // Delivery, StockLevel in addition to the paper's write-only pair).
  workloads::TpccParams tp;
  tp.index = workloads::TpccIndex::kHashTable;
  tp.mix = workloads::TpccMix::kFull;
  tp.warehouses = 2;
  tp.customers_per_district = 64;
  tp.items = 256;
  workloads::Tpcc w(tp);
  const auto r = run_and_verify(w, small_point(GetParam(), 3));
  EXPECT_GE(r.totals.commits, 3u * 150u);
}

TEST_P(WorkloadTest, TatpStandardMix) {
  workloads::TatpParams tp;
  tp.mix = workloads::TatpMix::kStandard;
  tp.subscribers = 2000;
  workloads::Tatp w(tp);
  const auto r = run_and_verify(w, small_point(GetParam(), 2));
  EXPECT_GE(r.totals.commits, 2u * 150u);
  // The standard mix is read-dominated: most committed transactions leave
  // no log bytes behind.
  EXPECT_LT(r.totals.log_bytes, r.totals.commits * 16 * 4);
}

TEST_P(WorkloadTest, KvStoreGetsAndSets) {
  workloads::KvParams kp;
  kp.items = 512;
  workloads::KvStore w(kp);
  const auto r = run_and_verify(w, small_point(GetParam(), 2));
  EXPECT_GE(r.totals.commits, 2u * 150u);
  // Value payloads are modelled: pmem traffic must include them.
  EXPECT_GT(r.totals.pmem_loads, 0u);
}

TEST(DriverTest, RunPointProducesThroughput) {
  workloads::BTreeMicroParams bp;
  bp.insert_only = true;
  auto factory = workloads::btree_micro_factory(bp);
  RunPoint p = small_point(ptm::Algo::kOrecLazy, 2);
  const auto r = workloads::run_point(factory, p);
  EXPECT_EQ(r.workload, "BTree-insert");
  EXPECT_EQ(r.config, "Optane_ADR");
  EXPECT_EQ(r.totals.commits, 2u * 150u);
  EXPECT_GT(r.throughput_tx_per_sec(), 0.0);
}

TEST(DriverTest, DeterministicAcrossCalls) {
  workloads::TatpParams tp;
  tp.subscribers = 1000;
  auto factory = workloads::tatp_factory(tp);
  RunPoint p = small_point(ptm::Algo::kOrecEager, 3);
  const auto a = workloads::run_point(factory, p);
  const auto b = workloads::run_point(factory, p);
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.totals.aborts, b.totals.aborts);
  EXPECT_GT(a.fiber_switches, 0u);
  EXPECT_EQ(a.fiber_switches, b.fiber_switches);
}

// The paper's headline orderings, reproduced at miniature scale: these are
// the qualitative claims the full benches regenerate.
TEST(ShapeTest, EadrBeatsAdrOnTpcc) {
  workloads::TpccParams tp;
  tp.warehouses = 2;
  tp.customers_per_district = 64;
  tp.items = 256;
  auto factory = workloads::tpcc_factory(tp);
  RunPoint p = small_point(ptm::Algo::kOrecLazy, 4);
  p.ops_per_thread = 250;
  p.sys.domain = nvm::Domain::kAdr;
  const auto adr = workloads::run_point(factory, p);
  p.sys.domain = nvm::Domain::kEadr;
  const auto eadr = workloads::run_point(factory, p);
  EXPECT_GT(eadr.throughput_tx_per_sec(), adr.throughput_tx_per_sec());
}

TEST(ShapeTest, RedoBeatsUndoOnTpccAdr) {
  workloads::TpccParams tp;
  tp.warehouses = 2;
  tp.customers_per_district = 64;
  tp.items = 256;
  auto factory = workloads::tpcc_factory(tp);
  RunPoint p = small_point(ptm::Algo::kOrecLazy, 4);
  p.ops_per_thread = 250;
  const auto redo = workloads::run_point(factory, p);
  p.algo = ptm::Algo::kOrecEager;
  const auto undo = workloads::run_point(factory, p);
  EXPECT_GT(redo.throughput_tx_per_sec(), undo.throughput_tx_per_sec());
}

TEST(ShapeTest, DramBeatsOptane) {
  // The media gap only shows once the working set exceeds the L3 model
  // (in-cache runs are dominated by identical hit costs).
  workloads::BTreeMicroParams bp;
  bp.insert_only = false;
  bp.key_range = 1 << 17;
  bp.preload = 1 << 16;
  auto factory = workloads::btree_micro_factory(bp);
  RunPoint p = small_point(ptm::Algo::kOrecLazy, 2);
  p.sys.l3_bytes = 512 << 10;
  p.ops_per_thread = 300;
  p.sys.media = nvm::Media::kOptane;
  const auto optane = workloads::run_point(factory, p);
  p.sys.media = nvm::Media::kDram;
  const auto dram = workloads::run_point(factory, p);
  EXPECT_GT(dram.throughput_tx_per_sec(), 1.2 * optane.throughput_tx_per_sec());
}

INSTANTIATE_TEST_SUITE_P(Algos, WorkloadTest,
                         ::testing::Values(ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager),
                         [](const ::testing::TestParamInfo<ptm::Algo>& i) {
                           return std::string(ptm::algo_suffix(i.param));
                         });

}  // namespace
