// Unit + integration tests for the emulated DIMM performance counters
// (stats::DevStats, docs/OBSERVABILITY.md "Device counters").
//
// The unit tests drive the hooks directly with deterministic store
// sequences whose media-level outcome is known in closed form (sequential
// coalescing -> WA 1.0, strided partial lines -> WA 4.0, residency-window
// drain). The integration tests run a real workload point and check the
// assembled "device" section — including that turning the counters on
// changes no simulated result (pure observation).
#include <gtest/gtest.h>

#include <sstream>

#include "stats/devstats.h"
#include "stats/report.h"
#include "stats/trace.h"
#include "workloads/btree_micro.h"
#include "workloads/driver.h"

namespace {

using stats::DevStats;
using stats::DeviceCounters;
using stats::kMediaDram;
using stats::kMediaOptane;

TEST(DevStatsUnit, SequentialWritesCoalesceToUnity) {
  DevStats ds(4);
  // 64 consecutive 64B lines = 16 full XPLines; the 16-entry buffer holds
  // them all, so nothing is evicted and the snapshot flushes 16 full lines.
  for (uint64_t line = 0; line < 64; line++) {
    ds.on_media_write(kMediaOptane, line, /*now_ns=*/0);
  }
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.host_lines_written, 64u);
  EXPECT_EQ(d.xpbuffer_misses, 16u);  // first touch of each XPLine
  EXPECT_EQ(d.xpbuffer_hits, 48u);    // remaining 3 sub-lines of each
  EXPECT_EQ(d.xpline_writes, 16u);
  EXPECT_EQ(d.xpbuffer_flushes, 16u);
  EXPECT_EQ(d.xpline_rmw_reads, 0u);  // every flushed line was full
  EXPECT_DOUBLE_EQ(d.write_amplification(), 1.0);
  EXPECT_DOUBLE_EQ(d.effective_write_ratio(), 1.0);
}

TEST(DevStatsUnit, StridedWritesAmplifyFourfold) {
  DevStats ds(4);
  // One 64B line per XPLine (stride 4), 32 distinct XPLines: every write
  // misses, 16 partial entries get evicted by capacity and the rest flush
  // at snapshot — each costing a whole 256B media write plus an RMW fill.
  for (uint64_t i = 0; i < 32; i++) {
    ds.on_media_write(kMediaOptane, i * DevStats::kXplineLines, /*now_ns=*/0);
  }
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.host_lines_written, 32u);
  EXPECT_EQ(d.xpbuffer_misses, 32u);
  EXPECT_EQ(d.xpbuffer_hits, 0u);
  EXPECT_EQ(d.xpline_writes, 32u);
  EXPECT_EQ(d.xpline_rmw_reads, 32u);
  EXPECT_DOUBLE_EQ(d.write_amplification(), 4.0);
  EXPECT_DOUBLE_EQ(d.effective_write_ratio(), 0.25);
}

TEST(DevStatsUnit, RewritesWithinWindowAbsorb) {
  DevStats ds(4);
  for (int i = 0; i < 4; i++) {
    ds.on_media_write(kMediaOptane, /*line=*/0, /*now_ns=*/0);
  }
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.host_lines_written, 4u);
  EXPECT_EQ(d.xpbuffer_hits, 3u);
  EXPECT_EQ(d.xpline_writes, 1u);  // one buffered entry, flushed once
  EXPECT_EQ(d.xpbuffer_drains, 0u);
}

TEST(DevStatsUnit, ResidencyWindowDrainsHotLines) {
  DevStats ds(4);
  // The same line rewritten after the drain window has passed pays a fresh
  // media write each time — this is what keeps real-device WA >= 1 even for
  // hot metadata lines (a stale entry cannot coalesce forever).
  ds.on_media_write(kMediaOptane, /*line=*/0, /*now_ns=*/0);
  ds.on_media_write(kMediaOptane, /*line=*/0,
                    /*now_ns=*/DevStats::kDefaultDrainWindowNs + 1);
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.host_lines_written, 2u);
  EXPECT_EQ(d.xpbuffer_misses, 2u);  // second write found the entry drained
  EXPECT_EQ(d.xpbuffer_hits, 0u);
  EXPECT_EQ(d.xpbuffer_drains, 1u);
  EXPECT_EQ(d.xpline_writes, 2u);  // drained + flushed-at-snapshot
  EXPECT_DOUBLE_EQ(d.write_amplification(), 4.0);
}

TEST(DevStatsUnit, ReadsHitBufferedLinesAndAmplifyOtherwise) {
  DevStats ds(4);
  ds.on_media_write(kMediaOptane, /*line=*/0, /*now_ns=*/0);
  ds.on_media_read(kMediaOptane, /*line=*/1, /*now_ns=*/0);   // same XPLine
  ds.on_media_read(kMediaOptane, /*line=*/100, /*now_ns=*/0); // media read
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.host_lines_read, 2u);
  EXPECT_EQ(d.xpbuffer_read_hits, 1u);
  EXPECT_EQ(d.xpline_reads, 1u);
  EXPECT_DOUBLE_EQ(d.read_amplification(), 2.0);  // 256B media / 128B host
}

TEST(DevStatsUnit, DramTrafficCountsFlat) {
  DevStats ds(4);
  ds.on_media_write(kMediaDram, /*line=*/0, /*now_ns=*/0);
  ds.on_media_read(kMediaDram, /*line=*/7, /*now_ns=*/0);
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.dram_lines_written, 1u);
  EXPECT_EQ(d.dram_lines_read, 1u);
  EXPECT_EQ(d.host_lines_written, 0u);  // no Optane-side accounting
  EXPECT_EQ(d.xpbuffer_hits + d.xpbuffer_misses, 0u);
}

TEST(DevStatsUnit, WpqHooksTrackOccupancyAndDrain) {
  DevStats ds(4);
  ds.on_wpq_enqueue(/*worker=*/0, /*occupancy=*/1, /*drain_ns=*/100);
  ds.on_wpq_enqueue(/*worker=*/0, /*occupancy=*/3, /*drain_ns=*/400);
  ds.on_wpq_enqueue(/*worker=*/1, /*occupancy=*/7, /*drain_ns=*/900);
  ds.on_wpq_stall(/*worker=*/0, /*ns=*/250);
  ds.on_fence_stall(/*worker=*/1, /*ns=*/600);
  const DeviceCounters d = ds.snapshot();
  EXPECT_EQ(d.wpq_enqueues, 3u);
  EXPECT_EQ(d.wpq_peak_occupancy, 7u);
  EXPECT_EQ(d.wpq_occupancy.count(), 3u);
  EXPECT_EQ(d.wpq_drain_ns.count(), 3u);
  EXPECT_EQ(d.wpq_drain_ns.max(), 900u);
  EXPECT_EQ(d.fence_stall_ns.count(), 1u);
  EXPECT_EQ(d.wpq_stall_ns.count(), 1u);
  ASSERT_EQ(d.wpq_workers.size(), 2u);
  EXPECT_EQ(d.wpq_workers[0].worker, 0);
  EXPECT_EQ(d.wpq_workers[0].occupancy.count(), 2u);
  EXPECT_EQ(d.wpq_workers[1].worker, 1);
}

TEST(DevStatsUnit, SnapshotIsRepeatable) {
  DevStats ds(4);
  for (uint64_t line = 0; line < 40; line++) {
    ds.on_media_write(kMediaOptane, line * 2, /*now_ns=*/0);
  }
  const DeviceCounters a = ds.snapshot();
  const DeviceCounters b = ds.snapshot();
  EXPECT_EQ(a.xpline_writes, b.xpline_writes);
  EXPECT_EQ(a.xpbuffer_flushes, b.xpbuffer_flushes);
  EXPECT_EQ(a.xpline_rmw_reads, b.xpline_rmw_reads);
}

// ---------------------------------------------------------------------------
// Integration: device section of a real run.
// ---------------------------------------------------------------------------

workloads::RunPoint adr_point(bool devstats, int threads) {
  workloads::RunPoint p;
  p.sys.media = nvm::Media::kOptane;
  p.sys.domain = nvm::Domain::kAdr;
  p.sys.l3_bytes = 1ull << 20;
  p.sys.devstats = devstats;
  p.algo = ptm::Algo::kOrecLazy;
  p.threads = threads;
  p.ops_per_thread = 200;
  p.seed = 42;
  return p;
}

stats::RunResult run_btree(const workloads::RunPoint& p) {
  workloads::BTreeMicroParams bp;
  bp.insert_only = true;
  return workloads::run_point(workloads::btree_micro_factory(bp), p);
}

TEST(DevStatsRun, DeviceSectionPopulated) {
  const stats::RunResult r = run_btree(adr_point(/*devstats=*/true, 2));
  const DeviceCounters& d = r.device;
  ASSERT_TRUE(d.enabled);
  EXPECT_GT(d.host_lines_written, 0u);
  EXPECT_GT(d.xpline_writes, 0u);
  EXPECT_GE(d.write_amplification(), 1.0);
  EXPECT_GT(d.wpq_enqueues, 0u);
  EXPECT_GT(d.wpq_peak_occupancy, 0u);
  EXPECT_LE(d.wpq_peak_occupancy,
            static_cast<uint64_t>(r.threads) *
                static_cast<uint64_t>(adr_point(true, 2).sys.cost.wpq_capacity));
  EXPECT_GT(d.channels[stats::kChanOptaneWrite].requests, 0u);
  EXPECT_GT(d.channels[stats::kChanOptaneRead].requests, 0u);
  EXPECT_EQ(d.sim_end_ns, r.sim_ns);
  EXPECT_GT(d.reserve_energy_j, 0.0);
  EXPECT_GT(d.drain_seconds, 0.0);
  EXPECT_FALSE(d.reserve_technology.empty());
  // ADR under redo logging fences constantly: stall histograms must have
  // recorded, and every enqueue contributed an occupancy sample.
  EXPECT_GT(d.fence_stall_ns.count(), 0u);
  EXPECT_EQ(d.wpq_occupancy.count(), d.wpq_enqueues);
}

TEST(DevStatsRun, PureObservationNeverPerturbsSimulation) {
  const stats::RunResult off = run_btree(adr_point(/*devstats=*/false, 2));
  const stats::RunResult on = run_btree(adr_point(/*devstats=*/true, 2));
  EXPECT_FALSE(off.device.enabled);
  ASSERT_TRUE(on.device.enabled);
  // Bit-identical simulated outcome: same clock, same counters.
  EXPECT_EQ(off.sim_ns, on.sim_ns);
  EXPECT_EQ(off.totals.commits, on.totals.commits);
  EXPECT_EQ(off.totals.aborts, on.totals.aborts);
  EXPECT_EQ(off.totals.clwbs, on.totals.clwbs);
  EXPECT_EQ(off.totals.sfences, on.totals.sfences);
  EXPECT_EQ(off.totals.wpq_stall_ns, on.totals.wpq_stall_ns);
  EXPECT_EQ(off.totals.fence_wait_ns, on.totals.fence_wait_ns);
}

TEST(DevStatsRun, JsonDeviceKeyGatedOnEnabled) {
  const stats::RunResult off = run_btree(adr_point(/*devstats=*/false, 1));
  const stats::RunResult on = run_btree(adr_point(/*devstats=*/true, 1));

  const auto to_json = [](const stats::RunResult& r) {
    std::ostringstream os;
    stats::JsonWriter w(os);
    w.begin_object();
    stats::write_run_result_fields(w, r);
    w.end_object();
    return os.str();
  };
  const std::string joff = to_json(off);
  const std::string jon = to_json(on);
  EXPECT_EQ(joff.find("\"device\""), std::string::npos);
  EXPECT_NE(jon.find("\"device\""), std::string::npos);
  EXPECT_NE(jon.find("\"write_amplification\""), std::string::npos);
  EXPECT_NE(jon.find("\"reserve_technology\""), std::string::npos);
}

TEST(DevStatsRun, TraceCarriesCounterEvents) {
  stats::Trace& tr = stats::Trace::instance();
  tr.enable();
  tr.clear();
  const stats::RunResult r = run_btree(adr_point(/*devstats=*/true, 1));
  std::ostringstream os;
  tr.write_json(os);
  tr.disable();
  tr.clear();
  ASSERT_TRUE(r.device.enabled);
  const std::string t = os.str();
  EXPECT_NE(t.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(t.find("\"wpq_occupancy\""), std::string::npos);
  EXPECT_NE(t.find("\"write_amplification\""), std::string::npos);
}

TEST(DevStatsRun, SelfProfileFieldsPopulated) {
  const stats::RunResult r = run_btree(adr_point(/*devstats=*/false, 1));
  EXPECT_GT(r.wall_ns, 0u);
  EXPECT_GT(r.sim_events(), 0u);
  EXPECT_GT(r.sim_events_per_sec(), 0.0);
  EXPECT_GT(r.channel_requests, 0u);
  EXPECT_EQ(r.fiber_switches, 0u);  // a lone worker never hands off
}

}  // namespace
