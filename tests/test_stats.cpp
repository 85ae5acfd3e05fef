// Telemetry layer: log2 histograms, phase timers, abort attribution,
// JSON emission, and the trace recorder. The JsonWriter tests assert
// exact strings — the writer is deliberately deterministic so artifacts
// stay diffable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "ptm/runtime.h"
#include "sim/engine.h"
#include "stats/counters.h"
#include "stats/histogram.h"
#include "stats/json_writer.h"
#include "stats/report.h"
#include "stats/trace.h"
#include "test_common.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

/// Every test that flips the global telemetry switch restores it, so test
/// order cannot leak state.
struct TelemetryGuard {
  bool saved = stats::telemetry_enabled();
  explicit TelemetryGuard(bool on) { stats::set_telemetry_enabled(on); }
  ~TelemetryGuard() { stats::set_telemetry_enabled(saved); }
};

// ---------------------------------------------------------------- Histogram

TEST(Histogram, EmptyReportsZeros) {
  stats::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  EXPECT_EQ(h.p99(), 0u);
}

TEST(Histogram, BucketBoundaries) {
  // bucket 0 = {0}, bucket k = [2^(k-1), 2^k).
  stats::Histogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  h.record(4);
  h.record(~uint64_t{0});
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);  // {1}
  EXPECT_EQ(h.bucket_count(2), 2u);  // {2,3}
  EXPECT_EQ(h.bucket_count(3), 1u);  // {4..7}
  EXPECT_EQ(h.bucket_count(64), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.max(), ~uint64_t{0});
  EXPECT_EQ(stats::Histogram::bucket_lo(3), 4u);
  EXPECT_EQ(stats::Histogram::bucket_hi(3), 7u);
  EXPECT_EQ(stats::Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(stats::Histogram::bucket_hi(64), ~uint64_t{0});
}

TEST(Histogram, SingleValuePercentilesClampToMax) {
  stats::Histogram h;
  h.record(5);  // bucket 3 spans [4,7]; the clamp reports the observed 5
  EXPECT_EQ(h.percentile(0), 5u);
  EXPECT_EQ(h.p50(), 5u);
  EXPECT_EQ(h.p99(), 5u);
  EXPECT_EQ(h.max(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 5.0);
}

TEST(Histogram, PercentilesOnUniformRange) {
  stats::Histogram h;
  for (uint64_t v = 1; v <= 100; v++) h.record(v);
  // p50 = 50th sample = value 50 → bucket 6 ([32,63]) → hi 63.
  EXPECT_EQ(h.p50(), 63u);
  // p90 = 90th sample = 90 → bucket 7 ([64,127]) → hi clamped to max 100.
  EXPECT_EQ(h.p90(), 100u);
  EXPECT_EQ(h.p99(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(Histogram, MergeIsBucketwiseSum) {
  stats::Histogram a, b;
  for (uint64_t v = 1; v <= 50; v++) a.record(v);
  for (uint64_t v = 51; v <= 100; v++) b.record(v);
  a.merge(b);
  stats::Histogram whole;
  for (uint64_t v = 1; v <= 100; v++) whole.record(v);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.sum(), whole.sum());
  EXPECT_EQ(a.max(), whole.max());
  for (int i = 0; i < stats::Histogram::kBuckets; i++) {
    EXPECT_EQ(a.bucket_count(i), whole.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.p50(), whole.p50());
}

TEST(Histogram, PhaseNamesAreDistinct) {
  for (size_t i = 0; i < stats::kNumPhases; i++) {
    for (size_t j = i + 1; j < stats::kNumPhases; j++) {
      EXPECT_STRNE(stats::phase_name(static_cast<stats::Phase>(i)),
                   stats::phase_name(static_cast<stats::Phase>(j)));
    }
  }
}

// --------------------------------------------------------------- PhaseTimer

TEST(PhaseTimer, RecordsOnlyWhenTelemetryEnabled) {
  sim::RealContext ctx;
  stats::PhaseHists ph;
  {
    TelemetryGuard g(false);
    stats::PhaseTimer t(ctx, &ph, stats::Phase::kRead);
    ctx.advance(100);
  }
  EXPECT_EQ(ph[stats::Phase::kRead].count(), 0u);
  {
    TelemetryGuard g(true);
    stats::PhaseTimer t(ctx, &ph, stats::Phase::kRead);
    ctx.advance(100);
  }
  EXPECT_EQ(ph[stats::Phase::kRead].count(), 1u);
  EXPECT_EQ(ph[stats::Phase::kRead].sum(), 100u);
  {
    TelemetryGuard g(true);
    stats::PhaseTimer t(ctx, &ph, stats::Phase::kRead);
    ctx.advance(7);
    t.cancel();
  }
  EXPECT_EQ(ph[stats::Phase::kRead].count(), 1u);  // cancelled, not recorded
}

// --------------------------------------------------------------- TxCounters

TEST(TxCounters, AddSumsCausesAndMergesPhases) {
  stats::TxCounters a, b;
  a.commits = 3;
  a.aborts = 2;
  a.aborts_by_cause[static_cast<size_t>(stats::AbortCause::kConflictRead)] = 2;
  a.phases.record(stats::Phase::kCommit, 10);
  b.commits = 4;
  b.aborts = 1;
  b.aborts_by_cause[static_cast<size_t>(stats::AbortCause::kValidation)] = 1;
  b.phases.record(stats::Phase::kCommit, 30);
  a.add(b);
  EXPECT_EQ(a.commits, 7u);
  EXPECT_EQ(a.aborts, 3u);
  EXPECT_EQ(a.aborts_of(stats::AbortCause::kConflictRead), 2u);
  EXPECT_EQ(a.aborts_of(stats::AbortCause::kValidation), 1u);
  EXPECT_EQ(a.phases[stats::Phase::kCommit].count(), 2u);
  EXPECT_EQ(a.phases[stats::Phase::kCommit].sum(), 40u);

  const auto total = stats::aggregate({a, b});
  EXPECT_EQ(total.commits, 11u);
  EXPECT_EQ(total.phases[stats::Phase::kCommit].count(), 3u);
}

TEST(TxCounters, CommitAbortRatioSentinel) {
  stats::TxCounters c;
  c.commits = 10;
  EXPECT_TRUE(std::isinf(c.commit_abort_ratio()));  // no aborts: sentinel
  EXPECT_EQ(util::fmt_ratio(c.commit_abort_ratio()), "-");
  c.aborts = 4;
  EXPECT_DOUBLE_EQ(c.commit_abort_ratio(), 2.5);
  EXPECT_EQ(util::fmt_ratio(c.commit_abort_ratio()), "2.50");
  c.commits = 0;  // no commits but aborts: a genuine 0, not the sentinel
  EXPECT_DOUBLE_EQ(c.commit_abort_ratio(), 0.0);
}

// --------------------------------------------------------------- JsonWriter

TEST(JsonWriter, ExactObjectAndArrayOutput) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  w.kv("a", 1);
  w.key("b").begin_array();
  w.value(uint64_t{2}).value("x").value(true);
  w.end_array();
  w.key("c").begin_object().end_object();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"a":1,"b":[2,"x",true],"c":{}})");
}

TEST(JsonWriter, EscapesStrings) {
  std::ostringstream os;
  stats::write_json_string(os, "a\"b\\c\n\t\x01");
  EXPECT_EQ(os.str(), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::nan(""));
  w.value(2.5);
  w.end_array();
  EXPECT_EQ(os.str(), "[null,null,2.5]");
}

TEST(JsonWriter, HistogramSummaryParsesBack) {
  stats::Histogram h;
  for (uint64_t v = 1; v <= 100; v++) h.record(v);
  std::ostringstream os;
  stats::JsonWriter w(os);
  stats::write_histogram_summary(w, h);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"count\":100"), std::string::npos) << s;
  EXPECT_NE(s.find("\"sum_ns\":5050"), std::string::npos) << s;
  EXPECT_NE(s.find("\"p50_ns\":63"), std::string::npos) << s;
  EXPECT_NE(s.find("\"p99_ns\":100"), std::string::npos) << s;
  EXPECT_NE(s.find("\"max_ns\":100"), std::string::npos) << s;
}

TEST(JsonWriter, RunResultFieldsIncludeCausesAndPhases) {
  TelemetryGuard g(true);
  stats::RunResult r;
  r.workload = "wl";
  r.config = "cfg";
  r.threads = 2;
  r.sim_ns = 1000;
  r.totals.commits = 5;
  r.totals.aborts = 1;
  r.totals.aborts_by_cause[static_cast<size_t>(stats::AbortCause::kExplicit)] = 1;
  r.totals.phases.record(stats::Phase::kCommit, 42);
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  stats::write_run_result_fields(w, r);
  w.end_object();
  const std::string s = os.str();
  EXPECT_NE(s.find("\"workload\":\"wl\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"abort_causes\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"explicit\":1"), std::string::npos) << s;
  EXPECT_NE(s.find("\"commit\":{"), std::string::npos) << s;
  // Phases with no samples are omitted from the artifact.
  EXPECT_EQ(s.find("\"wpq_stall\""), std::string::npos) << s;
}

// ------------------------------------------------------ opt-in sections

std::string run_result_json(const stats::RunResult& r) {
  std::ostringstream os;
  stats::JsonWriter w(os);
  w.begin_object();
  stats::write_run_result_fields(w, r);
  w.end_object();
  return os.str();
}

/// Every field of the five opt-in summaries (scrub, psan, rsan, epoch,
/// containment) set to a distinct value, so a dropped, renamed, reordered
/// or cross-wired key changes the bytes.
stats::RunResult all_sections_on() {
  using stats::Phase;
  stats::RunResult r;
  r.workload = "w";
  r.config = "c";

  stats::ScrubStats& sc = r.scrub;
  sc.enabled = true;
  sc.passes = 101;
  sc.lines_scanned = 102;
  sc.crc_checks = 103;
  sc.media_faults_found = 104;
  sc.repaired = 105;
  sc.unrepairable = 106;
  sc.header_repairs = 107;
  sc.skipped_busy = 108;

  stats::PsanSummary& ps = r.psan;
  ps.enabled = true;
  ps.events = 201;
  ps.checks = 202;
  ps.missing_flush = 203;
  ps.misordered_persist = 204;
  ps.redundant_flush = 205;
  ps.redundant_fence = 206;
  ps.unflushed_at_crash = 207;
  ps.torn_at_crash = 208;
  ps.diags_dropped = 209;
  ps.redundant_flush_by_phase[static_cast<size_t>(Phase::kCommit)] = 210;
  ps.redundant_fence_by_phase[static_cast<size_t>(Phase::kFlushDrain)] = 211;
  ps.redundant_fence_by_phase[static_cast<size_t>(Phase::kAbortBackoff)] = 212;

  stats::RsanSummary& rs = r.rsan;
  rs.enabled = true;
  rs.events = 301;
  rs.loads = 302;
  rs.stores = 303;
  rs.acquires = 304;
  rs.releases = 305;
  rs.validated_reads = 306;
  rs.inherits = 307;
  rs.write_write_race = 308;
  rs.read_write_race = 309;
  rs.orec_coverage = 310;
  rs.early_release = 311;
  rs.diags_dropped = 312;

  stats::EpochStats& ep = r.epoch;
  ep.enabled = true;
  ep.epochs = 401;
  ep.member_txs = 1203;
  ep.closed_by_size = 402;
  ep.closed_by_age = 403;
  ep.closed_by_crash = 404;
  ep.size.record(2);
  ep.size.record(3);
  ep.size.record(7);

  stats::ContainmentStats& cm = r.containment;
  cm.enabled = true;
  cm.deaths = 501;
  cm.stuck_tx_reclaimed = 502;
  cm.aborts_on_behalf = 503;
  cm.commits_completed = 504;
  cm.leader_takeovers = 505;
  cm.zombies_fenced = 506;
  cm.watchdog_passes = 507;
  cm.reclaim_latency_ns.record(1000);
  cm.reclaim_latency_ns.record(2500);
  return r;
}

// The artifact schema, byte for byte: consumers (check_gates.py's gates
// and compare, the docs) depend on these keys and their order. A point
// with every opt-in section off has the default-config shape; turned on,
// the sections follow "recovery" in this order.
constexpr std::string_view kAllOffJson =
    R"({"workload":"w","config":"c","threads":1,"sim_ns":0,"throughput_tx_per_sec":0,)"
    R"("counters":{"commits":0,"aborts":0,"reads":0,"writes":0,"clwbs":0,"sfences":0,)"
    R"("log_bytes":0,"log_lines_hwm":0,"log_growths":0,"pmem_loads":0,"pmem_stores":0,)"
    R"("dram_cache_hits":0,"dram_cache_misses":0,"l3_hits":0,"l3_misses":0,)"
    R"("wpq_stall_ns":0,"fence_wait_ns":0,"energy_pj":0},)"
    R"("abort_causes":{"read_conflict":0,"write_conflict":0,"validation":0,)"
    R"("explicit":0,"capacity":0},"phases_ns":{},)"
    R"("recovery":{"slots_scanned":0,"slots_committed":0,"slots_rolled_back":0,)"
    R"("records_replayed":0,"records_stale":0,"records_torn":0,"records_invalid":0,)"
    R"("records_media_faulted":0,"records_discarded":0,"allocs_cancelled":0,)"
    R"("frees_applied":0,"segment_links_truncated":0,"log_crc_mismatches":0,)"
    R"("media_faults":0,"log_range_drops":0}})";

constexpr std::string_view kOptInSectionsJson =
    R"(,"scrub":{"passes":101,"lines_scanned":102,"crc_checks":103,)"
    R"("media_faults_found":104,"repaired":105,"unrepairable":106,)"
    R"("header_repairs":107,"skipped_busy":108})"
    R"(,"psan":{"events":201,"checks":202,"missing_flush":203,)"
    R"("misordered_persist":204,"redundant_flush":205,"redundant_fence":206,)"
    R"("unflushed_at_crash":207,"torn_at_crash":208,"diags_dropped":209,)"
    R"("redundant_flush_by_phase":{"commit":210},)"
    R"("redundant_fence_by_phase":{"flush_drain":211,"abort_backoff":212}})"
    R"(,"rsan":{"events":301,"loads":302,"stores":303,"acquires":304,)"
    R"("releases":305,"validated_reads":306,"inherits":307,)"
    R"("write_write_race":308,"read_write_race":309,"orec_coverage":310,)"
    R"("early_release":311,"diags_dropped":312})"
    R"(,"epoch":{"epochs":401,"member_txs":1203,"mean_size":3,)"
    R"("closed_by_size":402,"closed_by_age":403,"closed_by_crash":404,)"
    R"("size":{"count":3,"mean":4,"p50":3,"p90":7,"p99":7,"max":7}})"
    R"(,"containment":{"deaths":501,"stuck_tx_reclaimed":502,)"
    R"("aborts_on_behalf":503,"commits_completed":504,"leader_takeovers":505,)"
    R"("zombies_fenced":506,"watchdog_passes":507,)"
    R"("reclaim_latency_ns":{"count":2,"sum_ns":3500,"mean_ns":1750,)"
    R"("p50_ns":1023,"p90_ns":2500,"p99_ns":2500,"max_ns":2500}})";

TEST(ReportSections, GoldenBytes) {
  stats::RunResult off;
  off.workload = "w";
  off.config = "c";
  EXPECT_EQ(run_result_json(off), kAllOffJson);
  std::string on(kAllOffJson.substr(0, kAllOffJson.size() - 1));
  on += kOptInSectionsJson;
  on += '}';
  EXPECT_EQ(run_result_json(all_sections_on()), on);
}

// The REPRO_{P,R}SAN_OUT streams: one line per pool, the section's fields
// behind "enabled":true. psan's two _by_phase maps follow the stream's
// original keys.
TEST(ReportSections, JsonlRecordIsTheSectionBody) {
  const stats::RunResult r = all_sections_on();
  const std::string path = testing::TempDir() + "report_sections.jsonl";
  std::remove(path.c_str());
  stats::append_jsonl(path.c_str(), r.psan);
  stats::append_jsonl(path.c_str(), r.rsan);
  stats::append_jsonl(nullptr, r.psan);  // stream not requested: no-op
  std::ifstream in(path);
  std::string psan, rsan, extra;
  ASSERT_TRUE(std::getline(in, psan));
  ASSERT_TRUE(std::getline(in, rsan));
  EXPECT_FALSE(std::getline(in, extra));
  EXPECT_EQ(psan,
            R"({"enabled":true,"events":201,"checks":202,"missing_flush":203,)"
            R"("misordered_persist":204,"redundant_flush":205,"redundant_fence":206,)"
            R"("unflushed_at_crash":207,"torn_at_crash":208,"diags_dropped":209,)"
            R"("redundant_flush_by_phase":{"commit":210},)"
            R"("redundant_fence_by_phase":{"flush_drain":211,"abort_backoff":212}})");
  EXPECT_EQ(rsan,
            R"({"enabled":true,"events":301,"loads":302,"stores":303,"acquires":304,)"
            R"("releases":305,"validated_reads":306,"inherits":307,)"
            R"("write_write_race":308,"read_write_race":309,"orec_coverage":310,)"
            R"("early_release":311,"diags_dropped":312})");
  std::remove(path.c_str());
}

// Off means absent: a disabled section leaves no key behind (default-config
// artifacts keep their bytes) and does not disturb the other sections.
TEST(ReportSections, KeyPresentExactlyWhenEnabled) {
  using Flag = bool* (*)(stats::RunResult&);
  const std::pair<const char*, Flag> sections[] = {
      {"\"scrub\":{", [](stats::RunResult& r) { return &r.scrub.enabled; }},
      {"\"psan\":{", [](stats::RunResult& r) { return &r.psan.enabled; }},
      {"\"rsan\":{", [](stats::RunResult& r) { return &r.rsan.enabled; }},
      {"\"epoch\":{", [](stats::RunResult& r) { return &r.epoch.enabled; }},
      {"\"containment\":{",
       [](stats::RunResult& r) { return &r.containment.enabled; }},
  };
  for (const auto& off : sections) {
    stats::RunResult r = all_sections_on();
    *off.second(r) = false;
    const std::string js = run_result_json(r);
    for (const auto& s : sections) {
      EXPECT_EQ(js.find(s.first) != std::string::npos, s.first != off.first)
          << s.first << " with " << off.first << " off: " << js;
    }
  }
}

// --------------------------------------------------- PTM-integrated telemetry

TEST(Telemetry, PhasesPopulatedDuringTransactions) {
  TelemetryGuard g(true);
  test::Fixture fx(test::small_cfg(nvm::Domain::kAdr));
  auto* root = fx.pool.root<uint64_t>();
  for (int i = 0; i < 5; i++) {
    fx.rt.run(fx.ctx, [&](ptm::Tx& tx) {
      tx.write(root, tx.read(root) + 1);
    });
  }
  const auto& ph = fx.rt.counters(0).phases;
  EXPECT_EQ(ph[stats::Phase::kBegin].count(), 5u);
  EXPECT_EQ(ph[stats::Phase::kCommit].count(), 5u);  // success-only
  EXPECT_EQ(ph[stats::Phase::kRead].count(), 5u);
  EXPECT_EQ(ph[stats::Phase::kWrite].count(), 5u);
  EXPECT_GT(ph[stats::Phase::kCommit].sum(), 0u);    // ADR commits cost time
  EXPECT_GT(ph[stats::Phase::kFlushDrain].count(), 0u);
}

TEST(Telemetry, DisabledRecordsNothing) {
  TelemetryGuard g(false);
  test::Fixture fx(test::small_cfg(nvm::Domain::kAdr));
  auto* root = fx.pool.root<uint64_t>();
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) { tx.write(root, uint64_t{1}); });
  for (size_t i = 0; i < stats::kNumPhases; i++) {
    EXPECT_EQ(fx.rt.counters(0).phases.h[i].count(), 0u);
  }
  EXPECT_EQ(fx.rt.counters(0).commits, 1u);  // flat counters still work
}

TEST(Telemetry, DesContentionAttributesEveryAbort) {
  TelemetryGuard g(true);
  auto cfg = test::small_cfg(nvm::Domain::kAdr);
  for (auto algo : {ptm::Algo::kOrecLazy, ptm::Algo::kOrecEager}) {
    nvm::Pool pool(cfg);
    ptm::Runtime rt(pool, algo);
    auto* root = pool.root<uint64_t>();
    constexpr int kWorkers = 6;
    constexpr int kIncs = 200;
    sim::Engine engine(kWorkers);
    engine.run([&](sim::ExecContext& ctx) {
      for (int i = 0; i < kIncs; i++) {
        rt.run(ctx, [&](ptm::Tx& tx) { tx.write(root, tx.read(root) + 1); });
      }
    });
    const auto t = stats::aggregate(rt.snapshot_counters());
    EXPECT_EQ(t.commits, static_cast<uint64_t>(kWorkers) * kIncs);
    EXPECT_GT(t.aborts, 0u);
    uint64_t by_cause = 0;
    for (size_t i = 0; i < stats::kNumAbortCauses; i++) by_cause += t.aborts_by_cause[i];
    EXPECT_EQ(by_cause, t.aborts);  // every abort has exactly one cause
    EXPECT_EQ(t.aborts_of(stats::AbortCause::kExplicit), 0u);
    EXPECT_EQ(t.phases[stats::Phase::kCommit].count(), t.commits);
    EXPECT_EQ(t.phases[stats::Phase::kAbortBackoff].count(), t.aborts);
  }
}

// -------------------------------------------------------------------- Trace

TEST(Trace, RecordsSpansAndWritesChromeJson) {
  auto& tr = stats::Trace::instance();
  tr.clear();
  tr.enable();
  const int pid = tr.begin_run("unit/cfg/t1");
  EXPECT_EQ(pid, 1);
  tr.span(0, "tx", 100, 50, "outcome", "commit");
  tr.span(1, "fence_wait", 120, 10);
  EXPECT_EQ(tr.event_count(), 2u);

  std::ostringstream os;
  tr.write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"unit/cfg/t1\""), std::string::npos);
  EXPECT_NE(s.find("\"outcome\":\"commit\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\":0.1"), std::string::npos);  // 100ns = 0.1us

  tr.disable();
  tr.clear();
}

TEST(Trace, RingKeepsNewestEvents) {
  auto& tr = stats::Trace::instance();
  tr.clear();
  tr.enable(/*ring_capacity=*/4);
  for (uint64_t i = 0; i < 10; i++) tr.span(0, "tx", i * 100, 10);
  EXPECT_EQ(tr.event_count(), 4u);
  std::ostringstream os;
  tr.write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"ts\":0.9"), std::string::npos);   // event 9 kept
  EXPECT_EQ(s.find("\"ts\":0.5,"), std::string::npos);  // event 5 overwritten
  tr.disable();
  tr.clear();
}

TEST(Trace, RuntimeEmitsOneSpanPerAttempt) {
  auto& tr = stats::Trace::instance();
  tr.clear();
  tr.enable();
  test::Fixture fx(test::small_cfg(nvm::Domain::kAdr));
  auto* root = fx.pool.root<uint64_t>();
  int attempts = 0;
  fx.rt.run(fx.ctx, [&](ptm::Tx& tx) {
    attempts++;
    tx.write(root, uint64_t{1});
    if (attempts < 2) tx.abort_and_retry();
  });
  std::ostringstream os;
  tr.write_json(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"outcome\":\"commit\""), std::string::npos) << s;
  EXPECT_NE(s.find("\"outcome\":\"explicit\""), std::string::npos) << s;
  tr.disable();
  tr.clear();
}

}  // namespace
