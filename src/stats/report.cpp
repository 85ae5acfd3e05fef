#include "stats/report.h"

#include <string_view>

namespace stats {
namespace {

// Occupancy histograms count queue entries, not nanoseconds — same summary
// shape as write_histogram_summary but without the _ns suffixes.
void write_count_histogram_summary(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("mean", h.mean());
  w.kv("p50", h.p50());
  w.kv("p90", h.p90());
  w.kv("p99", h.p99());
  w.kv("max", h.max());
  w.end_object();
}

}  // namespace

void write_histogram_summary(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum_ns", h.sum());
  w.kv("mean_ns", h.mean());
  w.kv("p50_ns", h.p50());
  w.kv("p90_ns", h.p90());
  w.kv("p99_ns", h.p99());
  w.kv("max_ns", h.max());
  w.end_object();
}

namespace {

// One writer per opt-in summary: the section body (the caller owns the braces).

void write_fields(JsonWriter& w, const ScrubStats& sc) {
  w.kv("passes", sc.passes);
  w.kv("lines_scanned", sc.lines_scanned);
  w.kv("crc_checks", sc.crc_checks);
  w.kv("media_faults_found", sc.media_faults_found);
  w.kv("repaired", sc.repaired);
  w.kv("unrepairable", sc.unrepairable);
  w.kv("header_repairs", sc.header_repairs);
  w.kv("skipped_busy", sc.skipped_busy);
}

void write_fields(JsonWriter& w, const PsanSummary& ps) {
  w.kv("events", ps.events);
  w.kv("checks", ps.checks);
  w.kv("missing_flush", ps.missing_flush);
  w.kv("misordered_persist", ps.misordered_persist);
  w.kv("redundant_flush", ps.redundant_flush);
  w.kv("redundant_fence", ps.redundant_fence);
  w.kv("unflushed_at_crash", ps.unflushed_at_crash);
  w.kv("torn_at_crash", ps.torn_at_crash);
  w.kv("diags_dropped", ps.diags_dropped);
  // Phase attribution for the perf lints; only phases that lint.
  w.key("redundant_flush_by_phase").begin_object();
  for (size_t i = 0; i < kNumPhases; i++) {
    if (ps.redundant_flush_by_phase[i] == 0) continue;
    w.kv(phase_name(static_cast<Phase>(i)), ps.redundant_flush_by_phase[i]);
  }
  w.end_object();
  w.key("redundant_fence_by_phase").begin_object();
  for (size_t i = 0; i < kNumPhases; i++) {
    if (ps.redundant_fence_by_phase[i] == 0) continue;
    w.kv(phase_name(static_cast<Phase>(i)), ps.redundant_fence_by_phase[i]);
  }
  w.end_object();
}

void write_fields(JsonWriter& w, const RsanSummary& rs) {
  w.kv("events", rs.events);
  w.kv("loads", rs.loads);
  w.kv("stores", rs.stores);
  w.kv("acquires", rs.acquires);
  w.kv("releases", rs.releases);
  w.kv("validated_reads", rs.validated_reads);
  w.kv("inherits", rs.inherits);
  w.kv("write_write_race", rs.write_write_race);
  w.kv("read_write_race", rs.read_write_race);
  w.kv("orec_coverage", rs.orec_coverage);
  w.kv("early_release", rs.early_release);
  w.kv("diags_dropped", rs.diags_dropped);
}

void write_fields(JsonWriter& w, const EpochStats& ep) {
  w.kv("epochs", ep.epochs);
  w.kv("member_txs", ep.member_txs);
  w.kv("mean_size", ep.mean_size());
  w.kv("closed_by_size", ep.closed_by_size);
  w.kv("closed_by_age", ep.closed_by_age);
  w.kv("closed_by_crash", ep.closed_by_crash);
  w.key("size");
  write_count_histogram_summary(w, ep.size);
}

void write_fields(JsonWriter& w, const ContainmentStats& cm) {
  w.kv("deaths", cm.deaths);
  w.kv("stuck_tx_reclaimed", cm.stuck_tx_reclaimed);
  w.kv("aborts_on_behalf", cm.aborts_on_behalf);
  w.kv("commits_completed", cm.commits_completed);
  w.kv("leader_takeovers", cm.leader_takeovers);
  w.kv("zombies_fenced", cm.zombies_fenced);
  w.kv("watchdog_passes", cm.watchdog_passes);
  w.key("reclaim_latency_ns");
  write_histogram_summary(w, cm.reclaim_latency_ns);
}

/// `"name":{...}` when the layer ran; nothing at all when it did not, so
/// default-config artifacts keep the bytes they had before the layer existed.
template <typename Summary>
void write_section(JsonWriter& w, std::string_view name, const Summary& s) {
  if (!s.enabled) return;
  w.key(name).begin_object();
  write_fields(w, s);
  w.end_object();
}

}  // namespace

std::string RunResult::verdict() const {
  const RecoveryReport& rec = recovery;
  const struct {
    const char* key;
    uint64_t value;
    const char* why;
  } checks[] = {
      {"recovery.records_torn", rec.records_torn, "per-record CRC failures on a fresh pool"},
      {"recovery.records_invalid", rec.records_invalid,
       "log records with out-of-bounds offsets"},
      {"recovery.records_media_faulted", rec.records_media_faulted,
       "records lost to media faults"},
      {"recovery.log_crc_mismatches", rec.log_crc_mismatches,
       "committed whole-log checksum mismatches"},
      {"recovery.media_faults", rec.media_faults, "poisoned lines present at startup"},
      {"recovery.segment_links_truncated", rec.segment_links_truncated,
       "overflow-chain links dropped"},
      {"recovery.log_range_drops", log_range_drops,
       "log-range registrations dropped (PDRAM-Lite misroute)"},
      {"recovery.records_lost", rec.mirror_enabled ? rec.records_lost : 0,
       "log records with no usable copy despite mirroring"},
      {"abort_causes.capacity", totals.aborts_of(AbortCause::kCapacity),
       "transactions outgrew their per-worker log or write index"},
  };
  for (const auto& c : checks) {
    if (c.value != 0) return std::string(c.key) + "=" + std::to_string(c.value) + ": " + c.why;
  }
  return "";
}

void write_run_result_fields(JsonWriter& w, const RunResult& r) {
  w.kv("workload", r.workload);
  w.kv("config", r.config);
  w.kv("threads", r.threads);
  w.kv("sim_ns", r.sim_ns);
  w.kv("throughput_tx_per_sec", r.throughput_tx_per_sec());

  const TxCounters& c = r.totals;
  w.key("counters").begin_object();
  w.kv("commits", c.commits);
  w.kv("aborts", c.aborts);
  w.kv("reads", c.reads);
  w.kv("writes", c.writes);
  w.kv("clwbs", c.clwbs);
  w.kv("sfences", c.sfences);
  w.kv("log_bytes", c.log_bytes);
  w.kv("log_lines_hwm", c.log_lines_hwm);
  w.kv("log_growths", c.log_growths);
  w.kv("pmem_loads", c.pmem_loads);
  w.kv("pmem_stores", c.pmem_stores);
  w.kv("dram_cache_hits", c.dram_cache_hits);
  w.kv("dram_cache_misses", c.dram_cache_misses);
  w.kv("l3_hits", c.l3_hits);
  w.kv("l3_misses", c.l3_misses);
  w.kv("wpq_stall_ns", c.wpq_stall_ns);
  w.kv("fence_wait_ns", c.fence_wait_ns);
  w.kv("energy_pj", c.energy_pj);
  w.end_object();

  w.key("abort_causes").begin_object();
  for (size_t i = 0; i < kNumAbortCauses; i++) {
    w.kv(abort_cause_name(static_cast<AbortCause>(i)), c.aborts_by_cause[i]);
  }
  w.end_object();

  // Only phases that recorded samples; an empty object means the run had
  // telemetry off (flat counters only).
  w.key("phases_ns").begin_object();
  for (size_t i = 0; i < kNumPhases; i++) {
    const auto p = static_cast<Phase>(i);
    if (c.phases[p].count() == 0) continue;
    w.key(phase_name(p));
    write_histogram_summary(w, c.phases[p]);
  }
  w.end_object();

  const RecoveryReport& rec = r.recovery;
  w.key("recovery").begin_object();
  w.kv("slots_scanned", rec.slots_scanned);
  w.kv("slots_committed", rec.slots_committed);
  w.kv("slots_rolled_back", rec.slots_rolled_back);
  w.kv("records_replayed", rec.records_replayed);
  w.kv("records_stale", rec.records_stale);
  w.kv("records_torn", rec.records_torn);
  w.kv("records_invalid", rec.records_invalid);
  w.kv("records_media_faulted", rec.records_media_faulted);
  w.kv("records_discarded", rec.records_discarded());
  w.kv("allocs_cancelled", rec.allocs_cancelled);
  w.kv("frees_applied", rec.frees_applied);
  w.kv("segment_links_truncated", rec.segment_links_truncated);
  w.kv("log_crc_mismatches", rec.log_crc_mismatches);
  w.kv("media_faults", rec.media_faults);
  w.kv("log_range_drops", r.log_range_drops);
  if (rec.mirror_enabled) {
    // Mirror-era damage verdict keys appear only when mirroring ran, so
    // default-config artifacts keep their pre-mirror shape byte for byte.
    w.kv("records_damaged", rec.records_damaged);
    w.kv("records_repaired", rec.records_repaired);
    w.kv("records_lost", rec.records_lost);
    w.kv("mirror_enabled", rec.mirror_enabled);
  }
  w.end_object();

  write_section(w, "scrub", r.scrub);
  write_section(w, "psan", r.psan);
  write_section(w, "rsan", r.rsan);
  write_section(w, "epoch", r.epoch);
  write_section(w, "containment", r.containment);

  if (r.device.enabled) {
    w.key("device").begin_object();
    write_device_fields(w, r.device, r.totals.energy_pj);
    w.end_object();
  }
}

void write_device_fields(JsonWriter& w, const DeviceCounters& d, double dynamic_pj) {
  w.kv("enabled", d.enabled);

  w.key("optane").begin_object();
  w.kv("host_lines_written", d.host_lines_written);
  w.kv("host_lines_read", d.host_lines_read);
  w.kv("xpline_writes", d.xpline_writes);
  w.kv("xpline_reads", d.xpline_reads);
  w.kv("xpline_rmw_reads", d.xpline_rmw_reads);
  w.kv("write_amplification", d.write_amplification());
  w.kv("effective_write_ratio", d.effective_write_ratio());
  w.kv("read_amplification", d.read_amplification());
  w.end_object();

  w.key("xpbuffer").begin_object();
  w.kv("hits", d.xpbuffer_hits);
  w.kv("misses", d.xpbuffer_misses);
  w.kv("read_hits", d.xpbuffer_read_hits);
  w.kv("drains", d.xpbuffer_drains);
  w.kv("flushes", d.xpbuffer_flushes);
  w.kv("hit_rate", d.xpbuffer_hit_rate());
  w.end_object();

  w.key("dram").begin_object();
  w.kv("lines_read", d.dram_lines_read);
  w.kv("lines_written", d.dram_lines_written);
  w.end_object();

  w.key("wpq").begin_object();
  w.kv("enqueues", d.wpq_enqueues);
  w.kv("peak_occupancy", d.wpq_peak_occupancy);
  w.key("occupancy");
  write_count_histogram_summary(w, d.wpq_occupancy);
  w.key("drain_ns");
  write_histogram_summary(w, d.wpq_drain_ns);
  w.key("workers").begin_array();
  for (const WpqWorkerStats& ws : d.wpq_workers) {
    w.begin_object();
    w.kv("worker", ws.worker);
    w.key("occupancy");
    write_count_histogram_summary(w, ws.occupancy);
    w.key("drain_ns");
    write_histogram_summary(w, ws.drain_ns);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  // Stall-time histograms named by the PR 1 phase taxonomy.
  w.key("stalls").begin_object();
  w.key("fence_wait");
  write_histogram_summary(w, d.fence_stall_ns);
  w.key("wpq_stall");
  write_histogram_summary(w, d.wpq_stall_ns);
  w.end_object();

  w.key("channels").begin_object();
  for (size_t i = 0; i < kNumChannels; i++) {
    w.key(channel_name(i)).begin_object();
    w.kv("requests", d.channels[i].requests);
    w.kv("busy_ns", d.channels[i].busy_ns);
    w.kv("utilization", d.channels[i].utilization(d.sim_end_ns));
    w.end_object();
  }
  w.end_object();

  w.key("energy").begin_object();
  w.kv("dynamic_pj", dynamic_pj);
  w.kv("reserve_energy_j", d.reserve_energy_j);
  w.kv("drain_seconds", d.drain_seconds);
  w.kv("reserve_technology", d.reserve_technology);
  w.end_object();
}

}  // namespace stats
