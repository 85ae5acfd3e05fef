// Result record for one (workload, configuration, thread-count) benchmark
// point, plus throughput math shared by all bench binaries and the JSON
// artifact serialization (docs/OBSERVABILITY.md documents the schema).
#pragma once

#include <cstdint>
#include <string>

#include "stats/counters.h"
#include "stats/devstats.h"
#include "stats/json_writer.h"

namespace stats {

struct RunResult {
  std::string workload;
  std::string config;       // e.g. "Optane_ADR_R"
  int threads = 1;
  uint64_t sim_ns = 0;      // simulated wall time of the run (max worker clock)
  TxCounters totals;

  // Emulated DIMM counters (stats::DevStats); serialized under a "device"
  // key only when device.enabled, so default-config artifacts stay
  // byte-identical to runs built before the subsystem existed.
  DeviceCounters device;

  // How the simulator itself ran. Never serialized in the deterministic
  // REPRO_JSON artifact: wall time varies run to run.
  uint64_t wall_ns = 0;           // host time inside Engine::run: ptmbench's run_s
  uint64_t channel_requests = 0;  // bandwidth-channel grants: ptmbench's "sim" section
  uint64_t fiber_switches = 0;    // sim::Engine handoffs: DriverTest.DeterministicAcrossCalls

  /// Simulation events processed: the instrumented-access count that
  /// dominates DES work. ptmbench reports it and derives
  /// sim.mevents_per_s from it (benchmark/README.md).
  uint64_t sim_events() const {
    return totals.pmem_loads + totals.pmem_stores + totals.clwbs + totals.sfences;
  }

  // Startup recovery outcome for this point's pool (a fresh pool recovers
  // trivially: all-zero except slots_scanned) plus log-range registrations
  // the memory model had to drop. CI gates on these being clean — see
  // scripts/check_gates.py.
  RecoveryReport recovery;
  uint64_t log_range_drops = 0;

  // The opt-in layers' summaries. Each is serialized under its own key
  // ("scrub", "psan", "rsan", "epoch", "containment") only when its
  // `enabled` flag is set, so default-config artifacts stay byte-identical
  // to runs built before the layer existed.
  ScrubStats scrub;              // background scrubber (scrub_interval_ns > 0)
  PsanSummary psan;              // persistency sanitizer (analysis::Psan)
  RsanSummary rsan;              // race/isolation sanitizer (analysis::Rsan)
  EpochStats epoch;              // group/epoch commit (ptm::EpochManager)
  ContainmentStats containment;  // thread-crash containment (ptm::ContainmentManager)

  /// Committed transactions per simulated second.
  double throughput_tx_per_sec() const {
    if (sim_ns == 0) return 0.0;
    return static_cast<double>(totals.commits) * 1e9 / static_cast<double>(sim_ns);
  }

  /// Throughput scaled to Mtx/s for compact table cells.
  double throughput_mtx_per_sec() const { return throughput_tx_per_sec() / 1e6; }
};

/// Append this result's fields (workload/config/threads, throughput, flat
/// counters, abort causes, per-phase p50/p90/p99 summaries) as keys of the
/// JSON object currently open on `w`. The caller owns the object braces so
/// it can prepend identification keys (bench title, curve label).
void write_run_result_fields(JsonWriter& w, const RunResult& r);

/// Phase summary helper, also used on its own by tests: writes an object
/// {count,sum_ns,mean_ns,p50_ns,p90_ns,p99_ns,max_ns} for one histogram.
void write_histogram_summary(JsonWriter& w, const Histogram& h);

/// Append one sanitizer summary to the JSONL file at `path` (the
/// REPRO_{P,R}SAN_OUT streams) as {"enabled":true, <the fields of its
/// REPRO_JSON section>}. No-op when `path` is null or cannot be opened.
void append_jsonl(const char* path, const PsanSummary& s);
void append_jsonl(const char* path, const RsanSummary& s);

/// Write the "device" section body (media/XPBuffer/WPQ/stall/channel/energy
/// counters; docs/OBSERVABILITY.md documents the schema). `dynamic_pj` is
/// the run's accumulated TxCounters::energy_pj. The caller owns the object
/// braces, like write_run_result_fields.
void write_device_fields(JsonWriter& w, const DeviceCounters& d, double dynamic_pj);

}  // namespace stats
