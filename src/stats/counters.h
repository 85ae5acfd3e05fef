// Per-thread event counters for the PTM runtime and the memory model.
//
// Every quantity the paper reports — committed transactions, aborts
// (Tables I/II report commits-per-abort), clwb/sfence counts (Table III is
// about fence cost), redo-log footprint high-watermarks (§IV.B) — is
// accumulated here. Counters are per-thread and unsynchronized; aggregation
// happens after workers join.
//
// Beyond the flat sums, each TxCounters carries the telemetry layer's
// per-phase latency histograms (populated only while
// stats::telemetry_enabled()) and a per-cause abort breakdown, so the
// distributional claims — lock-hold windows, WPQ stalls, conflict types —
// are directly observable rather than inferred from throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/histogram.h"

namespace stats {

/// Why a transaction aborted. The single `aborts` sum remains the total;
/// the per-cause array lets Tables I/II attribute degradation to read-time
/// conflicts vs commit/encounter-time write conflicts vs validation
/// failures (paper §III.B discusses exactly this split).
enum class AbortCause : uint8_t {
  kConflictRead = 0,  // orec locked/too-new when reading
  kConflictWrite,     // orec conflict acquiring the write set
  kValidation,        // read-set validation failed at commit
  kExplicit,          // user-requested abort_and_retry()
  kCapacity,          // log / write-set capacity exhausted; runtime grows + retries
};
inline constexpr size_t kNumAbortCauses = 5;

const char* abort_cause_name(AbortCause c);

struct TxCounters {
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t aborts_by_cause[kNumAbortCauses] = {};
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t clwbs = 0;
  uint64_t sfences = 0;
  uint64_t log_bytes = 0;           // bytes appended to redo/undo logs
  uint64_t log_lines_hwm = 0;       // high-watermark of log cache lines per tx
  uint64_t log_growths = 0;         // overflow log segments / index growths installed
  uint64_t pmem_loads = 0;          // loads served by the persistent media
  uint64_t pmem_stores = 0;
  uint64_t dram_cache_hits = 0;     // PDRAM / Memory-Mode directory hits
  uint64_t dram_cache_misses = 0;
  uint64_t l3_hits = 0;
  uint64_t l3_misses = 0;
  uint64_t wpq_stall_ns = 0;        // simulated ns spent waiting on a full WPQ
  uint64_t fence_wait_ns = 0;       // simulated ns spent in sfence drains
  double energy_pj = 0;             // modelled dynamic energy (nvm::EnergyModel)

  /// Per-phase latency histograms; empty unless telemetry_enabled().
  PhaseHists phases;

  void add(const TxCounters& o);
  void reset() { *this = TxCounters{}; }

  uint64_t aborts_of(AbortCause c) const {
    return aborts_by_cause[static_cast<size_t>(c)];
  }

  /// Commits per abort. Sentinel: returns +infinity when there were no
  /// aborts — "no aborts" is a *better* outcome than any finite ratio and
  /// must not collapse onto 0 (which legitimately means "no commits").
  /// Tables print the infinity case as "-" via util::fmt_ratio, matching
  /// the paper's blank single-thread cells.
  double commit_abort_ratio() const;
};

/// Sum a vector of per-thread counters (histograms merge bucket-wise).
TxCounters aggregate(const std::vector<TxCounters>& per_thread);

/// What Runtime::recover() did and what it refused to trust. Every record
/// recovery looks at lands in exactly one bucket; the "discarded" buckets
/// distinguish *expected* crash debris (stale tags, torn records the CRC
/// caught, truncated segment links) from damage (media faults, out-of-
/// bounds offsets, whole-log checksum mismatches on committed logs). On a
/// clean start — or after recovering a crash that tore nothing — all
/// discard buckets are zero; CI gates on that for non-crash runs
/// (scripts/check_gates.py).
struct RecoveryReport {
  uint64_t slots_scanned = 0;         // worker slots examined
  uint64_t slots_committed = 0;       // redo logs replayed forward
  uint64_t slots_rolled_back = 0;     // undo logs applied in reverse
  uint64_t records_replayed = 0;      // redo/undo records actually applied
  uint64_t records_stale = 0;         // epoch-tag mismatch (normal debris)
  uint64_t records_torn = 0;          // per-record CRC failure (crash_sim)
  uint64_t records_invalid = 0;       // offset out of bounds / misaligned
  uint64_t records_media_faulted = 0; // record bytes on a poisoned line
  uint64_t allocs_cancelled = 0;      // speculative allocations returned
  uint64_t frees_applied = 0;         // committed frees performed
  uint64_t segment_links_truncated = 0;  // overflow chain links dropped
  uint64_t log_crc_mismatches = 0;    // committed whole-log CRC failures
  uint64_t media_faults = 0;          // poisoned lines known at recovery

  // Damage accounting split (detected / repaired / lost). The legacy
  // buckets above keep attributing each *primary-copy* screening failure;
  // these three add the mirror-era verdict: every primary-copy damage
  // observation counts as detected, damage healed from an intact mirror
  // copy counts as repaired, and damage with no usable copy left counts
  // as lost. With mirroring on, nonzero detected/torn/media buckets can
  // therefore coexist with records_lost == 0 — that is the feature
  // working, not an inconsistency.
  uint64_t records_damaged = 0;   // detected: primary-copy damage observations
  uint64_t records_repaired = 0;  // primary rewritten in place from its mirror
  uint64_t records_lost = 0;      // both copies unusable (or no mirror existed)
  bool mirror_enabled = false;    // SystemConfig::log_mirror at recovery time

  /// Records recovery refused to apply for any reason other than a stale
  /// tag (stale tags are ordinary leftovers, not damage).
  uint64_t records_discarded() const {
    return records_torn + records_invalid + records_media_faulted;
  }
};

/// Surfaced by Runtime::recover() under RecoveryPolicy::kSalvage when
/// damage was beyond repair: what was lost and what got quarantined so
/// the runtime could keep going. All-zero (degraded == false) on every
/// healthy recovery.
struct DegradedReport {
  bool degraded = false;          // any unrepairable damage seen
  uint64_t lost_records = 0;      // log records with no usable copy
  uint64_t lost_txs = 0;          // slots that lost at least one record/header
  uint64_t quarantined_bytes = 0;   // heap bytes excluded from reuse
  uint64_t quarantined_blocks = 0;  // allocator blocks diverted from free lists
};

/// Background scrubber counters (ptm::Scrubber), one pool lifetime.
/// Serialized under the "scrub" key of REPRO_JSON artifacts only when the
/// scrubber ran (enabled), keeping default-config output unchanged.
struct ScrubStats {
  bool enabled = false;
  uint64_t passes = 0;             // full walks completed
  uint64_t lines_scanned = 0;      // log/metadata cache lines examined
  uint64_t crc_checks = 0;         // sealed header CRC validations
  uint64_t media_faults_found = 0; // poisoned lines detected while scanning
  uint64_t repaired = 0;           // lines rewritten in place from a mirror
  uint64_t unrepairable = 0;       // poisoned lines with no healthy mirror
  uint64_t header_repairs = 0;     // of `repaired`: slot/segment header lines
  uint64_t skipped_busy = 0;       // slots skipped because a tx was in flight
};

/// Aggregated verdict of the persistency sanitizer (analysis::Psan) for
/// one pool lifetime. The correctness counters must be zero on every
/// run of the shipped algorithms; the redundant_* counters are perf
/// lints (extra Table III fence/flush cost), broken down by the phase
/// taxonomy so a lint points at the code path that issued it. Serialized
/// under the "psan" key of REPRO_JSON artifacts (only when enabled) and
/// gated in CI by scripts/check_gates.py.
struct PsanSummary {
  bool enabled = false;
  uint64_t events = 0;              // hooked store/clwb/sfence instructions
  uint64_t checks = 0;              // (worker, line) ordering-point checks
  uint64_t missing_flush = 0;       // correctness: unpersisted line at an ordering point
  uint64_t misordered_persist = 0;  // correctness: store issued ahead of required persist
  uint64_t redundant_flush = 0;     // lint: clwb of an already-persisted line
  uint64_t redundant_fence = 0;     // lint: sfence with nothing pending
  uint64_t unflushed_at_crash = 0;  // info: dirty-never-flushed lines at power failure
  uint64_t torn_at_crash = 0;       // info: flushed-but-unfenced lines at power failure
  uint64_t diags_dropped = 0;       // diagnostics beyond the storage cap (counts stay exact)
  uint64_t redundant_flush_by_phase[kNumPhases] = {};
  uint64_t redundant_fence_by_phase[kNumPhases] = {};

  /// The CI-gated total: any nonzero value is an ordering bug.
  uint64_t correctness() const { return missing_flush + misordered_persist; }
};

/// Aggregated verdict of the happens-before race & isolation sanitizer
/// (analysis::Rsan) for one pool lifetime. The four race/protocol kinds
/// are correctness counters — any nonzero value means a synchronization
/// bug in a PTM protocol, not a style issue. Serialized under the "rsan"
/// key of REPRO_JSON artifacts (only when enabled) and gated in CI by
/// scripts/check_gates.py.
struct RsanSummary {
  bool enabled = false;
  uint64_t events = 0;           // hooked load/store/sync instructions
  uint64_t loads = 0;            // in-transaction tracked loads
  uint64_t stores = 0;           // in-transaction tracked stores
  uint64_t acquires = 0;         // orec acquisitions (CAS to locked)
  uint64_t releases = 0;         // orec releases (version publishes)
  uint64_t validated_reads = 0;  // orec-mediated reads that passed v1==v2
  uint64_t inherits = 0;         // clock inheritances (reclaim, takeover)
  uint64_t write_write_race = 0;  // correctness: unordered store/store
  uint64_t read_write_race = 0;   // correctness: unordered load/store
  uint64_t orec_coverage = 0;     // correctness: tx data access w/o orec
  uint64_t early_release = 0;     // correctness: orec freed over in-flight stores
  uint64_t diags_dropped = 0;     // diagnostics beyond the storage cap

  /// The CI-gated total: any nonzero value is a synchronization bug.
  uint64_t correctness() const {
    return write_write_race + read_write_race + orec_coverage + early_release;
  }
};

/// Group/epoch-commit counters (ptm::EpochManager), one runtime lifetime.
/// Serialized under the "epoch" key of REPRO_JSON artifacts only when the
/// mode ran (enabled), keeping default-config output unchanged. The size
/// histogram is count-valued (members per epoch), not nanoseconds.
struct EpochStats {
  bool enabled = false;
  uint64_t epochs = 0;            // epochs drained (leader drain passes)
  uint64_t member_txs = 0;        // transactions committed through epochs
  uint64_t closed_by_size = 0;    // drains triggered by epoch_max_txs
  uint64_t closed_by_age = 0;     // drains triggered by epoch_max_ns
  uint64_t closed_by_crash = 0;   // batches abandoned by a mid-drain crash
  Histogram size;                 // members per drained epoch

  /// Mean members per epoch — the fence-amortization factor.
  double mean_size() const {
    return epochs == 0 ? 0.0
                       : static_cast<double>(member_txs) / static_cast<double>(epochs);
  }
};

/// Thread-crash containment counters (ptm::ContainmentManager), one
/// runtime lifetime. Serialized under the "containment" key of REPRO_JSON
/// artifacts only when containment ran (enabled), keeping default-config
/// output unchanged. The latency histogram measures lease-expiry-to-
/// reclaim-complete in simulated nanoseconds.
struct ContainmentStats {
  bool enabled = false;
  uint64_t deaths = 0;             // fibers that died (FiberKill unwound run())
  uint64_t stuck_tx_reclaimed = 0; // expired transactions cleaned up on behalf
  uint64_t aborts_on_behalf = 0;   // of reclaimed: rolled back (not durably committed)
  uint64_t commits_completed = 0;  // of reclaimed: rolled forward (durably committed)
  uint64_t leader_takeovers = 0;   // epoch drains stolen from an expired leader
  uint64_t zombies_fenced = 0;     // stalled workers killed on wake after reclamation
  uint64_t watchdog_passes = 0;    // ContainmentManager::sweep calls
  Histogram reclaim_latency_ns;    // lease expiry -> slot retired, per reclaim
};

/// Record a phase latency if telemetry is on and a counter sink exists.
/// The memory model uses this for WPQ-stall / fence-wait events, which are
/// observed inside nvm::Memory rather than in Tx scope.
inline void record_phase(TxCounters* c, Phase p, uint64_t ns) {
  if (c != nullptr && telemetry_enabled()) c->phases.record(p, ns);
}

}  // namespace stats
