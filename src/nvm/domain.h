// System configuration: media, durability domain, model parameters.
//
// One SystemConfig describes one experimental configuration from the paper,
// e.g. "Optane_ADR" or "DRAM_eADR" in Figures 3/4, or "PDRAM" / "PDRAM-Lite"
// in Figures 6/7. The PTM runtime and the memory model both read it.
#pragma once

#include <cstdint>
#include <string>

#include "nvm/cost_model.h"

namespace nvm {

/// Which logical region of the persistent pool an access touches. The
/// distinction matters only for PDRAM-Lite, where redo-log pages live in
/// battery-backed DRAM while data pages stay on Optane (paper §IV.B).
enum class Space : uint8_t { kData = 0, kLog = 1 };

/// Which unfenced lines spontaneously reach the persistence domain at an
/// ADR power failure (crash_sim only). The random modes are what a real
/// cache does; the directed schedules are adversarial probes for persist-
/// ordering bugs — e.g. kDataFirst persists every in-place data store
/// while dropping every unfenced log line, which breaks any algorithm
/// that writes data before its undo record is fenced.
enum class WritebackAdversary : uint8_t {
  kRandom = 0,     // independent coin per line (pending 0.5, evicted 0.3) — default
  kNone = 1,       // nothing unfenced persists (strictest WPQ-only ADR)
  kAll = 2,        // everything persists (eADR-like; ordering bugs hide)
  kLogFirst = 3,   // unfenced log lines persist, unfenced data lines drop
  kDataFirst = 4,  // unfenced data lines persist, unfenced log lines drop
};

/// psan, devstats, rsan and epoch_commit can also be forced on for every
/// pool in the process through REPRO_PSAN, REPRO_DEVSTATS, REPRO_RSAN and
/// REPRO_EPOCH: nvm::Pool resolves them into its own copy of the config
/// (Pool::config()) before building the memory model.
struct SystemConfig {
  Media media = Media::kOptane;   // backing media of the persistent heap
  Domain domain = Domain::kAdr;

  /// Table III variant: keep clwb instructions but skip all sfences. This
  /// is deliberately *incorrect* for durability; used only to measure the
  /// fraction of ADR overhead attributable to fences.
  bool elide_fences = false;

  /// Track a shadow persistence image so tests can simulate a power
  /// failure and exercise recovery. Off for performance runs.
  bool crash_sim = false;

  /// Run the persistency sanitizer (analysis::Psan): a per-cache-line
  /// flush/fence ordering checker over every instrumented access. Like
  /// telemetry/checksums it is zero-cost when off (one null-pointer test
  /// per hooked access) and changes no observable output.
  bool psan = false;

  /// Collect emulated-DIMM performance counters (stats::DevStats): media
  /// traffic at 256B XPLine granularity with write/read amplification,
  /// XPBuffer hit/miss, WPQ occupancy/drain histograms, channel
  /// utilization. Pure observation — never charges simulated time — and
  /// zero-cost when off (one null-pointer test per hook, like psan).
  bool devstats = false;

  /// Run the happens-before race & isolation sanitizer (analysis::Rsan):
  /// a FastTrack-style vector-clock detector over every instrumented
  /// load/store plus orec-protocol lints (coverage, early release). The
  /// DES runs cooperative fibers, so host TSan cannot see logical races
  /// between simulated workers — this can. Pure observation (charges zero
  /// simulated time) and zero-cost when off (one null-pointer test per
  /// hook, like psan/devstats).
  bool rsan = false;

  /// Sub-line tearing under ADR: when set, an unfenced line persists as a
  /// random 8-byte-aligned *subset* of its words instead of all-or-
  /// nothing, matching real ADR's 8-byte store atomicity. Fenced lines
  /// are still atomic (the WPQ drained them whole before the fence
  /// retired). crash_sim only; no effect on other domains.
  bool torn_stores = false;

  /// Which unfenced lines spontaneously persist at an ADR failure.
  WritebackAdversary writeback_adversary = WritebackAdversary::kRandom;

  /// Mirror log metadata: every sealed log line (record lines, the slot
  /// header's commit/seal words, segment-link headers) gets a second copy
  /// on a distinct XPLine inside the same per-worker meta area, written in
  /// the same flush/fence batches as the primary so the mirror is durable
  /// no later than the primary seal. Recovery and the scrubber fall back
  /// to the replica when the primary fails its CRC/media check and rewrite
  /// the primary in place. Opt-in like the crash-sim features; halves the
  /// in-slot log capacity.
  bool log_mirror = false;

  /// Background scrubber cadence in simulated nanoseconds; 0 disables the
  /// scrub fiber. When nonzero the workload driver schedules one extra
  /// DES fiber that walks sealed log lines and allocator metadata every
  /// `scrub_interval_ns`, validating CRCs and repairing poisoned lines
  /// from their mirrors (ptm::Scrubber).
  uint64_t scrub_interval_ns = 0;

  /// Group/epoch commit (ptm::EpochManager): committing workers publish
  /// their sealed-but-unmarked logs to a per-runtime queue and a leader-
  /// elected committer persists every member's log under one flush window,
  /// issues a single fence, and flips all COMMITTED statuses together —
  /// the per-transaction ordering points become per-epoch ones. Opt-in
  /// like psan/devstats/mirror. Durability semantics are unchanged:
  /// commit() only returns once the caller's transaction is durably marked.
  bool epoch_commit = false;

  /// Epoch close triggers: an epoch is drained as soon as `epoch_max_txs`
  /// members are queued, or when the oldest queued member has waited
  /// `epoch_max_ns` simulated nanoseconds (so a lone worker degrades to
  /// epochs of one instead of stalling).
  size_t epoch_max_txs = 8;
  uint64_t epoch_max_ns = 4000;

  /// Thread-crash containment (ptm::ContainmentManager): per-worker
  /// sim-time heartbeats plus an orec *lease*. A waiter (or the watchdog)
  /// that finds a transaction whose owner has not heartbeat for
  /// `tx_timeout_ns` treats the owner as dead, rolls its transaction back
  /// (or forward, if durably committed) on its behalf, releases its orecs
  /// and retires its slot (docs/FAULTS.md "Thread-crash containment").
  /// 0 disables containment entirely — the runtime carries a null manager
  /// and every hook is one null-pointer test, like psan/devstats.
  uint64_t tx_timeout_ns = 0;

  CostModel cost;

  // Modelled hierarchy geometry (the L3 is 16-way, the directory 1-way).
  uint64_t l3_bytes = 32ull << 20;
  uint64_t dram_cache_bytes = 96ull << 20;  // PDRAM directory capacity

  // Pool geometry.
  size_t pool_size = 64ull << 20;
  int max_workers = 33;
  size_t per_worker_meta_bytes = 1ull << 19;  // per-thread log + status area

  /// "Optane_ADR", "DRAM_eADR", "PDRAM", "PDRAM-Lite", ... — matches the
  /// curve labels used in the paper's figures.
  std::string name() const;

  /// True when the algorithm must issue clwb/sfence (ADR only).
  bool needs_flushes() const { return domain == Domain::kAdr; }
};

}  // namespace nvm
