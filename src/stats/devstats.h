// Emulated DIMM performance counters ("devstats") — an ipmctl/pmwatch-style
// view of the simulated Optane device, answering the device-level questions
// the transaction telemetry (PR 1) cannot: how much media traffic the
// 256-byte XPLine access granularity really causes (write/read
// amplification), how well the DIMM's small write-combining XPBuffer
// coalesces adjacent 64-byte lines, how full the WPQ runs and how long
// enqueued lines take to drain, and how busy each bandwidth channel is.
//
// The collector sits behind the nvm::Memory hooks (one null-pointer test
// per hook when off, exactly like analysis::Psan) and is pure observation:
// it never charges simulated time, so enabling it cannot perturb any
// seed-deterministic result — tests assert that a devstats-on run produces
// bit-identical counters and sim_ns to a devstats-off run.
//
// Model notes (paper §II/§III.A and the Izraelevitz et al. measurements):
//   * Optane media is accessed in 256 B XPLines; every 64 B line the DIMM
//     receives is a *quarter* of one. A small on-DIMM write-combining
//     buffer (the "XPBuffer") merges adjacent lines; an eviction writes one
//     whole XPLine, and evicting a partially-filled entry first costs a
//     read-modify-write media read. Random 64 B writes therefore amplify
//     up to 4x on the media, sequential writes coalesce to ~1x — the
//     granularity effect behind the paper's redo-vs-undo media traffic gap.
//   * DRAM serves 64 B lines natively: no amplification, counted flat.
//
// Enablement: SystemConfig::devstats, or REPRO_DEVSTATS=1 in the
// environment. When the Chrome trace recorder is also on, the hooks layer
// emits periodic (simulated-time) counter events ("ph":"C") so device
// timelines appear alongside the PR 1 spans. See docs/OBSERVABILITY.md.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.h"
#include "util/worker_slots.h"

namespace stats {

class Trace;

/// Media index used by the device counters. Mirrors nvm::Media's values
/// without the header dependency — stats stays below nvm in the layering.
inline constexpr int kMediaDram = 0;
inline constexpr int kMediaOptane = 1;

/// Bandwidth-channel accounting copied out of the nvm model at snapshot
/// time. `busy_ns` is the total booked service time, so utilization is
/// busy/elapsed (a single-server queue is saturated at 1.0).
struct ChannelStats {
  uint64_t requests = 0;
  uint64_t busy_ns = 0;

  double utilization(uint64_t elapsed_ns) const {
    if (elapsed_ns == 0) return 0.0;
    return static_cast<double>(busy_ns) / static_cast<double>(elapsed_ns);
  }
};

/// Channel order in DeviceCounters::channels (matches nvm::Memory's four
/// BandwidthChannel members).
enum : size_t {
  kChanDramRead = 0,
  kChanDramWrite,
  kChanOptaneRead,
  kChanOptaneWrite,
  kNumChannels,
};
const char* channel_name(size_t i);

/// Per-worker WPQ behaviour: occupancy observed at each enqueue and the
/// enqueue-to-drain latency granted by the write channel.
struct WpqWorkerStats {
  int worker = 0;
  Histogram occupancy;
  Histogram drain_ns;
};

/// One run's device-level counters — the "device" section of REPRO_JSON.
/// Plain data; filled by DevStats::snapshot() plus nvm::Memory (channels,
/// energy) at the end of a run.
struct DeviceCounters {
  bool enabled = false;

  // --- Optane media, 256 B XPLine granularity ---
  uint64_t host_lines_written = 0;  // 64 B lines the DIMM received
  uint64_t host_lines_read = 0;     // 64 B line reads the DIMM served
  uint64_t xpline_writes = 0;       // 256 B media writes (evictions + flushes)
  uint64_t xpline_reads = 0;        // 256 B media reads serving host reads
  uint64_t xpline_rmw_reads = 0;    // read-modify-write fills of partial evictions
  uint64_t xpbuffer_hits = 0;       // host write coalesced into a buffered XPLine
  uint64_t xpbuffer_misses = 0;     // host write had to claim a buffer entry
  uint64_t xpbuffer_read_hits = 0;  // host read served from the buffer
  uint64_t xpbuffer_drains = 0;     // entries retired by the residency-window drain
  uint64_t xpbuffer_flushes = 0;    // entries still buffered at snapshot

  // --- DRAM media (64 B native, no amplification) ---
  uint64_t dram_lines_read = 0;
  uint64_t dram_lines_written = 0;

  // --- WPQ ---
  uint64_t wpq_enqueues = 0;
  uint64_t wpq_peak_occupancy = 0;
  Histogram wpq_occupancy;              // merged across workers
  Histogram wpq_drain_ns;               // merged across workers
  std::vector<WpqWorkerStats> wpq_workers;  // only workers that enqueued

  // --- stall time, named by the PR 1 phase taxonomy ---
  Histogram fence_stall_ns;  // phase "fence_wait": sfence drain waits
  Histogram wpq_stall_ns;    // phase "wpq_stall": full-queue / saturated-channel stalls

  // --- channels + run extent (filled by nvm::Memory::device_snapshot) ---
  std::array<ChannelStats, kNumChannels> channels{};
  uint64_t sim_end_ns = 0;

  // --- energy (nvm::EnergyModel; dynamic pJ lives in TxCounters) ---
  double reserve_energy_j = 0;
  double drain_seconds = 0;
  std::string reserve_technology;

  /// Media bytes written per host byte written (>= 1.0 unless the XPBuffer
  /// absorbed rewrites of the same 64 B line). 0 when nothing was written.
  double write_amplification() const {
    if (host_lines_written == 0) return 0.0;
    return static_cast<double>(xpline_writes * kXplineBytes) /
           static_cast<double>(host_lines_written * kHostLineBytes);
  }

  /// ipmctl's EWR: host bytes per media byte (higher is better, 1.0 ideal).
  double effective_write_ratio() const {
    if (xpline_writes == 0) return 0.0;
    return static_cast<double>(host_lines_written * kHostLineBytes) /
           static_cast<double>(xpline_writes * kXplineBytes);
  }

  /// Media bytes read per host byte read (4.0 when nothing coalesces).
  double read_amplification() const {
    if (host_lines_read == 0) return 0.0;
    return static_cast<double>(xpline_reads * kXplineBytes) /
           static_cast<double>(host_lines_read * kHostLineBytes);
  }

  double xpbuffer_hit_rate() const {
    const uint64_t total = xpbuffer_hits + xpbuffer_misses;
    return total == 0 ? 0.0 : static_cast<double>(xpbuffer_hits) / static_cast<double>(total);
  }

  static constexpr uint64_t kHostLineBytes = 64;
  static constexpr uint64_t kXplineBytes = 256;
};

/// The collector. One instance per nvm::Memory (i.e. per pool), touched
/// only from the hooks layer. Like the rest of the observability stack it
/// runs under the discrete-event engine's one-worker-at-a-time rule, so
/// plain state is safe.
class DevStats {
 public:
  /// 64 B lines per 256 B XPLine.
  static constexpr uint64_t kXplineLines = 4;
  /// Write-combining buffer entries (real XPBuffer capacity is ~16 KB; 16
  /// XPLines is the working approximation used by public models).
  static constexpr size_t kXpBufferEntries = 16;
  /// Residency window: the DIMM controller drains buffered XPLines
  /// continuously, so an entry only coalesces host writes that arrive
  /// within this window of its insertion — a hot line rewritten every few
  /// microseconds pays a media write each time, which is why real-device
  /// write amplification stays >= 1 even for cache-resident workloads.
  static constexpr uint64_t kDefaultDrainWindowNs = 1000;
  /// Simulated-time distance between trace counter samples.
  static constexpr uint64_t kDefaultSampleIntervalNs = 32768;

  explicit DevStats(int max_workers);

  // ----- hooks (called by nvm::Memory alongside its channel bookings) ----
  // `now_ns` is the accessing worker's simulated clock; it drives the
  // XPBuffer residency-window drain, never any charged time.

  void on_media_read(int media, uint64_t line, uint64_t now_ns);
  void on_media_write(int media, uint64_t line, uint64_t now_ns);
  void on_wpq_enqueue(int worker, uint64_t occupancy, uint64_t drain_ns);
  void on_wpq_stall(int worker, uint64_t ns);
  void on_fence_stall(int worker, uint64_t ns);

  // ----- periodic trace counter sampling ---------------------------------

  /// True when the next sample instant has been reached.
  bool sample_due(uint64_t now_ns) const { return now_ns >= next_sample_ns_; }

  /// Emit one batch of Chrome counter events ("ph":"C") at simulated time
  /// `now_ns` and schedule the next sample. `wpq_occupancy` and the four
  /// channel busy totals are supplied by the hooks layer (nvm::Memory owns
  /// those models). Rates are computed over the elapsed sample interval.
  void emit_counters(Trace& trace, uint64_t now_ns, uint64_t wpq_occupancy,
                     const std::array<uint64_t, kNumChannels>& chan_busy_ns);

  /// Aggregate everything observed so far. XPLines still sitting in the
  /// buffer are accounted as flushes (the DIMM writes them out eventually),
  /// without mutating the live buffer — snapshots are repeatable.
  DeviceCounters snapshot() const;

  /// Running write-amplification value (buffered XPLines counted as the
  /// writes they will become), used for the trace counter track.
  double snapshot_wa_estimate() const;

 private:
  struct XpEntry {
    static constexpr uint64_t kNone = ~0ull;
    uint64_t xpline = kNone;
    uint8_t mask = 0;        // which of the 4 sub-lines hold host data
    uint64_t stamp = 0;      // LRU clock
    uint64_t insert_ns = 0;  // simulated insertion time (drain window base)
  };

  struct PerWorker {
    Histogram occupancy;
    Histogram drain_ns;
    Histogram fence_stall_ns;
    Histogram wpq_stall_ns;
    uint64_t enqueues = 0;
  };

  // Retire one buffer entry: one 256 B media write, plus an RMW read when
  // the entry was only partially filled.
  void account_eviction(const XpEntry& e);

  // Retire every entry whose residency window has expired at `now_ns`.
  void drain(uint64_t now_ns);

  DeviceCounters c_;  // running totals (buffer contents not yet included)
  std::array<XpEntry, kXpBufferEntries> buf_{};
  uint64_t lru_clock_ = 0;
  util::WorkerSlots<PerWorker> workers_;

  // Sampler state.
  uint64_t next_sample_ns_ = kDefaultSampleIntervalNs;
  uint64_t prev_sample_ns_ = 0;
  uint64_t prev_hits_ = 0, prev_misses_ = 0;
  std::array<uint64_t, kNumChannels> prev_busy_ns_{};
};

}  // namespace stats
