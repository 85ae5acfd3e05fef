// The modelled memory system: every instrumented access to the persistent
// heap flows through this class, which plays two roles:
//
//  1. **Timing** (discrete-event runs): charges the accessing worker the
//     modelled latency — L3 hit/miss, DRAM vs Optane load, bandwidth-channel
//     queueing, WPQ stalls, Memory-Mode DRAM-cache hits — per the paper's
//     machine (§II, §III.A).
//
//  2. **Persistence semantics** (crash-simulation runs): tracks, at
//     cache-line granularity, what would survive a power failure under the
//     configured durability domain. ADR persists only lines whose clwb was
//     ordered by an sfence (plus an adversarial random subset of other
//     dirty lines, since real caches may write back spontaneously); eADR,
//     PDRAM and PDRAM-Lite persist every executed store. A simulated power
//     failure reverts the heap to exactly the persisted image, after which
//     PTM recovery must produce a consistent heap.
//
// Data accesses use std::atomic_ref at word granularity so the speculative
// loads/stores inherent to STM are free of C++ data races.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nvm/cache_model.h"
#include "nvm/channel.h"
#include "nvm/domain.h"
#include "nvm/energy.h"
#include "nvm/wpq.h"
#include "sim/context.h"
#include "stats/counters.h"
#include "util/rng.h"

#include <atomic>
#include <functional>

namespace analysis {
class Psan;
class Rsan;
enum class DiagKind : uint8_t;
}  // namespace analysis

namespace stats {
class DevStats;
struct DeviceCounters;
}  // namespace stats

namespace nvm {

/// Thrown at an armed crash point (see Memory::arm_crash_after). Unwinds
/// the worker out of whatever transaction it was executing — the live heap
/// at that instant is the machine state at power failure.
struct CrashPoint {};

/// Thrown when an armed thread fault kills the executing worker fiber
/// (see Memory::arm_thread_fault). Unlike CrashPoint the pool stays live:
/// only this worker dies, leaving its orecs locked and its log slot
/// whatever the fault instant left it — exactly the state thread-crash
/// containment must clean up online (docs/FAULTS.md, "Thread-crash
/// containment"). The runtime must NOT roll the dying worker back; a
/// dead thread performs no further stores.
struct FiberKill {
  int worker = -1;
};

class Memory {
 public:
  static constexpr uint64_t kLineBytes = 64;
  /// Fixed capacity of the extra log-line-range table (see
  /// add_log_line_range); registrations beyond it are counted as drops.
  static constexpr size_t kMaxExtraLogRanges = 256;

  Memory(const SystemConfig& cfg, char* base, size_t size);
  ~Memory();

  // ----- word accesses (the PTM's unit of logging) ---------------------

  uint64_t load_word(sim::ExecContext& ctx, stats::TxCounters* c, const uint64_t* addr,
                     Space space) {
    model_addr(ctx, c, addr, 8, /*is_write=*/false, space);
    if (rsan_) rsan_load(ctx, addr, 8, space);
    return std::atomic_ref<const uint64_t>(*addr).load(std::memory_order_acquire);
  }

  void store_word(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t* addr, uint64_t val,
                  Space space) {
    store_event(ctx, c, addr, 8, space, [&] {
      std::atomic_ref<uint64_t>(*addr).store(val, std::memory_order_release);
    });
  }

  /// Bulk store with tracking/modelling (used by population and recovery;
  /// not transactional).
  void store_bytes(sim::ExecContext& ctx, stats::TxCounters* c, void* dst, const void* src,
                   size_t len, Space space);

  /// Charge store timing + crash tracking for a word whose value was
  /// already written through an atomic RMW (e.g. the allocator's CAS-max'd
  /// high-water mark). Needed because store_word's modelling can yield to
  /// another worker *before* its store executes, which would let a stale
  /// value overwrite a newer one.
  void account_store_in_place(sim::ExecContext& ctx, stats::TxCounters* c,
                              const uint64_t* addr, Space space) {
    store_event(ctx, c, addr, 8, space, [] {});
  }

  // ----- cache-footprint-only accesses (no real bytes) -----------------

  /// Model `nlines` consecutive line accesses starting at a synthetic line
  /// id (used by the memcached workload's virtual value payloads, Fig 8).
  void touch_lines(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t first_line,
                   size_t nlines, bool is_write, Space space);

  /// Base line id of the synthetic (non-materialized) address region.
  uint64_t virtual_line_base() const { return virt_base_line_; }

  // ----- persistence instructions ---------------------------------------

  /// clwb: under ADR, push the line toward the WPQ (timing) and capture its
  /// bytes for crash simulation. No-op under eADR/PDRAM/PDRAM-Lite, exactly
  /// as the paper's eADR algorithms elide flushes.
  void clwb(sim::ExecContext& ctx, stats::TxCounters* c, const void* addr);

  /// sfence: under ADR, wait for this worker's WPQ entries to drain and
  /// promote its captured lines to the persistent image. Skipped when
  /// `elide_fences` (Table III's incorrect variant).
  void sfence(sim::ExecContext& ctx, stats::TxCounters* c);

  /// clwb a run of synthetic lines (virtual payloads, no host bytes): under
  /// ADR each line is pushed toward the WPQ; the caller's next sfence waits
  /// for them. No-op in other domains. No crash tracking (nothing to
  /// capture — virtual payload content is not materialized).
  void persist_lines(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t first_line,
                     size_t nlines);

  // ----- crash simulation ------------------------------------------------

  /// Apply the durability domain's power-failure semantics: decide which
  /// lines persist, then revert the live heap to the persisted image.
  void simulate_power_failure(util::Rng& rng);

  // ----- media faults ----------------------------------------------------

  /// Poison one cache line: at the next power failure its persisted
  /// content is lost (scrambled), modelling an Optane media fault / bad
  /// block. Recovery must consult media_faulted() instead of trusting the
  /// bytes — real hardware raises a machine check on such reads.
  void inject_media_fault(uint64_t line);

  /// True when any line covering [addr, addr+len) is poisoned.
  bool media_faulted(const void* addr, size_t len) const;

  void clear_media_faults();
  size_t media_fault_count() const;

  /// Arm a latent media fault: `line` stays healthy until simulated time
  /// `at_ns`, then becomes poisoned when activate_due_media_faults() is
  /// next called with now_ns >= at_ns. Models wear-out that strikes
  /// *after* the initial persist succeeded — the case a background scrub
  /// exists to catch. crash_sim only, like inject_media_fault().
  void arm_media_fault_at(uint64_t line, uint64_t at_ns);

  /// Move every armed fault whose deadline has passed into the active
  /// poison set. Called by the scrubber (and tests) with the current
  /// simulated time; returns how many faults fired.
  size_t activate_due_media_faults(uint64_t now_ns);

  /// Un-poison one line after its content has been rewritten in place,
  /// modelling the device remapping the bad block to a spare on write.
  void repair_media_fault(uint64_t line);

  size_t armed_media_fault_count() const;

  /// Mark the current live heap contents as fully persisted (used after
  /// population so crash tests measure only the workload's transactions).
  void checkpoint_all_persistent();

  /// Crash injection (crash_sim only): after `events` further persistence
  /// events (pmem stores, clwb, sfence), resolve the persisted image as of
  /// that instant and throw CrashPoint. Every subsequent event also throws,
  /// so all in-flight workers unwind without further heap effects becoming
  /// persistent. Disarmed by simulate_power_failure().
  void arm_crash_after(uint64_t events, uint64_t rng_seed);

  /// True once an armed crash has fired.
  bool crashed() const { return frozen_.load(std::memory_order_acquire); }

  /// Persistence events executed so far (crash_sim only; 0 otherwise).
  /// fault::strike reads it around a body to report the body's event
  /// count; arm_crash_after and arm_thread_fault count the same events.
  uint64_t persistence_events() const {
    return event_count_.load(std::memory_order_relaxed);
  }

  // ----- thread-fault injection (fiber kill / stall) ---------------------

  /// Arm a thread fault (crash_sim only): after `events` further
  /// persistence events, the worker executing that event either dies —
  /// stall_ns == 0: FiberKill is thrown *before* the event's store takes
  /// effect, so a dead thread never half-issues its last store — or goes
  /// dark for `stall_ns` simulated nanoseconds and then resumes. A
  /// resuming worker first consults the fenced probe (below): if the
  /// containment layer fenced it while it was out, it dies at the wake
  /// instant instead of racing its own reclamation. Up to two faults can
  /// be armed at once; the second models a kill striking the *reclaimer*
  /// mid-reclamation. Event numbering is shared with arm_crash_after, so
  /// kill sweeps walk the same deterministic event space as crash sweeps.
  void arm_thread_fault(uint64_t events, uint64_t stall_ns = 0);

  /// Disarm every thread fault that has not fired yet (kill sweeps call
  /// this before post-run verification so leftover arms cannot fire in
  /// checking code). Also cleared by simulate_power_failure().
  void clear_thread_faults();

  /// Install the containment layer's zombie probe, called with the waking
  /// worker's id after a stall; returning true means the worker was
  /// fenced (quarantined / deposed) while stalled and must die rather
  /// than resume. nullptr uninstalls.
  void set_fenced_probe(std::function<bool(int)> probe);

  /// Drain worker `w`'s clwb'd-but-unfenced WPQ entries into the persisted
  /// image, as its own sfence would. Called at thread-death points (the
  /// kill paths here, and the containment layer's heartbeat kill): a fiber
  /// kill leaves the MACHINE powered, so the dead thread's in-flight line
  /// writebacks complete normally within nanoseconds — long before any
  /// lease expires. Without this they would linger as stale byte snapshots
  /// until a later power failure, where the writeback adversary could
  /// replay them torn over lines that survivors or a reclaimer have since
  /// durably re-written. Power failures (CrashPoint) must NOT drain: those
  /// entries are exactly the in-flight state the adversary resolves.
  void drain_worker_pending(int w);

  /// True while worker `w` is parked inside a stall fault's advance. The
  /// containment layer only reclaims leases from workers that are provably
  /// unresponsive — dead, or parked here — never from a slow-but-live
  /// worker, whose one in-flight store could otherwise race the surgery
  /// (the sim analogue of "the OS confirmed the thread is gone").
  bool stalled_in_fault(int w) const {
    if (w < 0 || w >= 64) return false;
    return ((tf_stalled_mask_.load(std::memory_order_acquire) >> w) & 1) != 0;
  }

  // ----- persistency sanitizer -------------------------------------------

  /// The sanitizer instance, or nullptr when off (SystemConfig::psan is
  /// false). Callers needing more than the ordering-point helper below
  /// (summaries, drain) go through this.
  analysis::Psan* psan() const { return psan_.get(); }

  /// Declare an ordering point: every store the calling worker made to
  /// [addr, addr+len) must be persisted by now; psan emits one `kind`
  /// diagnostic per line that is not. No-op when psan is off.
  void psan_check_persisted(sim::ExecContext& ctx, const void* addr, size_t len,
                            analysis::DiagKind kind, const char* what);

  // ----- race & isolation sanitizer --------------------------------------

  /// The happens-before sanitizer instance, or nullptr when off
  /// (SystemConfig::rsan false). The PTM layers declare their
  /// synchronization edges through this pointer; every hook site is a
  /// single null-pointer test when off.
  analysis::Rsan* rsan() const { return rsan_.get(); }

  // ----- emulated DIMM performance counters ------------------------------

  /// The device-counter collector, or nullptr when off
  /// (SystemConfig::devstats false).
  stats::DevStats* devstats() const { return devstats_.get(); }

  /// Assemble the run's "device" section: the collector's media/XPBuffer/
  /// WPQ counters plus channel utilization and the energy model's reserve
  /// estimates. `sim_end_ns` is the run's simulated duration (utilization
  /// denominator). When tracing is on, a final counter sample is emitted
  /// at `sim_end_ns` so even short runs carry "ph":"C" events. Requires
  /// devstats to be enabled.
  stats::DeviceCounters device_snapshot(uint64_t sim_end_ns);

  /// Total bandwidth-channel requests across all four channels (always
  /// counted; two integer adds per request). workloads::run_point copies
  /// it into RunResult::channel_requests for ptmbench's report.
  uint64_t channel_requests() const {
    return dram_read_.requests() + dram_write_.requests() + optane_read_.requests() +
           optane_write_.requests();
  }

  // ----- geometry ---------------------------------------------------------

  /// Tell the model which line range holds the PTM per-thread logs (so
  /// PDRAM-Lite can route them to DRAM).
  void set_log_line_range(uint64_t lo, uint64_t hi) {
    log_line_lo_ = lo;
    log_line_hi_ = hi;
  }

  /// Register an additional log line range (overflow log segments are heap
  /// allocations, discontiguous from the worker-meta region). Best-effort:
  /// the table is fixed-size and further ranges are dropped — the
  /// classification is a media-routing hint (PDRAM-Lite), never a
  /// correctness input — but a drop is counted and warned once, because
  /// under PDRAM-Lite it silently misroutes log traffic to Optane timing.
  void add_log_line_range(uint64_t lo, uint64_t hi) {
    const size_t i = n_extra_log_ranges_.load(std::memory_order_relaxed);
    if (i >= kMaxExtraLogRanges) {
      drop_log_line_range();
      return;
    }
    extra_log_ranges_[i] = {lo, hi};
    n_extra_log_ranges_.store(i + 1, std::memory_order_release);
  }

  /// Log-range registrations dropped because the table was full.
  uint64_t log_range_drops() const {
    return log_range_drops_.load(std::memory_order_relaxed);
  }

  uint64_t line_of(const void* addr) const {
    return (reinterpret_cast<uintptr_t>(addr) - reinterpret_cast<uintptr_t>(base_)) /
           kLineBytes;
  }

  const SystemConfig& config() const { return cfg_; }

  /// Start the host cache misses an access to `addr` will take: its bytes
  /// and, under PDRAM on Optane, its directory set. Changes no simulated
  /// state.
  void prefetch(const void* addr) const {
    __builtin_prefetch(addr);
    if (directory_on()) dram_dir_.prefetch(line_of(addr));
  }

  /// Reset volatile timing model state (channels, caches) between runs.
  void reset_models();

  /// Install `nlines` starting at `first_line` into the Memory-Mode DRAM
  /// cache directory as clean residents (PDRAM only). Benchmarks call this
  /// after population: the paper's minute-long steady-state runs operate
  /// with a warm DRAM cache, which short simulated runs would otherwise
  /// never reach.
  void prewarm_directory(uint64_t first_line, uint64_t nlines);

 private:
  struct PendingLine {
    uint64_t line;
    uint64_t seq;  // global clwb issue order; see line_applied_seq_
    unsigned char bytes[kLineBytes];
  };

  /// Apply one pending snapshot to the persisted image, unless a NEWER
  /// snapshot of the same line has already been applied (track_mu_ held).
  /// Writebacks of one line serialize in issue order on real hardware: a
  /// fiber that fences long after its clwb (a stall fault, or a worker
  /// whose line another worker has since rewritten and fenced) must not
  /// roll the persisted line back to its stale issue-time snapshot.
  void apply_pending_locked(const PendingLine& p);

  static constexpr int kL3Ways = 16;

  // First and last line of [addr, addr + len); an empty range is the line
  // holding `addr`.
  std::pair<uint64_t, uint64_t> lines_of(const void* addr, size_t len) const {
    return {line_of(addr), line_of(static_cast<const char*>(addr) + (len ? len - 1 : 0))};
  }

  // Every store is one persistence event: the crash and thread-fault
  // countdowns and the timing model run before `write` executes it (a
  // no-op for account_store_in_place, whose store already happened);
  // crash tracking and the sanitizers observe it after.
  template <class Write>
  void store_event(sim::ExecContext& ctx, stats::TxCounters* c, const void* addr, size_t len,
                   Space space, Write&& write) {
    maybe_crash_event();
    maybe_thread_fault(ctx);
    model_addr(ctx, c, addr, len, /*is_write=*/true, space);
    write();
    if (cfg_.crash_sim) track_store(addr, len);
    if (psan_) psan_store(ctx, addr, len);
    if (rsan_) rsan_store(ctx, addr, len, space);
  }

  // Resolve timing + cache modelling for a real address range.
  void model_addr(sim::ExecContext& ctx, stats::TxCounters* c, const void* addr, size_t len,
                  bool is_write, Space space);

  // One modelled line access (DES mode only).
  void model_line(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t line, bool is_write,
                  Space space);

  // Media that backs `line`/`space` under the current domain.
  Media media_of(uint64_t line, Space space) const;

  // PDRAM on Optane: every L3 miss and L3 writeback goes through the
  // Memory-Mode DRAM-cache directory.
  bool directory_on() const {
    return cfg_.domain == Domain::kPdram && cfg_.media == Media::kOptane;
  }

  // Asynchronous dirty-line writeback (L3 eviction): written behind the
  // access; charges a stall only for the backlog past WPQ capacity.
  void background_writeback(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t line);

  // Write-behind: book one line write of `line` on `med`'s write channel
  // at `now`, and return how far the channel's backlog now exceeds what
  // the WPQ can absorb (0 when it fits). The caller charges that excess.
  uint64_t write_behind(uint64_t now, Media med, uint64_t line);

  // One clwb of `line` into the WPQ (DES only): issue cost, L3 clean,
  // full-queue stall, enqueue and the devstats write/enqueue hooks. The
  // caller takes its own devstats sample.
  void flush_line(sim::ExecContext& ctx, stats::TxCounters* c, uint64_t line);

  // Record one modelled stall of `ns` (phase kWpqStall or kFenceWait) in
  // every sink: TxCounters, the phase histogram, devstats and a trace span
  // starting at the caller's clock. The caller charges the time itself
  // (added to an access cost, advance or advance_to).
  void record_stall(sim::ExecContext& ctx, stats::TxCounters* c, stats::Phase phase,
                    uint64_t ns);

  void track_store(const void* addr, size_t len);

  // Out-of-line psan store hook (keeps the hot inline paths to one
  // pointer test when the sanitizer is off).
  void psan_store(sim::ExecContext& ctx, const void* addr, size_t len);

  // Out-of-line rsan access hooks (same single-pointer-test discipline).
  void rsan_load(sim::ExecContext& ctx, const void* addr, size_t len, Space space);
  void rsan_store(sim::ExecContext& ctx, const void* addr, size_t len, Space space);

  // Devstats helpers (only reached when devstats_ is non-null).
  static int media_index(Media m) { return m == Media::kDram ? 0 : 1; }
  // Emit one batch of trace counter events at simulated time `now` and
  // schedule the next sample.
  void devstats_sample(uint64_t now_ns);
  // Cheap periodic check from the hooks: sample when tracing is on and the
  // sample instant has been reached.
  void maybe_devstats_sample(uint64_t now_ns);

  void maybe_crash_event() {
    if (cfg_.crash_sim) event_count_.fetch_add(1, std::memory_order_relaxed);
    if (!armed_.load(std::memory_order_acquire)) return;
    crash_event_slow();
  }
  void crash_event_slow();

  // One relaxed flag test when no thread fault is armed (the always-off
  // cost of the fiber-kill model, mirroring maybe_crash_event's shape).
  void maybe_thread_fault(sim::ExecContext& ctx) {
    if (!tf_armed_.load(std::memory_order_relaxed)) return;
    thread_fault_slow(ctx);
  }
  void thread_fault_slow(sim::ExecContext& ctx);

  // Apply the durability domain's power-failure rule to the image (caller
  // holds track_mu_).
  void resolve_crash_image(util::Rng& rng);

  // ADR only: decide (per the writeback adversary) whether an *unfenced*
  // line's content reaches the image, and copy it — whole when line-
  // atomic, or a random 8-byte-word subset under torn_stores. `prob` is
  // the kRandom mode's coin (kPendingCoin or kEvictCoin). Caller holds
  // track_mu_.
  void persist_unfenced(util::Rng& rng, uint64_t line, const unsigned char* src,
                        double prob);

  // Scramble poisoned lines in the image (caller holds track_mu_).
  void apply_media_faults();

  void drop_log_line_range();

  BandwidthChannel& read_chan(Media m) {
    return m == Media::kDram ? dram_read_ : optane_read_;
  }
  BandwidthChannel& write_chan(Media m) {
    return m == Media::kDram ? dram_write_ : optane_write_;
  }

  bool is_log_line(uint64_t line) const {
    if (line >= log_line_lo_ && line < log_line_hi_) return true;
    const size_t n = n_extra_log_ranges_.load(std::memory_order_acquire);
    for (size_t i = 0; i < n; i++) {
      if (line >= extra_log_ranges_[i].first && line < extra_log_ranges_[i].second)
        return true;
    }
    return false;
  }

  const SystemConfig cfg_;
  EnergyModel energy_;
  char* base_;
  size_t size_;
  uint64_t num_lines_;
  uint64_t virt_base_line_;

  // Timing models (DES only; single worker runs at a time, so unguarded).
  CacheModel l3_;
  CacheModel dram_dir_;  // 1-way: the Memory-Mode directory; one line unless directory_on()
  Wpq wpq_;
  BandwidthChannel dram_read_, dram_write_, optane_read_, optane_write_;

  uint64_t log_line_lo_ = 0, log_line_hi_ = 0;
  std::array<std::pair<uint64_t, uint64_t>, kMaxExtraLogRanges> extra_log_ranges_{};
  std::atomic<size_t> n_extra_log_ranges_{0};
  std::atomic<uint64_t> event_count_{0};

  std::atomic<uint64_t> log_range_drops_{0};
  std::atomic<bool> log_range_drop_warned_{false};

  // Crash-simulation state (guarded: real-thread tests may race on it).
  mutable std::mutex track_mu_;
  std::vector<uint64_t> poisoned_lines_;         // injected media faults
  std::vector<std::pair<uint64_t, uint64_t>> armed_faults_;  // (line, at_ns)
  std::unique_ptr<unsigned char[]> image_;       // persisted bytes
  std::vector<uint64_t> dirty_bitmap_;           // 1 bit per line
  std::vector<uint64_t> dirty_list_;             // unique dirty line ids
  std::vector<std::vector<PendingLine>> pending_;  // per worker: clwb'd, unfenced
  uint64_t clwb_seq_ = 0;  // global snapshot issue counter (track_mu_)
  // Per line: issue seq of the newest snapshot applied to image_. Applies
  // of older snapshots are skipped (see apply_pending_locked).
  std::unordered_map<uint64_t, uint64_t> line_applied_seq_;

  // rsan_ before psan_: members are destroyed in reverse order, so psan's
  // teardown verdict comes first.
  std::unique_ptr<analysis::Rsan> rsan_;
  std::unique_ptr<analysis::Psan> psan_;
  std::unique_ptr<stats::DevStats> devstats_;

  std::atomic<bool> armed_{false};
  std::atomic<bool> frozen_{false};
  std::atomic<int64_t> crash_events_left_{0};
  util::Rng crash_rng_;

  // Thread-fault (fiber kill/stall) state. Mutated only between runs
  // (arming) or from the single-OS-thread DES hooks, so plain fields
  // beyond the armed flag are safe.
  struct ThreadFault {
    uint64_t events_left = 0;
    uint64_t stall_ns = 0;
    bool done = true;
  };
  std::atomic<bool> tf_armed_{false};
  ThreadFault tf_[2];
  std::atomic<uint64_t> tf_stalled_mask_{0};  // workers parked in a stall fault
  std::function<bool(int)> fenced_probe_;

  bool test_and_set_dirty(uint64_t line) {
    auto& w = dirty_bitmap_[line >> 6];
    const uint64_t bit = 1ull << (line & 63);
    const bool was = (w & bit) != 0;
    w |= bit;
    return was;
  }
  void clear_dirty_all();
};

}  // namespace nvm
