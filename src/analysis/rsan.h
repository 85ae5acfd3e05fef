// Race & isolation sanitizer ("rsan"): a FastTrack-style vector-clock
// happens-before checker over the modelled heap, plus orec-protocol lints
// a pure HB detector cannot express.
//
// psan verifies *persistency* ordering; nothing verified *isolation*. The
// DES runs every simulated worker as a cooperative fiber on one OS
// thread, so host ThreadSanitizer is blind to logical races between
// workers — an unsynchronized store interleaving at an advance() point
// looks like perfectly ordered single-threaded code to it. rsan rebuilds
// the happens-before relation from the synchronization the PTM *declares*
// (orec acquire/release/validate, epoch publish/drain/ack handoffs,
// containment clock inheritance, shared-word CAS) and checks every
// in-transaction data access against it:
//
//  * per-word last-write epochs (writer slot, writer clock) catch
//    write-write and write-read races;
//  * per-word read entries (reader slot, clock) catch read-write races
//    from raw (non-orec-mediated) loads;
//  * orec-mediated reads are deliberately *invisible readers*: an orec
//    STM has no HB edge from a validated read to a later writer —
//    isolation there is discharged by commit-time revalidation, so rsan
//    joins the orec's clock into the reader (write→read direction) and
//    records nothing.
//
// Two protocol lints ride on the same state:
//
//  * orec-coverage — a transactional access to a persistent data line
//    that no orec owned (stores) or owned-or-validated (loads) by the
//    transaction covers;
//  * early-release — an orec released while a data line stored under it
//    still has in-flight (not yet fence-retired) stores, i.e. the next
//    owner could observe and overwrite pre-durable state.
//
// Scope rules that keep the clean matrix clean by construction:
//  * only accesses made *inside* a transaction are checked — population,
//    recovery, scrubbing and oracle verification are event-counted but
//    invisible;
//  * log-space accesses are exempt from race recording and coverage: the
//    slot-log choreography (leader status flips, reclaim surgery) is
//    mediated by durable-status reads that HB cannot express, and psan +
//    CRC screening vet that protocol from the persistence side;
//  * Rsan::ReadScope brackets orec-validated read paths (their loads are
//    the invisible readers above); Rsan::UncoveredScope brackets runtime
//    internals (allocator metadata) that are race-checked but
//    coverage-exempt.
//
// Pure observation: hooks never advance simulated time, and when off
// (default) nvm::Memory carries one null-pointer test per hooked access —
// default bench output stays byte-identical. Enabled by
// nvm::SystemConfig::rsan (nvm::Pool sets it from REPRO_RSAN). Every
// diagnostic fails the crash trial or the pool that produced it
// (analysis/core.h). See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/core.h"
#include "nvm/domain.h"
#include "stats/counters.h"

namespace analysis {

/// Diagnostic catalog (docs/ANALYSIS.md has the full semantics). All four
/// kinds are correctness diagnostics.
enum class RsanKind : uint8_t {
  /// Two transactional stores to the same word with no happens-before
  /// path between them (e.g. an epoch leader writing a member's line
  /// without the publish/stage handoff edge).
  kWriteWriteRace = 0,
  /// A transactional raw load and a store to the same word unordered by
  /// happens-before, in either direction.
  kReadWriteRace,
  /// A transactional access to a persistent data line not covered by an
  /// orec the transaction owns (stores) or owns-or-validated (loads).
  kOrecCoverage,
  /// An orec released while a data line stored under it still had
  /// in-flight stores (no fence retired them yet) — the next owner can
  /// observe pre-durable state the releaser may still lose.
  kEarlyRelease,
};
inline constexpr size_t kNumRsanKinds = 4;

const char* rsan_kind_name(RsanKind k);

/// One diagnostic. `event` is the rsan event index when it fired (every
/// hooked access and sync edge increments the stream); `other` is the
/// prior accessor's worker for the race kinds, -1 otherwise.
struct RsanDiag {
  RsanKind kind = RsanKind::kWriteWriteRace;
  int worker = -1;
  int other = -1;
  uint64_t addr = 0;   // word address (0 for fence-granularity findings)
  uint64_t line = 0;   // pool cache-line index (64 B granularity)
  uint64_t event = 0;  // event index when the diagnostic fired
  const char* what = "";  // site / reason (static string)

  bool correctness() const { return true; }
  /// "<kind> worker=W other=O addr=0xA line=L event=E: <what>"
  std::string describe() const;
};

/// summary(), drain(), verdict() and the teardown come from the core,
/// whose persist tracker sees in-transaction data stores only.
class Rsan : public SanitizerCore<RsanDiag, stats::RsanSummary> {
 public:
  Rsan(const nvm::SystemConfig& cfg, uint64_t num_lines, int max_workers);

  // ----- memory hooks (driven by nvm::Memory) --------------------------

  /// Transactional raw load. Invisible inside a ReadScope (orec-mediated
  /// read) — see the header comment. `log_space` accesses only count.
  void on_load(int worker, uint64_t addr, size_t n, uint64_t first_line,
               bool log_space);
  /// Transactional store: race check against last-write epochs and read
  /// entries, coverage lint, in-flight tracking for the release lint.
  void on_store(int worker, uint64_t addr, size_t n, uint64_t first_line,
                uint64_t last_line, bool log_space);
  void on_clwb(int worker, uint64_t line);
  /// Retires in-flight stores captured by this worker's clwbs — from
  /// EVERY worker's tracking, matching the ADR rule (and psan): an epoch
  /// leader's fence durably retires its members' stores.
  void on_sfence(int worker);
  /// The pool froze at a crash point. Fibers still unwind through abort
  /// cleanup (orec restores, rollback) against a machine that is already
  /// down — suppress diagnostics until the power failure resolves; the
  /// frozen image belongs to recovery, not to the protocol.
  void on_crash_freeze();
  /// Power failure: all volatile order is void. Clears clocks, epochs,
  /// read entries and in-flight tracking; recovery re-seeds via
  /// on_global_sync.
  void on_power_failure();
  /// checkpoint_all_persistent(): in-flight tracking is satisfied by fiat.
  void on_checkpoint();

  // ----- transaction lifecycle (driven by ptm) -------------------------

  void on_tx_begin(int worker);
  /// Also called by ContainmentManager for a reclaimed victim.
  void on_tx_end(int worker);

  // ----- declared synchronization edges (driven by ptm) ----------------

  /// Successful CAS of `orec` to locked: join the orec's clock (the last
  /// releaser's history) into the worker and add it to the owned set.
  void on_orec_acquire(int worker, const void* orec);
  /// Version-word publish of `orec`: early-release lint over the lines
  /// stored under it, then release the worker's clock into the orec.
  /// Callers that never owned the orec (allocator reclaim hook,
  /// containment surgery) still publish the edge; the lint only fires on
  /// lines this worker attributed to the orec.
  void on_orec_release(int worker, const void* orec);
  /// An orec-mediated read passed its v1==v2 check: join the orec's clock
  /// into the reader (the write→read half of the edge; the read→write
  /// half is deliberately absent — commit-time validation discharges it)
  /// and mark the orec validated for the coverage lint.
  void on_validated_read(int worker, const void* orec);
  /// Acquire-release RMW on a shared off-orec word (allocator bump
  /// high-water CAS): join then release on the word's sync clock.
  void on_atomic_rmw(int worker, const void* addr);
  /// Release-publish of `obj` (epoch member enqueue; leader ack).
  void on_publish(int worker, const void* obj);
  /// Acquire-observe of `obj` (leader staging a member; member seeing
  /// its ack).
  void on_join(int worker, const void* obj);
  /// `to` inherits `from`'s entire history and coverage: containment
  /// reclaim (the reclaimer fenced the victim and replays on its behalf)
  /// and epoch leadership takeover.
  void on_inherit(int to_worker, int from_worker);
  /// Everything so far happens-before everything after (runtime
  /// construction, recovery): join all clocks into all workers.
  void on_global_sync();

  // ----- coverage plumbing ---------------------------------------------

  /// Maps a data address to its covering orec (installed by ptm::Runtime,
  /// capturing its OrecTable). Without a resolver the coverage lint is
  /// off — bare-Memory tests and pool population run without a runtime.
  using OrecResolver = std::function<const void*(const void*)>;
  void set_orec_resolver(OrecResolver r);

  // ----- RAII brackets (null-safe; call sites need no rsan check) ------

  /// Marks the worker as inside an orec-mediated read path: its loads
  /// are invisible readers (recorded/checked via on_validated_read).
  class ReadScope {
   public:
    ReadScope(Rsan* rs, int worker) : rs_(rs), worker_(worker) {
      if (rs_) rs_->adjust_read_depth(worker_, +1);
    }
    ~ReadScope() {
      if (rs_) rs_->adjust_read_depth(worker_, -1);
    }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;

   private:
    Rsan* rs_;
    int worker_;
  };

  /// Marks the worker as inside runtime internals (allocator metadata,
  /// free-list surgery): still race-checked, but coverage-exempt — these
  /// words are protected by their own declared sync, not by orecs.
  class UncoveredScope {
   public:
    UncoveredScope(Rsan* rs, int worker) : rs_(rs), worker_(worker) {
      if (rs_) rs_->adjust_uncovered_depth(worker_, +1);
    }
    ~UncoveredScope() {
      if (rs_) rs_->adjust_uncovered_depth(worker_, -1);
    }
    UncoveredScope(const UncoveredScope&) = delete;
    UncoveredScope& operator=(const UncoveredScope&) = delete;

   private:
    Rsan* rs_;
    int worker_;
  };

 private:
  friend class ReadScope;
  friend class UncoveredScope;

  using VC = std::vector<uint32_t>;

  struct WriteEpoch {
    uint32_t slot = 0;   // writer's state slot
    uint32_t clk = 0;    // writer's clock component at the store
    uint64_t event = 0;  // rsan event index of the store
  };

  // One raw-read record per (word, reader). Per-WORD, deliberately: a
  // single per-line entry with a word mask would let a later read of a
  // neighbouring word refresh the shared clock and fabricate races on
  // words read long before (seen with allocator blocks packed 5 to a
  // line: re-popping one block inflated the read clock of its already
  // freed neighbour).
  struct ReadEntry {
    uint32_t slot = 0;
    uint32_t clk = 0;
    uint64_t event = 0;
  };

  struct WorkerState {
    VC vc;
    bool in_tx = false;
    int read_depth = 0;
    int uncovered_depth = 0;
    std::unordered_set<uintptr_t> owned;      // orecs currently held
    std::unordered_set<uintptr_t> validated;  // orecs validated this tx
    // orec -> data lines stored under it this tx (early-release lint).
    std::unordered_map<uintptr_t, std::vector<uint64_t>> orec_lines;
  };

  void adjust_read_depth(int worker, int d);
  void adjust_uncovered_depth(int worker, int d);

  void emit(RsanKind kind, int worker, int other, uint64_t addr,
            uint64_t line, const char* what);
  void join_from_sync(WorkerState& ws, uintptr_t key);
  void release_to_sync(WorkerState& ws, size_t s, uintptr_t key);

  bool crash_frozen_ = false;  // pool froze: unwinding must not diagnose
  util::WorkerSlots<WorkerState> w_;
  OrecResolver resolver_;
  // word key (addr >> 3) -> last-write epoch.
  std::unordered_map<uint64_t, WriteEpoch> last_write_;
  // word key (addr >> 3) -> raw-read entries (erased when a write
  // supersedes the word).
  std::unordered_map<uint64_t, std::vector<ReadEntry>> reads_;
  // sync-object key -> its clock (orecs, epoch handoffs, shared words).
  std::unordered_map<uintptr_t, VC> sync_;
  // Word keys (addr >> 3) declared via on_atomic_rmw. A word whose accesses
  // are themselves atomic synchronization (the allocator's CAS-max bump
  // pointer) is a sync variable, not data: its stores carry the HB edge
  // instead of needing one, so the race check skips it — same model TSan
  // applies to std::atomic.
  std::unordered_set<uint64_t> atomic_words_;
};

}  // namespace analysis
