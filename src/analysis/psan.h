// Persistency sanitizer ("psan"): a dynamic checker for flush/fence
// ordering over the modelled persistent heap.
//
// The paper's results hinge on exact persist-ordering discipline: undo
// logging pays O(W) fences against redo's O(1) (Figures 3/4), and fence
// removal alone explains much of eADR's win (Table III) — so a *missing*
// clwb/sfence is a recovery bug and a *redundant* one is a silent perf
// regression that skews every fence-count table. Crash-schedule fuzzing
// (fault::CrashHarness) only catches an ordering bug when a sampled
// schedule happens to expose it; psan instead verifies the ordering rules
// on **every** execution.
//
// psan maintains, per cache line, a persist state machine driven by the
// nvm::Memory instruction stream:
//
//     clean ──store──▶ dirty ──clwb──▶ flushed ──sfence──▶ persisted
//                        ▲               │ (same worker's fence)
//                        └────store──────┘
//
// Tracking is per *store*, not just per line: a store is "persisted" once
// some clwb of its line happened at-or-after it and the flushing worker's
// sfence retired that clwb — exactly the ADR rule nvm::Memory's crash
// image implements. Keying outstanding stores by (worker, line) keeps a
// neighbour transaction's store to another word of the same line from
// being charged to this transaction.
//
// The PTM declares *ordering points* (commit-record seal, in-place store
// under undo, write-back under redo, log retire) through
// Memory::psan_check_persisted; each violated point yields one typed
// diagnostic per offending line. Everything is attributed to the owning
// worker/transaction and the phase taxonomy, carries the store/flush
// event indices for replay, and aggregates into stats::PsanSummary for
// REPRO_JSON ("psan" key). A correctness diagnostic fails the crash trial
// or the pool that produced it (analysis/core.h).
//
// Enabled by nvm::SystemConfig::psan (nvm::Pool sets it from REPRO_PSAN);
// when off, nvm::Memory carries only a null-pointer test per access and
// output stays bit-identical. See docs/ANALYSIS.md.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/core.h"
#include "nvm/domain.h"
#include "stats/counters.h"
#include "stats/histogram.h"

namespace analysis {

/// Diagnostic catalog (docs/ANALYSIS.md has the full semantics).
enum class DiagKind : uint8_t {
  /// A line this worker stored was not durable (never flushed, or flushed
  /// but not yet fence-ordered) at an ordering point that requires it —
  /// e.g. a commit record sealed over unpersisted log records.
  kMissingFlush = 0,
  /// A store was issued that must not precede another range's
  /// persistence: in-place data before its undo record (eager), or log
  /// write-back before the sealed commit record (lazy).
  kMisorderedPersist,
  /// clwb of a line with no unpersisted store (perf lint; maps onto the
  /// paper's Table III flush accounting).
  kRedundantFlush,
  /// sfence by a worker with no clwb outstanding since its previous fence
  /// (perf lint; one of these per transaction is exactly one Table III
  /// fence of pure overhead).
  kRedundantFence,
  /// At a simulated power failure, a line with an unpersisted store that
  /// was never even flushed. Informational: mid-transaction dirty lines
  /// are expected at a crash; the CrashHarness uses this to distinguish
  /// "torn by the crash schedule" from "never flushed at all".
  kUnflushedAtCrash,
};
inline constexpr size_t kNumDiagKinds = 5;

const char* diag_kind_name(DiagKind k);

/// One diagnostic. `store_event`/`flush_event` are psan event indices
/// (every hooked store/clwb/sfence increments the stream); when the
/// configuration also has crash_sim on, the stream counts the same
/// instruction sites as Memory::persistence_events, so an event index can
/// seed Memory::arm_crash_after to replay the neighbourhood of a bug.
struct Diag {
  DiagKind kind = DiagKind::kMissingFlush;
  int worker = -1;
  uint64_t tx_id = 0;          // per-worker transaction ordinal (0 = outside tx)
  stats::Phase phase = stats::Phase::kBegin;
  uint64_t line = 0;           // pool cache-line index (64 B granularity)
  uint64_t store_event = 0;    // offending store (0 = none recorded)
  uint64_t flush_event = 0;    // latest clwb capturing the line (0 = never)
  uint64_t at_event = 0;       // event index when the diagnostic fired
  const char* what = "";       // ordering point / reason (static string)
  const char* state = "";      // line state when it fired (static string)

  bool correctness() const {
    return kind == DiagKind::kMissingFlush || kind == DiagKind::kMisorderedPersist;
  }
  /// "<kind> worker=W tx=T line=L store_event=S at_event=A: <what> [<state>]"
  std::string describe() const;
};

/// summary(), drain(), verdict() and the teardown come from the core.
class Psan : public SanitizerCore<Diag, stats::PsanSummary> {
 public:
  Psan(const nvm::SystemConfig& cfg, uint64_t num_lines, int max_workers);

  // ----- event hooks (driven by nvm::Memory) ---------------------------

  void on_store(int worker, uint64_t first_line, uint64_t last_line);
  void on_clwb(int worker, uint64_t line);
  /// Retires this worker's pending flushes. Note psan validates the
  /// ordering the *program issued*: under SystemConfig::elide_fences
  /// (Table III's deliberately-incorrect measurement variant) the model
  /// drops the fence but the algorithm still ordered correctly, so the
  /// fence retires flushes here all the same — the variant must stay
  /// runnable without failing the verdict.
  void on_sfence(int worker);
  /// Power failure: classify every outstanding store (never-flushed vs
  /// flushed-but-unfenced), emit kUnflushedAtCrash for the former, then
  /// reset volatile tracking (the reverted heap is the new baseline).
  void on_power_failure();
  /// checkpoint_all_persistent(): everything live is durable by fiat.
  void on_checkpoint();

  // ----- transaction attribution (driven by ptm) -----------------------

  void on_tx_begin(int worker);
  void on_tx_end(int worker);
  void set_phase(int worker, stats::Phase p);
  stats::Phase phase(int worker) const;

  // ----- ordering points (driven by ptm) -------------------------------

  /// Every store by `worker` to lines [first_line, last_line] must be
  /// persisted; emits one `kind` diagnostic per violating line.
  void check_persisted(int worker, uint64_t first_line, uint64_t last_line,
                       DiagKind kind, const char* what);

  // ----- reporting ------------------------------------------------------

  /// Lines flagged kUnflushedAtCrash at the most recent power failure
  /// (the CrashHarness exposes these next to the oracle verdict).
  std::vector<uint64_t> crash_unflushed_lines() const;

 private:
  struct WorkerState {
    uint64_t tx_id = 0;
    bool in_tx = false;
    stats::Phase phase = stats::Phase::kBegin;
  };

  void emit(DiagKind kind, int worker, uint64_t line, uint64_t store_event,
            uint64_t flush_event, const char* what, const char* state);

  util::WorkerSlots<WorkerState> w_;
  // line -> latest clwb capture event (erased once fence-retired).
  std::unordered_map<uint64_t, uint64_t> captured_;
  std::vector<uint64_t> crash_unflushed_;
};

/// RAII phase attribution: sets the worker's psan phase on entry, restores
/// the previous one on exit. Null-safe so call sites need no psan check.
class PhaseScope {
 public:
  PhaseScope(Psan* ps, int worker, stats::Phase p)
      : ps_(ps), worker_(worker), prev_(ps ? ps->phase(worker) : stats::Phase::kBegin) {
    if (ps_) ps_->set_phase(worker_, p);
  }
  ~PhaseScope() {
    if (ps_) ps_->set_phase(worker_, prev_);
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Psan* ps_;
  int worker_;
  stats::Phase prev_;
};

}  // namespace analysis
