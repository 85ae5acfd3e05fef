// Transaction handle — the public face of the PTM.
//
// Application code runs transactions via ptm::Runtime::run(ctx, body); the
// body receives a Tx& and performs every persistent access through
// tx.read<T>() / tx.write<T>() / tx.alloc() / tx.dealloc(). This mirrors
// what the paper's LLVM plugin [39] emits for instrumented loads/stores —
// here the instrumentation is by hand, the runtime algorithms are the same:
//
//  * Algo::kOrecLazy  ("orec-lazy", redo logging): writes buffer in a
//    per-thread redo log (DRAM index, persistent records) and reach their
//    home locations only at commit; O(1) fences per transaction.
//  * Algo::kOrecEager ("orec-eager", undo logging): writes acquire the
//    orec, persist an undo record, then store in place; O(W) fences.
//
// Transactions are word-granular: persistent objects must be 8-byte aligned
// (the persistent allocator guarantees this), and read/write of any
// trivially-copyable T is decomposed into aligned 8-byte word accesses.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "alloc/persistent_alloc.h"
#include "nvm/pool.h"
#include "ptm/orec.h"
#include "ptm/redo_log.h"
#include "ptm/undo_log.h"
#include "sim/context.h"
#include "stats/counters.h"
#include "util/rng.h"

namespace analysis {
class Psan;
class Rsan;
enum class DiagKind : uint8_t;
}  // namespace analysis

namespace ptm {

enum class Algo : uint64_t {
  kOrecLazy = 1,   // redo logging ("R" curves in the paper)
  kOrecEager = 2,  // undo logging ("U" curves)
};

const char* algo_name(Algo a);
const char* algo_suffix(Algo a);  // "R" / "U"

/// Internal control-flow exception: thrown on conflict, caught by
/// Runtime::run's retry loop. Never escapes to application code.
struct AbortTx {};

/// A transaction's footprint exceeded a capacity the runtime could not
/// grow any further (alloc log full, segment-chain ceiling, write-index
/// ceiling, or persistent heap exhausted while growing). Thrown from
/// Runtime::run *after* the offending attempt was fully rolled back — no
/// orecs held, allocations cancelled, logs retired — so the runtime stays
/// usable and the caller may retry with a smaller transaction.
struct CapacityError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Runtime;
class EpochManager;
class ContainmentManager;

class Tx {
 public:
  // ----- word-granular primitives ------------------------------------

  uint64_t read_word(const uint64_t* waddr);
  void write_word(uint64_t* waddr, uint64_t val);

  // ----- typed accessors ----------------------------------------------

  template <typename T>
  T read(const T* addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (sizeof(T) == 8 && alignof(T) == 8) {
      uint64_t w = read_word(reinterpret_cast<const uint64_t*>(addr));
      T out;
      std::memcpy(&out, &w, 8);
      return out;
    } else {
      T out;
      read_bytes(addr, &out, sizeof(T));
      return out;
    }
  }

  template <typename T>
  void write(T* addr, const T& val) {
    static_assert(std::is_trivially_copyable_v<T>);
    if constexpr (sizeof(T) == 8 && alignof(T) == 8) {
      uint64_t w;
      std::memcpy(&w, &val, 8);
      write_word(reinterpret_cast<uint64_t*>(addr), w);
    } else {
      write_bytes(addr, &val, sizeof(T));
    }
  }

  /// Transactional memcpy out of the persistent heap.
  void read_bytes(const void* src, void* dst, size_t len);

  /// Transactional memcpy into the persistent heap (read-modify-write for
  /// partial words at the edges).
  void write_bytes(void* dst, const void* src, size_t len);

  // ----- allocation -----------------------------------------------------

  /// Allocate persistent memory owned by this transaction: released again
  /// if the transaction aborts, durable once it commits.
  void* alloc(size_t n);

  template <typename T>
  T* alloc_obj() {
    return static_cast<T*>(alloc(sizeof(T)));
  }

  /// Free a persistent block; deferred until commit (an aborted
  /// transaction frees nothing).
  void dealloc(void* p);

  // ----- misc -------------------------------------------------------------

  /// Model `ns` of non-memory compute inside the transaction.
  void work(uint64_t ns) { ctx_->advance(ns); }

  sim::ExecContext& ctx() { return *ctx_; }
  Runtime& runtime() { return *rt_; }

  /// Explicit user-requested abort+retry (e.g. failed precondition that a
  /// concurrent transaction may fix).
  [[noreturn]] void abort_and_retry();

  /// Cause of the most recent abort (valid after an AbortTx unwound; used
  /// by the runtime's retry loop for trace attribution).
  stats::AbortCause last_abort_cause() const { return last_abort_cause_; }

 private:
  friend class Runtime;
  friend class EpochManager;
  friend class ContainmentManager;

  Tx(Runtime& rt, int worker);

  void attach(sim::ExecContext* ctx, stats::TxCounters* c) {
    ctx_ = ctx;
    c_ = c;
  }

  void begin();
  void commit();
  void handle_abort();  // rollback + backoff (or capacity growth) after AbortTx

  /// Runtime::run's FiberKill path: quarantine this descriptor with the
  /// containment manager (no-op when containment is off). Atomic stores
  /// only — must stay safe to call right after a catch handler closed.
  void mark_killed();
  [[noreturn]] void abort_tx(stats::AbortCause cause);

  /// Which resource a capacity abort ran out of. Distinct from the abort
  /// *cause* (always kCapacity): handle_abort consumes the kind to decide
  /// what to grow before the retry.
  enum class CapacityKind : uint8_t { kNone = 0, kWriteLog, kAllocLog, kWriteIndex };

  /// Abort the attempt because `kind` is exhausted; handle_abort will grow
  /// the resource (or raise CapacityError) after normal rollback.
  [[noreturn]] void capacity_abort(CapacityKind kind);

  /// Grow the resource recorded by the pending capacity abort. Runs after
  /// rollback, outside any transaction. Throws CapacityError when the
  /// resource cannot grow further.
  void grow_for_capacity();

  // orec-lazy implementation (orec_lazy.cpp)
  uint64_t lazy_read(const uint64_t* waddr);
  void lazy_write(uint64_t* waddr, uint64_t val);
  void lazy_commit();

  // orec-eager implementation (orec_eager.cpp)
  uint64_t eager_read(const uint64_t* waddr);
  void eager_write(uint64_t* waddr, uint64_t val);
  void eager_commit();
  void eager_rollback();

  // The commit protocol (commit.cpp; docs/LOGGING.md, "Commit ordering").

  /// Everything after the write set's orecs are held, for both
  /// algorithms: take the commit timestamp, validate, seal (an epoch of
  /// one on this context, or through the epoch leader), then the shared
  /// tail — redo write-back, deferred frees, retire, orec release.
  void commit_writes();

  /// The commit seal over `txs`, every flush and fence issued through
  /// (ctx, c): A. flush each payload, one fence; B. each mirror commit
  /// mark, one fence (mirrored slots only); C. flip each status to
  /// COMMITTED, one fence — the durable commit point. A committer seals
  /// itself as an epoch of one; an epoch leader seals every member, so the
  /// cost accrues to the leader's WPQ, never to a parked member's clock.
  /// `guard` runs before each member's step in every batch and before the
  /// last fence.
  static void seal(std::span<Tx* const> txs, sim::ExecContext& ctx,
                   stats::TxCounters* c, const std::function<void()>& guard);

  // Per-member seal steps, run from the issuing context: batch A (the
  // payload, then its psan check), batch B (the mirror mark, then its
  // check), batch C (the status). seal_header is the member's own
  // stores-only part (redo: counts, algo, CRCs), issued before the batches.
  void seal_header();
  bool seal_payload(sim::ExecContext& ctx, stats::TxCounters* c);
  void check_payload_persisted();
  bool seal_mirror_mark(sim::ExecContext& ctx, stats::TxCounters* c);
  void check_mirror_persisted();
  void seal_status(sim::ExecContext& ctx, stats::TxCounters* c);

  /// Redo write-back after the commit seal (`timed`: its own flush-drain
  /// window, as in epoch mode).
  void write_back(bool timed);

  // shared helpers (tx.cpp)

  /// The orec-validated read both algorithms share: abort on a lock held
  /// by another transaction (after offering containment a reclaim), load,
  /// revalidate against `v1` (the orec word read before the load) and the
  /// start time, then record the read. Undo's own-lock shortcut runs
  /// before this.
  uint64_t validated_read(std::atomic<uint64_t>& orec, uint64_t v1, const uint64_t* waddr);
  /// Lock `orec` for this transaction (no-op when already ours); aborts
  /// on a conflict or a version newer than the start time.
  void acquire_orec(std::atomic<uint64_t>& orec);
  /// Start the host cache misses an access to a word will take (its orec,
  /// its line, its directory set), so that they overlap each other and the
  /// work before their first use. Changes no simulated state.
  void prefetch_word(const void* waddr);
  /// prefetch_word for every word from `first_word` up to `end`, so that a
  /// multi-word access waits for its misses together, not one by one.
  void prefetch_words(uintptr_t first_word, uintptr_t end);
  void append_log(uint64_t off, uint64_t val);
  void append_alloc_word(uint64_t word);
  void persist_log_range(sim::ExecContext& ctx, stats::TxCounters* c,
                         size_t first_entry, size_t n_entries);
  void release_owned(uint64_t version_word);
  void restore_owned();  // abort: every acquired orec back to its pre-lock word
  /// The alloc log is a transaction's one record of its allocations and
  /// deferred frees. Abort frees every block `words` (its alloc-log words)
  /// allocated and durably clears the log's count; commit frees every
  /// block the log deallocates. Both walk in log order.
  void cancel_allocs(std::span<const uint64_t> words);
  void apply_frees();
  void retire_logs();  // durably clear counts + set IDLE for the next epoch
  bool validate_read_set() const;
  void update_log_hwm();

  /// Copy the sealed primary header to the replica header and reseal the
  /// primary's header CRC (log_mirror only; no-op otherwise). Caller owns
  /// flushing the primary header and fencing.
  void sync_replica_header();

  // Persistency-sanitizer ordering points (no-ops when psan_ is null).
  // Declared here, defined in tx.cpp where analysis/psan.h is visible.
  // The log check covers every copy of the records; the header check
  // covers one copy (SlotLayout::kPrimary or kReplica).
  void psan_check_log_persisted(size_t first_entry, size_t n_entries,
                                analysis::DiagKind kind, const char* what);
  void psan_check_header_persisted(size_t copy, analysis::DiagKind kind, const char* what);
  void psan_check_dirty_persisted(analysis::DiagKind kind, const char* what);

  Runtime* rt_;
  sim::ExecContext* ctx_ = nullptr;
  stats::TxCounters* c_ = nullptr;
  analysis::Psan* psan_ = nullptr;  // owned by the pool's Memory; null when off
  analysis::Rsan* rsan_ = nullptr;  // owned by the pool's Memory; null when off
  ContainmentManager* cm_ = nullptr;  // null unless tx_timeout_ns > 0
  int worker_;
  Algo algo_;

  SlotLayout slot_;
  WriteIndex windex_;

  uint64_t start_time_ = 0;
  uint64_t epoch_ = 0;
  size_t n_log_ = 0;
  size_t n_alloc_log_ = 0;
  bool active_persisted_ = false;  // eager: ACTIVE status already durable
  bool crc_logs_ = false;          // seal log records (crash_sim configs)
  uint64_t commit_ticket_ = 0;     // orec-clock ticket of the last commit
  /// On-behalf reclamation's forward verdict (DRAM only; cleared at
  /// begin): set once the commit point is durable, or by the first
  /// reclaimer that judges the transaction committed, before its first
  /// store. It tells a worker killed after its retire (the next epoch's
  /// IDLE header) from a redo transaction that never sealed, and a
  /// takeover reclaimer reuses it rather than re-read a retired header.
  bool committed_ = false;

  std::vector<std::pair<std::atomic<uint64_t>*, uint64_t>> read_set_;
  std::vector<OwnedOrec> owned_;
  DirtyLines dirty_;

  uint64_t attempt_ = 0;
  stats::AbortCause last_abort_cause_ = stats::AbortCause::kExplicit;

  /// Bound on overflow segments per slot. Each growth doubles total log
  /// capacity, so 8 segments already admit write sets 256x the base log;
  /// deeper chains indicate a runaway transaction, not a real footprint.
  static constexpr size_t kMaxLogSegments = 8;
  CapacityKind capacity_kind_ = CapacityKind::kNone;

  util::Rng rng_;
};

}  // namespace ptm
