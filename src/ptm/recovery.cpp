// Startup / post-crash recovery, and its per-slot pass
// (Runtime::resolve_slot), which on-behalf reclamation (ptm/containment.h)
// also runs for a dead worker's slot.
//
// Invariant provided to applications: after recover(),
//  * every transaction whose commit record persisted is fully applied
//    (redo logs are replayed; undo-mode commits were already in place);
//  * every transaction without a persisted commit record has no effect
//    (undo logs are rolled back; redo logs and speculative allocations are
//    discarded).
// This is the "linearizable durability" contract ([10]) the paper's PTMs
// provide. Replay is idempotent, so a crash during recovery is safe
// (tests/test_crash.cpp's CrashDuringRecoveryIsSafe sweeps a crash through
// every persistence event of a recovery replay to pin this).
//
// Defensive posture: nothing persisted is trusted until validated.
// Counts are clamped to attached capacity, segment links are bounds- and
// magic-checked (SlotLayout::attach_segments), record offsets must land
// in a writable data region (root area or heap — never the pool header
// or the log slots themselves, which a corrupt record could otherwise
// scribble over), and on crash-sim configurations each record's CRC is
// verified (torn records are *detected*, not inferred) and poisoned
// lines reported by the media-fault model are refused.
//
// Repair-and-survive (SystemConfig::log_mirror): every sealed log line —
// slot headers, alloc-log words, redo/undo records, segment headers — has
// a same-sized replica on a distinct line (SlotLayout copy kReplica),
// written *before* its primary inside the same flush+fence batch. When a
// primary copy fails its media or CRC screen, recovery falls back to the
// replica, rewrites the primary in place (restore_from_replica, durably;
// then clears the media fault — crash-idempotent), and counts it in
// records_repaired. Damage with no usable copy left is
// records_lost (slots_lost counts its slots): the affected heap lines are
// quarantined in the allocator and the runtime keeps going. Everything
// recovery applied, repaired, or refused is tallied in the returned
// stats::RecoveryReport.
#include <algorithm>
#include <vector>

#include "analysis/rsan.h"
#include "ptm/runtime.h"

namespace ptm {
namespace {

/// Why a record (or header) copy was rejected, in screening order: a
/// poisoned line masquerades as anything, so media is attributed first.
enum class Verdict : uint8_t { kOk, kStale, kTorn, kMedia, kInvalid };

}  // namespace

stats::RecoveryReport Runtime::recover(sim::ExecContext& ctx) {
  // All speculation state is volatile and died with the crash.
  orecs_.reset();
  // The epoch queue is volatile too: every published-but-unacked member
  // died with its fiber, and its slot's persistent image alone decides its
  // fate below — exactly the per-transaction crash cases, so the replay
  // and rollback paths need no epoch-specific logic.
  if (epochs_) epochs_->reset();
  // Containment verdicts (leases, quarantine flags, reclaim guards) are
  // volatile online state; after a power failure recovery owns every slot.
  if (containment_) containment_->reset();
  // Recovery is single-threaded and runs before any worker: a full
  // synchronization point for the race sanitizer, so pre-crash histories
  // can never be reported against post-recovery accesses.
  if (analysis::Rsan* rs = pool_.mem().rsan()) rs->on_global_sync();

  stats::RecoveryReport rep;
  rep.mirror_enabled = pool_.config().log_mirror;
  // CRC sealing and media-fault injection only exist on crash-sim
  // configurations (resolve_slot screens them on the same condition).
  rep.media_faults = pool_.config().crash_sim ? pool_.mem().media_fault_count() : 0;
  // Recovery is not part of measured runs: no counters.
  for (int w = 0; w < pool_.config().max_workers; w++) resolve_slot(w, ctx, nullptr, rep);
  return rep;
}

void Runtime::resolve_slot(int w, sim::ExecContext& ctx, stats::TxCounters* c,
                           stats::RecoveryReport& rep) {
  nvm::Memory& mem = pool_.mem();
  // CRC sealing and media-fault injection only exist on crash-sim
  // configurations; on performance configurations the crc fields are zero
  // by construction and must not be checked.
  const bool checked = pool_.config().crash_sim;

  // Writable data regions: the application root area and the persistent
  // heap. A record pointing anywhere else (pool header, worker-meta/log
  // slots, out of bounds, misaligned) is corrupt — applying it could
  // destroy the very metadata recovery is walking.
  const uint64_t meta_lo = pool_.header()->meta_off;
  const uint64_t heap_lo = pool_.header()->heap_off;
  const uint64_t pool_size = pool_.size();
  auto valid_data_off = [&](uint64_t off) {
    if ((off & 7) != 0 || off + 8 > pool_size) return false;
    const bool in_root = off >= nvm::Pool::kHeaderBytes && off < meta_lo;
    const bool in_heap = off >= heap_lo;
    return in_root || in_heap;
  };
  auto valid_heap_off = [&](uint64_t off) {
    return (off & 7) == 0 && off >= heap_lo && off + 8 <= pool_size;
  };

  SlotLayout slot = SlotLayout::carve(pool_.worker_meta(w), pool_.worker_meta_bytes(),
                                      pool_.config().log_mirror);
  rep.slots_scanned++;

  // Per-slot damage bookkeeping. Media faults repaired at record
  // granularity are cleared only after every record sharing the line has
  // been screened (clearing early would let the line's remaining
  // scrambled records dodge the media screen and mis-classify as stale).
  bool slot_lost = false;
  std::vector<uint64_t> repaired_lines;

  auto bucket = [&](Verdict v) {
    switch (v) {
      case Verdict::kMedia: rep.records_media_faulted++; break;
      case Verdict::kTorn: rep.records_torn++; break;
      case Verdict::kInvalid: rep.records_invalid++; break;
      default: break;
    }
  };

  // ---- header health -------------------------------------------------
  //
  // The header line carries state, counts and epoch: with it gone,
  // neither replay nor rollback is possible. A mirrored slot keeps a
  // full sealed replica (own CRC) one line over; the replica was made
  // durable before every primary seal it covers, so whenever the
  // primary fails its screen an intact replica is authoritative.
  bool header_lost = false;
  if (checked) {
    const bool p_media = mem.media_faulted(slot.header, sizeof(TxSlotHeader));
    const bool p_torn = !p_media && slot.mirrored() && !slot_header_crc_ok(*slot.header);
    if (p_media || p_torn) {
      const bool fixed = replica_header_usable(mem, slot);
      if (fixed) {
        restore_from_replica(pool_, ctx, slot.header,
                             slot.header_copy(SlotLayout::kReplica), sizeof(TxSlotHeader));
        mem.repair_media_fault(mem.line_of(slot.header));
        rep.records_damaged++;
        rep.records_repaired++;
      }
      if (!fixed && p_media) {
        // No usable copy of the header: the slot's state is unknowable.
        header_lost = true;
        rep.records_media_faulted++;
        rep.records_damaged++;
        rep.records_lost++;
        slot_lost = true;
      }
      // !fixed && p_torn (no media): both copies unsealed. That is an
      // in-flight image from before mirroring sealed this slot (or a
      // never-used fresh slot, whose all-zero header fails the CRC by
      // design) — the primary is exactly as trustworthy as it was
      // pre-mirror, so proceed with it.
    }
  }

  if (header_lost) {
    if (slot.mirrored()) {
      // Rebuild both copies from zero so no scrambled residue (chain
      // links, counts) survives into the resealed header, then retire
      // the media faults: the lines now hold known-good bytes.
      static const TxSlotHeader kZeroHdr{};
      for (size_t k = slot.copies; k-- > 0;) {
        mem.store_bytes(ctx, c, slot.header_copy(k), &kZeroHdr, sizeof(TxSlotHeader),
                        nvm::Space::kLog);
        mem.clwb(ctx, c, slot.header_copy(k));
      }
      mem.sfence(ctx, c);
      for (size_t k = 0; k < slot.copies; k++) {
        mem.repair_media_fault(mem.line_of(slot.header_copy(k)));
      }
    }
    // Fall through to the quiesce below, which rebuilds the header as an
    // empty IDLE slot (epoch continuity does not matter — any surviving
    // records become stale debris for the next epoch).
  } else {
    // Rebuild the overflow-segment chain from its persisted links — the
    // crashed transaction's log may extend past the in-slot array. On a
    // mirrored slot a damaged segment *header* is repaired in place from
    // its replica instead of truncating the chain.
    uint64_t seg_repairs = 0;
    rep.segment_links_truncated += slot.attach_segments(pool_, &ctx, &seg_repairs);
    rep.records_damaged += seg_repairs;
    rep.records_repaired += seg_repairs;
    const uint64_t status = slot.header->status;
    const uint64_t state = TxSlotHeader::state_of(status);
    const uint64_t epoch = TxSlotHeader::live_epoch(status);
    // Clamp the persisted counts: a corrupt count must not walk past the
    // log arrays (per-record tags/crcs still screen what is inside).
    const uint64_t n_log = std::min<uint64_t>(slot.header->log_count, slot.total_capacity);
    const uint64_t n_alloc =
        std::min<uint64_t>(slot.header->alloc_count, slot.alloc_log_cap);
    const auto algo = static_cast<Algo>(slot.header->algo);

    auto classify = [&](const LogEntry* e) -> Verdict {
      if (checked && mem.media_faulted(e, sizeof(LogEntry))) return Verdict::kMedia;
      if (!LogEntry::tag_matches(e->off, epoch)) return Verdict::kStale;
      if (checked && !LogEntry::crc_ok(e->off, e->val)) return Verdict::kTorn;
      if (!valid_data_off(LogEntry::offset_of(e->off))) return Verdict::kInvalid;
      return Verdict::kOk;
    };

    // Validate one write-log record for apply_records: a record it
    // returns is applied (and counted replayed), nullptr means it must
    // not be. A primary that fails any non-stale screen falls back to
    // its mirror copy: an intact mirror both supplies the record and is
    // copied over the primary (durably, then the media fault is
    // retired), so the next recovery sees a healthy primary.
    //
    // Loss semantics per `committed`: in a COMMITTED slot every sealed
    // record is durable state, so any non-stale rejection with no usable
    // copy is a loss; in an ACTIVE undo slot only media damage is — a
    // torn record was never fence-ordered, which also means its in-place
    // store never executed, so *skipping* it is the correct rollback.
    auto screen_entry = [&](uint64_t i, bool committed) -> const LogEntry* {
      LogEntry* e = slot.entry_at(i);
      const Verdict pv = classify(e);
      if (pv == Verdict::kOk) {
        rep.records_replayed++;
        return e;
      }
      if (pv == Verdict::kStale) {
        rep.records_stale++;  // ordinary partial-persistence debris
        return nullptr;
      }
      rep.records_damaged++;
      bucket(pv);
      Verdict mv = Verdict::kInvalid;
      if (slot.mirrored()) {
        const LogEntry* m = slot.entry_at(i, SlotLayout::kReplica);
        mv = classify(m);
        if (mv == Verdict::kOk) {
          restore_from_replica(pool_, ctx, e, m, sizeof(LogEntry));
          if (pv == Verdict::kMedia) repaired_lines.push_back(mem.line_of(e));
          rep.records_repaired++;
          rep.records_replayed++;
          return e;
        }
      }
      // No usable copy left. The replica record is stored before the
      // primary and rides the same flush/fence batch, so in an ACTIVE
      // undo slot a replica that is stale or torn proves the record's
      // ordering fence never completed — which means the in-place store
      // it guards never executed, and skipping it is the correct
      // rollback, exactly as for a torn primary. Only when the replica
      // is itself media-damaged (or sealed garbage with a bad offset) is
      // the record's fate unknowable, and pessimism counts it lost.
      bool lost;
      if (!slot.mirrored()) {
        lost = pv == Verdict::kMedia;
      } else if (committed) {
        lost = true;
      } else {
        lost = pv == Verdict::kMedia &&
               (mv == Verdict::kMedia || mv == Verdict::kInvalid);
      }
      if (lost) {
        rep.records_lost++;
        slot_lost = true;
        // Best-effort quarantine of the record's home line, from
        // whichever copy still names a plausible heap target: the word
        // there may hold a partial write-back (committed redo) or an
        // un-rolled-back speculative store (active undo).
        uint64_t tgt = 0;
        for (size_t k = 0; k < slot.copies && tgt == 0; k++) {
          const uint64_t off_word = slot.entry_at(i, k)->off;
          if (LogEntry::tag_matches(off_word, epoch) &&
              valid_heap_off(LogEntry::offset_of(off_word))) {
            tgt = LogEntry::offset_of(off_word);
          }
        }
        if (tgt != 0) alloc_.quarantine(pool_.at(tgt), 8);
      }
      return nullptr;
    };

    // Validate one alloc-log word; returns 0 when it must not be
    // applied (a sealed word is never 0: its tag bits are nonzero).
    // Same mirror fallback as write records. A word with no usable copy
    // is a bounded storage leak (a cancel or free that cannot run), not
    // data loss: committed data never depends on an alloc-log word.
    auto screen_alloc = [&](uint64_t i) -> uint64_t {
      uint64_t* ap = &slot.alloc_log[i];
      auto cls = [&](uint64_t word, const uint64_t* addr) -> Verdict {
        if (checked && mem.media_faulted(addr, 8)) return Verdict::kMedia;
        if (!AllocLogOp::tag_matches(word, epoch)) return Verdict::kStale;
        if (checked && !AllocLogOp::crc_ok(word)) return Verdict::kTorn;
        return Verdict::kOk;
      };
      const Verdict pv = cls(*ap, ap);
      if (pv == Verdict::kOk) return *ap;
      if (pv == Verdict::kStale) {
        rep.records_stale++;
        return 0;
      }
      rep.records_damaged++;
      bucket(pv);
      if (slot.mirrored()) {
        const uint64_t* mp = slot.alloc_copy(SlotLayout::kReplica) + i;
        if (cls(*mp, mp) == Verdict::kOk) {
          restore_from_replica(pool_, ctx, ap, mp, sizeof(uint64_t));
          if (pv == Verdict::kMedia) repaired_lines.push_back(mem.line_of(ap));
          rep.records_repaired++;
          return *ap;
        }
      }
      return 0;
    };

    const bool committed = state == TxSlotHeader::kCommitted;
    if (committed) {
      rep.slots_committed++;
      if (algo == Algo::kOrecLazy) {
        // Replay the redo log forward; write-back may have been partial.
        DirtyLines homes;
        apply_records(pool_, ctx, c, slot, n_log, /*newest_first=*/false, homes,
                      [&](size_t i) { return screen_entry(i, /*committed=*/true); });
        flush_lines(pool_, ctx, c, homes);
        mem.sfence(ctx, c);
        if (checked && n_log > 0) {
          // Cross-check the whole committed record set against the
          // checksum the committer sealed into the header — *after*
          // screening, so mirror-repaired records count as intact. A
          // mismatch now means the log no longer matches what was
          // committed and no copy could put it back (media damage,
          // truncated chain): per-record screening still replayed every
          // provably-good record, but the damage is reported rather
          // than silently absorbed.
          if (log_crc(slot, n_log) !=
              static_cast<uint32_t>(slot.header->pad[SlotLayout::kLogCrcPad])) {
            rep.log_crc_mismatches++;
          }
        }
      }
    } else if (state == TxSlotHeader::kActive && algo == Algo::kOrecEager) {
      // Not committed (an IDLE slot has nothing in place to undo).
      rep.slots_rolled_back++;
      // Roll back in-place writes, newest first. A record that fails
      // its crc was never fence-ordered before the crash — which also
      // means its in-place store never executed, so *skipping* it is
      // the correct rollback, not a loss.
      DirtyLines homes;
      apply_records(pool_, ctx, c, slot, n_log, /*newest_first=*/true, homes,
                    [&](size_t i) { return screen_entry(i, /*committed=*/false); });
      flush_lines(pool_, ctx, c, homes);
      mem.sfence(ctx, c);
    }
    // The alloc log: a committed transaction's deferred frees take effect,
    // an uncommitted one's allocations are cancelled. Membership-checked,
    // so a block the transaction (or an earlier pass) already returned is
    // left alone.
    const uint64_t op = committed ? AllocLogOp::kFree : AllocLogOp::kAlloc;
    for (uint64_t i = 0; i < n_alloc; i++) {
      const uint64_t word = screen_alloc(i);
      if (word == 0 || AllocLogOp::op_of(word) != op) continue;
      if (!valid_heap_off(AllocLogOp::off_of(word))) {
        rep.records_invalid++;
        continue;
      }
      alloc_.free_block_if_absent(ctx, c, pool_.at(AllocLogOp::off_of(word)));
      (committed ? rep.frees_applied : rep.allocs_cancelled)++;
    }
  }

  // Every record sharing a repaired line has been screened by now; the
  // line's bytes are fully reconstructed, so the media fault retires.
  for (const uint64_t line : repaired_lines) mem.repair_media_fault(line);
  if (slot_lost) rep.slots_lost++;

  // Quiesce the slot past its live epoch, so every record left in it
  // reads as stale, resealing both copies so the next recovery's header
  // CRC screen passes (same retire as a commit).
  Tx& tx = *txs_[static_cast<size_t>(w)];
  tx.epoch_ = retire_slot(pool_, ctx, c, slot,
                          TxSlotHeader::live_epoch(slot.header->status) + 1);

  // Refresh the live descriptor: epoch cache, counts, and the DRAM view
  // of the segment chain (the crash may have torn a chain-link install
  // the descriptor still caches, or recovery may run on a descriptor
  // that never saw the chain).
  tx.n_log_ = 0;
  tx.n_alloc_log_ = 0;
  tx.slot_.attach_segments(pool_);
}

}  // namespace ptm
