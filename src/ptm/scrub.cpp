#include "ptm/scrub.h"

#include "stats/trace.h"

namespace ptm {

Scrubber::Scrubber(Runtime& rt) : rt_(rt) { s_.enabled = true; }

void Scrubber::scan_region(sim::ExecContext& ctx, const void* primary, const void* replica,
                           size_t bytes) {
  nvm::Pool& pool = rt_.pool();
  nvm::Memory& mem = pool.mem();
  const auto* p = static_cast<const char*>(primary);
  const auto* r = static_cast<const char*>(replica);
  // Whole lines only: a region tail sharing a line with its own replica
  // region stays with recovery's record-granular screen — repairing it at
  // line granularity would cross the region boundary.
  for (size_t o = 0; o + nvm::Memory::kLineBytes <= bytes;
       o += nvm::Memory::kLineBytes) {
    s_.lines_scanned++;
    // One charged media read per line: the walk costs what a patrol read
    // costs, and the charge is the fiber's DES scheduling point.
    mem.load_word(ctx, nullptr, reinterpret_cast<const uint64_t*>(p + o), nvm::Space::kLog);
    if (!mem.media_faulted(p + o, nvm::Memory::kLineBytes)) continue;
    s_.media_faults_found++;
    if (r == nullptr || mem.media_faulted(r + o, nvm::Memory::kLineBytes)) {
      s_.unrepairable++;
      continue;
    }
    restore_from_replica(pool, ctx, const_cast<char*>(p + o), r + o, nvm::Memory::kLineBytes);
    mem.repair_media_fault(mem.line_of(p + o));
    s_.repaired++;
  }
}

void Scrubber::run_pass(sim::ExecContext& ctx) {
  nvm::Pool& pool = rt_.pool();
  nvm::Memory& mem = pool.mem();
  const bool checked = pool.config().crash_sim;
  s_.passes++;
  if (checked) mem.activate_due_media_faults(ctx.now_ns());

  for (int w = 0; w < pool.config().max_workers; w++) {
    SlotLayout slot = SlotLayout::carve(pool.worker_meta(w), pool.worker_meta_bytes(),
                                        pool.config().log_mirror);
    // Durable before the fault retires: a crash between the restore and
    // repair_media_fault re-poisons a line whose bytes are already
    // correct, and the next pass (or recovery) simply repairs it again.
    auto restore_header = [&] {
      restore_from_replica(pool, ctx, slot.header, slot.header_copy(SlotLayout::kReplica),
                           sizeof(TxSlotHeader));
      mem.repair_media_fault(mem.line_of(slot.header));
      s_.repaired++;
      s_.header_repairs++;
    };

    // Header first: with the header line gone the slot's state is
    // unknowable and its segment chain unwalkable.
    s_.lines_scanned++;
    mem.load_word(ctx, nullptr, &slot.header->status, nvm::Space::kLog);
    if (checked && mem.media_faulted(slot.header, sizeof(TxSlotHeader))) {
      s_.media_faults_found++;
      if (!replica_header_usable(mem, slot)) {
        // Leave the wreck for recovery's loss accounting.
        s_.unrepairable++;
        continue;
      }
      restore_header();
    }
    if (TxSlotHeader::state_of(slot.header->status) != TxSlotHeader::kIdle) {
      // A transaction is in flight here; skip the slot wholesale rather
      // than second-guess its owner's in-progress batches.
      s_.skipped_busy++;
      continue;
    }
    if (checked && slot.mirrored()) {
      // Sealed-header CRC validation: a primary whose seal no longer
      // matches (crash debris the media screen cannot see) heals from an
      // intact replica. Both-copies-unsealed is a fresh slot — leave it.
      s_.crc_checks++;
      if (!slot_header_crc_ok(*slot.header) && replica_header_usable(mem, slot)) {
        restore_header();
      }
    }

    // Walk the log structures. attach_segments repairs damaged segment
    // *headers* from their replicas itself (same order as recovery).
    uint64_t seg_repairs = 0;
    slot.attach_segments(pool, &ctx, &seg_repairs);
    s_.repaired += seg_repairs;
    s_.header_repairs += seg_repairs;
    // An unmirrored slot has no replica to repair from: detect-only.
    const bool m = slot.mirrored();
    scan_region(ctx, slot.alloc_log, m ? slot.alloc_copy(SlotLayout::kReplica) : nullptr,
                slot.alloc_log_cap * sizeof(uint64_t));
    scan_region(ctx, slot.log, m ? slot.log_copy(SlotLayout::kReplica) : nullptr,
                slot.log_capacity * sizeof(LogEntry));
    for (size_t k = 0; k < slot.segs.size(); k++) {
      LogSegment* seg = slot.segs[k];
      scan_region(ctx, seg->entries(), m ? seg->entries(SlotLayout::kReplica) : nullptr,
                  slot.seg_caps[k] * sizeof(LogEntry));
    }
  }

  // Allocator metadata (bump word + free-list heads) has no replica:
  // detect-only, surfacing rot long before an allocation walks into it.
  alloc::PersistentAllocator& al = rt_.allocator();
  scan_region(ctx, al.metadata_base(), nullptr, al.metadata_bytes());

  if (stats::Trace::on()) {
    stats::Trace& tr = stats::Trace::instance();
    const uint64_t now = ctx.now_ns();
    tr.counter("scrub_lines_scanned", now, static_cast<double>(s_.lines_scanned));
    tr.counter("scrub_media_faults_found", now,
               static_cast<double>(s_.media_faults_found));
    tr.counter("scrub_repaired", now, static_cast<double>(s_.repaired));
    tr.counter("scrub_unrepairable", now, static_cast<double>(s_.unrepairable));
  }
}

}  // namespace ptm
