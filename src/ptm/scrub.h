// Background integrity scrubber.
//
// A DES-scheduled fiber (workloads::run_point spawns one when
// SystemConfig::scrub_interval_ns > 0) that periodically walks every
// worker slot's persistent log metadata — slot headers, alloc logs, write
// logs, overflow segments — plus the allocator's metadata region,
// validating media health and (on mirrored pools) sealed-header CRCs.
// Damage found on a line with an intact replica is repaired in place
// through ptm::restore_from_replica (replica bytes stored over the
// primary, clwb, sfence), and only then is the media fault retired — the
// same routine and order recovery uses, so a power failure mid-repair at
// worst re-runs it.
//
// The scrubber's purpose is shrinking the latent-fault window: a line that
// rots *after* its last persist (nvm::Memory::arm_media_fault_at) would
// otherwise sit undetected until the next crash recovery needs it —
// possibly after its mirror rotted too. Scrub passes detect and heal
// one-sided damage while the other copy is still good.
//
// Concurrency: the fiber shares the DES engine with the workers, yielding
// inside every charged load. Slots whose header is not IDLE are skipped
// wholesale (the owner's log lines are in legitimate mid-batch states);
// IDLE-slot log lines are only touched when media-faulted, and repairs
// copy mirror→primary — safe mid-transaction on lazy slots because every
// mirror line is written before its primary, so the mirror is never
// behind.
#pragma once

#include "ptm/runtime.h"

namespace ptm {

class Scrubber {
 public:
  explicit Scrubber(Runtime& rt);

  /// One full walk. Latent media faults due by ctx.now_ns() are activated
  /// first, so a pass observes exactly the rot that exists at its own
  /// simulated time.
  void run_pass(sim::ExecContext& ctx);

  const stats::ScrubStats& stats() const { return s_; }

 private:
  /// Scan the whole-line prefix of a (primary, replica) region pair:
  /// charge one media read per line, detect media faults, restore a
  /// faulted line from the replica when the replica line is healthy.
  /// `replica == nullptr` means detect-only.
  void scan_region(sim::ExecContext& ctx, const void* primary, const void* replica,
                   size_t bytes);

  Runtime& rt_;
  stats::ScrubStats s_;
};

}  // namespace ptm
