// Abort-backoff policy (Tx::handle_abort).
//
// Exponential backoff separates conflicting transactions in (simulated)
// time; required for livelock-freedom under the DES single-runner rule.
// The draw must never collapse to zero — two conflicting workers whose
// draws are both 0 ns would retry at the same simulated instant forever —
// so the wait is clamped to at least one `base`. The ceiling is capped at
// kBackoffMaxNs with jitter below the cap (capped retriers must stay
// desynchronized): an unbounded draw could park a live worker past the
// containment lease timeout and past any watchdog interval.
//
// RNG-sequence contract: the jitter draw happens only when the cap binds,
// which it never does at the default base/cap values — default-config
// runs consume the exact same rng sequence as the pre-cap policy (one
// bounded draw per abort), keeping bench artifacts byte-identical. The
// pinned regression tests live in tests/test_containment.cpp.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace ptm {

/// Ceiling for the randomized abort backoff Tx::handle_abort draws. It
/// never binds at the default backoff_base_ns (150ns << 10 max shift =
/// 153600 < 1 MiB-ns), keeping default-config runs byte-identical, but a
/// contended worker cannot back off past a containment watchdog timeout.
inline constexpr uint64_t kBackoffMaxNs = 1ull << 20;

/// One backoff draw for retry number `attempt` (1-based): uniform in
/// [0, base << min(attempt, 10)], clamped to >= base, capped to
/// [cap - cap/8, cap] when the draw exceeds a nonzero `cap` (jitter keeps
/// capped retriers apart; the result never drops below `base`).
inline uint64_t backoff_wait_ns(uint64_t attempt, uint64_t base, uint64_t cap,
                                util::Rng& rng) {
  const uint64_t shift = attempt < 10 ? attempt : 10;
  uint64_t wait = std::max<uint64_t>(base, rng.next_bounded((base << shift) + 1));
  if (cap != 0 && wait > cap) {
    const uint64_t jitter = cap / 8;
    wait = cap - (jitter != 0 ? rng.next_bounded(jitter + 1) : 0);
    if (wait < base) wait = base;
  }
  return wait;
}

}  // namespace ptm
