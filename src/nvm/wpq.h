// Write Pending Queue (WPQ) model.
//
// In ADR, a clwb'd line travels to the memory controller's WPQ; once there
// it is guaranteed to persist (the ADR power reserve drains the queue). The
// WPQ is small and bounded — the paper identifies WPQ saturation as the
// cause of Optane's poor write scalability. We model it as:
//   * clwb enqueues the line; its drain completion time is granted by the
//     media write BandwidthChannel, with a latency floor equal to the
//     measured clwb-to-persistence latency (86/94 ns);
//   * if `capacity` lines are still in flight, the issuing worker stalls
//     until the oldest completes (completions are monotone, so a ring
//     suffices);
//   * sfence waits until all lines this worker enqueued have drained.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nvm/channel.h"
#include "nvm/cost_model.h"

namespace nvm {

class Wpq {
 public:
  Wpq(int capacity, int max_workers)
      : ring_(static_cast<size_t>(capacity), 0),
        per_worker_last_done_(static_cast<size_t>(max_workers), 0) {}

  /// Enqueue one line at simulated time `now`. Returns the time the caller
  /// must reach before the enqueue can happen (stall on full queue); the
  /// caller advances to it, then calls `commit_enqueue`.
  uint64_t stall_until_ns(uint64_t now) const {
    // Occupancy = entries whose completion is still in the future. The ring
    // holds the last `capacity` completions; if the oldest of those is
    // still pending, the queue is full.
    const uint64_t oldest = ring_[head_];
    return oldest > now ? oldest : now;
  }

  /// Record the enqueue: the line's drain is scheduled on `chan` with
  /// service `svc_ns` and latency floor `lat_ns`. Returns completion time.
  uint64_t enqueue(int worker, uint64_t now, BandwidthChannel& chan, double svc_ns,
                   double lat_ns) {
    const BandwidthChannel::Grant g = chan.request(now, svc_ns);
    uint64_t done = g.done_ns;
    const uint64_t floor = now + static_cast<uint64_t>(lat_ns);
    if (done < floor) done = floor;
    ring_[head_] = done;
    head_++;
    if (head_ == ring_.size()) head_ = 0;
    auto& last = per_worker_last_done_[static_cast<size_t>(worker)];
    if (done > last) last = done;
    return done;
  }

  /// Time by which all of `worker`'s enqueued lines have drained.
  uint64_t worker_drain_ns(int worker) const {
    return per_worker_last_done_[static_cast<size_t>(worker)];
  }

  /// Entries still in flight at simulated time `now` (devstats only; the
  /// ring is small — wpq_capacity — so the scan is cheap and off the
  /// default path).
  uint64_t occupancy(uint64_t now) const {
    uint64_t n = 0;
    for (const uint64_t done : ring_) {
      if (done > now) n++;
    }
    return n;
  }

  void reset() {
    std::fill(ring_.begin(), ring_.end(), 0);
    std::fill(per_worker_last_done_.begin(), per_worker_last_done_.end(), 0);
    head_ = 0;
  }

 private:
  std::vector<uint64_t> ring_;  // completion times, oldest at head_
  size_t head_ = 0;
  std::vector<uint64_t> per_worker_last_done_;
};

}  // namespace nvm
