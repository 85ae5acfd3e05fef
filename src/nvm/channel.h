// Shared bandwidth channel: a single-server queue in simulated time.
//
// Each media direction (DRAM read/write, Optane read/write) is one channel.
// A request at simulated time `now` begins service at max(now, next_free)
// and occupies the channel for `svc_ns`. The *latency* experienced by the
// requester is the queueing wait plus a device latency supplied by the
// caller; the *throughput* cap comes from svc_ns. This reproduces the
// paper's saturation effects: when many workers issue lines faster than
// 64B/svc, waits grow without bound and scalability flattens — at ~4
// writers for Optane and ~17 readers, per the calibrated service times.
//
// Channels are only consulted under the discrete-event engine, where a
// single worker runs at a time, so plain (non-atomic) state is safe. Real
// threads never reach them: `nvm::Memory` skips the timing model for a
// context that is not simulated.
#pragma once

#include <cstdint>

namespace nvm {

class BandwidthChannel {
 public:
  struct Grant {
    uint64_t wait_ns;     // queueing delay before service begins
    uint64_t start_ns;    // service start (== now + wait)
    uint64_t done_ns;     // service completion (start + svc)
  };

  /// Reserve one line of service at simulated time `now`.
  Grant request(uint64_t now, double svc_ns) {
    const uint64_t svc = static_cast<uint64_t>(svc_ns);
    const uint64_t start = next_free_ns_ > now ? next_free_ns_ : now;
    next_free_ns_ = start + svc;
    requests_++;
    busy_ns_ += svc;
    return Grant{start - now, start, start + svc};
  }

  /// How far the channel is booked past `now` (0 when idle).
  uint64_t backlog_ns(uint64_t now) const {
    return next_free_ns_ > now ? next_free_ns_ - now : 0;
  }

  // Utilization accounting for the device counters (stats::DeviceCounters):
  // total lines granted and total booked service time. busy/elapsed is the
  // channel's utilization; 1.0 means saturated.
  uint64_t requests() const { return requests_; }
  uint64_t busy_ns() const { return busy_ns_; }

  void reset() {
    next_free_ns_ = 0;
    requests_ = 0;
    busy_ns_ = 0;
  }

 private:
  uint64_t next_free_ns_ = 0;
  uint64_t requests_ = 0;
  uint64_t busy_ns_ = 0;
};

}  // namespace nvm
