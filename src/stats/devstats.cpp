#include "stats/devstats.h"

#include "stats/trace.h"

namespace stats {

const char* channel_name(size_t i) {
  switch (i) {
    case kChanDramRead: return "dram_read";
    case kChanDramWrite: return "dram_write";
    case kChanOptaneRead: return "optane_read";
    case kChanOptaneWrite: return "optane_write";
    default: return "?";
  }
}

DevStats::DevStats(int max_workers) : workers_(max_workers) {}

void DevStats::account_eviction(const XpEntry& e) {
  c_.xpline_writes++;
  const uint8_t full = (1u << kXplineLines) - 1;
  if (e.mask != full) c_.xpline_rmw_reads++;
}

void DevStats::drain(uint64_t now_ns) {
  for (XpEntry& e : buf_) {
    if (e.xpline == XpEntry::kNone) continue;
    if (now_ns < e.insert_ns + kDefaultDrainWindowNs) continue;
    account_eviction(e);
    c_.xpbuffer_drains++;
    e.xpline = XpEntry::kNone;
    e.mask = 0;
  }
}

void DevStats::on_media_write(int media, uint64_t line, uint64_t now_ns) {
  if (media == kMediaDram) {
    c_.dram_lines_written++;
    return;
  }
  drain(now_ns);
  c_.host_lines_written++;
  const uint64_t xp = line / kXplineLines;
  const uint8_t bit = static_cast<uint8_t>(1u << (line % kXplineLines));
  lru_clock_++;
  for (XpEntry& e : buf_) {
    if (e.xpline == xp) {
      e.mask |= bit;
      e.stamp = lru_clock_;
      c_.xpbuffer_hits++;
      return;
    }
  }
  c_.xpbuffer_misses++;
  XpEntry* victim = &buf_[0];
  for (XpEntry& e : buf_) {
    if (e.xpline == XpEntry::kNone) {
      victim = &e;
      break;
    }
    if (e.stamp < victim->stamp) victim = &e;
  }
  if (victim->xpline != XpEntry::kNone) account_eviction(*victim);
  victim->xpline = xp;
  victim->mask = bit;
  victim->stamp = lru_clock_;
  victim->insert_ns = now_ns;
}

void DevStats::on_media_read(int media, uint64_t line, uint64_t now_ns) {
  if (media == kMediaDram) {
    c_.dram_lines_read++;
    return;
  }
  drain(now_ns);
  c_.host_lines_read++;
  const uint64_t xp = line / kXplineLines;
  for (const XpEntry& e : buf_) {
    if (e.xpline == xp) {
      c_.xpbuffer_read_hits++;
      return;
    }
  }
  c_.xpline_reads++;
}

void DevStats::on_wpq_enqueue(int w, uint64_t occupancy, uint64_t drain_ns) {
  c_.wpq_enqueues++;
  if (occupancy > c_.wpq_peak_occupancy) c_.wpq_peak_occupancy = occupancy;
  PerWorker& pw = workers_.of(w);
  pw.occupancy.record(occupancy);
  pw.drain_ns.record(drain_ns);
  pw.enqueues++;
}

void DevStats::on_wpq_stall(int w, uint64_t ns) { workers_.of(w).wpq_stall_ns.record(ns); }

void DevStats::on_fence_stall(int w, uint64_t ns) { workers_.of(w).fence_stall_ns.record(ns); }

void DevStats::emit_counters(Trace& trace, uint64_t now_ns, uint64_t wpq_occupancy,
                             const std::array<uint64_t, kNumChannels>& chan_busy_ns) {
  trace.counter("wpq_occupancy", now_ns, static_cast<double>(wpq_occupancy));
  trace.counter("write_amplification", now_ns, snapshot_wa_estimate());

  // Interval rates: hit percentage of the write-combining buffer and the
  // utilization of each bandwidth channel since the previous sample.
  const uint64_t dt = now_ns > prev_sample_ns_ ? now_ns - prev_sample_ns_ : 0;
  const uint64_t dh = c_.xpbuffer_hits - prev_hits_;
  const uint64_t dm = c_.xpbuffer_misses - prev_misses_;
  if (dh + dm > 0) {
    trace.counter("xpbuffer_hit_pct", now_ns,
                  100.0 * static_cast<double>(dh) / static_cast<double>(dh + dm));
  }
  static const char* kUtilNames[kNumChannels] = {
      "util_dram_read_pct", "util_dram_write_pct", "util_optane_read_pct",
      "util_optane_write_pct"};
  for (size_t i = 0; i < kNumChannels; i++) {
    if (dt > 0) {
      const uint64_t db = chan_busy_ns[i] - prev_busy_ns_[i];
      double pct = 100.0 * static_cast<double>(db) / static_cast<double>(dt);
      if (pct > 100.0) pct = 100.0;  // backlog booked past `now` counts later
      trace.counter(kUtilNames[i], now_ns, pct);
    }
    prev_busy_ns_[i] = chan_busy_ns[i];
  }

  prev_hits_ = c_.xpbuffer_hits;
  prev_misses_ = c_.xpbuffer_misses;
  prev_sample_ns_ = now_ns;
  next_sample_ns_ = now_ns + kDefaultSampleIntervalNs;
}

double DevStats::snapshot_wa_estimate() const {
  if (c_.host_lines_written == 0) return 0.0;
  // Count still-buffered XPLines as eventual writes so the running value
  // matches what snapshot() will report.
  uint64_t pending = 0;
  for (const XpEntry& e : buf_) {
    if (e.xpline != XpEntry::kNone) pending++;
  }
  return static_cast<double>((c_.xpline_writes + pending) * DeviceCounters::kXplineBytes) /
         static_cast<double>(c_.host_lines_written * DeviceCounters::kHostLineBytes);
}

DeviceCounters DevStats::snapshot() const {
  DeviceCounters d = c_;
  d.enabled = true;

  // Buffered XPLines will be written to media when the DIMM retires them;
  // account them as flushes (without touching the live buffer).
  const uint8_t full = (1u << kXplineLines) - 1;
  for (const XpEntry& e : buf_) {
    if (e.xpline == XpEntry::kNone) continue;
    d.xpline_writes++;
    d.xpbuffer_flushes++;
    if (e.mask != full) d.xpline_rmw_reads++;
  }

  for (size_t w = 0; w < workers_.size(); w++) {
    const PerWorker& pw = workers_[w];
    d.wpq_occupancy.merge(pw.occupancy);
    d.wpq_drain_ns.merge(pw.drain_ns);
    d.fence_stall_ns.merge(pw.fence_stall_ns);
    d.wpq_stall_ns.merge(pw.wpq_stall_ns);
    if (pw.enqueues > 0) {
      WpqWorkerStats ws;
      ws.worker = static_cast<int>(w);
      ws.occupancy = pw.occupancy;
      ws.drain_ns = pw.drain_ns;
      d.wpq_workers.push_back(std::move(ws));
    }
  }
  return d;
}

}  // namespace stats
