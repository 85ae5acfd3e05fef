// Fixed-bucket log2 latency histograms for transaction-phase timing.
//
// The paper's mechanisms are *distributional* — fence latency extends
// lock-hold windows (Table III), WPQ saturation stalls writers (§IV) — so
// flat sums cannot show them. Each worker owns one histogram per phase
// inside its (unsynchronized, per-thread) TxCounters; recording is a single
// array increment on the hot path, and aggregation merges bucket-wise after
// workers join. Values are simulated nanoseconds.
//
// Telemetry is **off by default**: every record site first checks
// `telemetry_enabled()` (one relaxed atomic load), so flat-counter-only
// runs pay no measurable cost and stay bit-identical to pre-telemetry
// output under the deterministic engine. Enable programmatically; the
// bench harness enables it for REPRO_JSON.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/context.h"

namespace stats {

namespace detail {
// Constant-initialized, so callers may switch it during static
// initialization (bench_common.h does, for REPRO_JSON).
inline constinit std::atomic<bool> g_telemetry{false};
}  // namespace detail

/// Global telemetry switch (relaxed atomic, off until set).
inline bool telemetry_enabled() { return detail::g_telemetry.load(std::memory_order_relaxed); }
inline void set_telemetry_enabled(bool on) {
  detail::g_telemetry.store(on, std::memory_order_relaxed);
}

/// Power-of-two-bucket histogram: value v lands in bucket bit_width(v),
/// i.e. bucket 0 holds exactly 0, bucket k holds [2^(k-1), 2^k). 65
/// buckets cover the full uint64_t range. Percentiles report the bucket's
/// inclusive upper bound, clamped to the observed maximum — an
/// overestimate by at most 2x, which is enough to read distribution shape
/// and tail behaviour.
class Histogram {
 public:
  static constexpr int kBuckets = 65;

  void record(uint64_t v) {
    const int b = v == 0 ? 0 : std::bit_width(v);
    counts_[static_cast<size_t>(b)]++;
    count_++;
    sum_ += v;
    if (v > max_) max_ = v;
  }

  void merge(const Histogram& o) {
    for (size_t i = 0; i < kBuckets; i++) counts_[i] += o.counts_[i];
    count_ += o.count_;
    sum_ += o.sum_;
    if (o.max_ > max_) max_ = o.max_;
  }

  void reset() { *this = Histogram{}; }

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t max() const { return max_; }
  double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  uint64_t bucket_count(int i) const { return counts_[static_cast<size_t>(i)]; }

  /// Inclusive upper bound of bucket `i` (0 for bucket 0).
  static uint64_t bucket_hi(int i) {
    if (i == 0) return 0;
    if (i >= 64) return ~uint64_t{0};
    return (uint64_t{1} << i) - 1;
  }

  /// Lower bound of bucket `i`.
  static uint64_t bucket_lo(int i) {
    return i == 0 ? 0 : uint64_t{1} << (i - 1);
  }

  /// Value at percentile `p` in [0,100]: upper bound of the bucket holding
  /// the p-th sample, clamped to the observed max. 0 when empty.
  uint64_t percentile(double p) const;

  uint64_t p50() const { return percentile(50); }
  uint64_t p90() const { return percentile(90); }
  uint64_t p99() const { return percentile(99); }

 private:
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

/// Transaction phases with per-phase latency histograms. Phases are not
/// disjoint: kFlushDrain covers a commit path's whole clwb+fence batch and
/// so contains the kFenceWait / kWpqStall it triggers; kCommit records only
/// *successful* commit calls (aborted attempts surface in kAbortBackoff and
/// in the abort-cause counters instead).
enum class Phase : uint8_t {
  kBegin = 0,     // Tx::begin bookkeeping
  kRead,          // one transactional word read
  kWrite,         // one transactional word write (eager: includes undo persist)
  kLogAppend,     // one redo/undo log record append
  kValidate,      // read-set validation at commit (incl. failing runs)
  kFlushDrain,    // clwb batch + fence blocks on the commit/persist paths
  kFenceWait,     // sfence wait for this worker's WPQ entries to drain
  kWpqStall,      // stall on a full WPQ (clwb) or saturated write channel
  kCommit,        // whole successful commit() call
  kAbortBackoff,  // rollback + randomized exponential backoff after abort
  kEpochWait,     // epoch commit: queued member waiting for its epoch to close
  kEpochDrain,    // epoch commit: leader draining the epoch queue
};
inline constexpr size_t kNumPhases = 12;

const char* phase_name(Phase p);

struct PhaseHists {
  std::array<Histogram, kNumPhases> h;

  void record(Phase p, uint64_t ns) { h[static_cast<size_t>(p)].record(ns); }
  void merge(const PhaseHists& o) {
    for (size_t i = 0; i < kNumPhases; i++) h[i].merge(o.h[i]);
  }
  const Histogram& operator[](Phase p) const { return h[static_cast<size_t>(p)]; }
  Histogram& operator[](Phase p) { return h[static_cast<size_t>(p)]; }
};

/// Scoped phase timer: samples the context clock on construction and
/// records the elapsed simulated ns on destruction (including unwinding —
/// a read that ends in an abort still contributes its partial latency).
/// Arms only when telemetry is enabled, so the disabled cost is one
/// relaxed load.
class PhaseTimer {
 public:
  PhaseTimer(const sim::ExecContext& ctx, PhaseHists* ph, Phase p)
      : ph_(telemetry_enabled() ? ph : nullptr),
        ctx_(&ctx),
        p_(p),
        t0_(ph_ ? ctx.now_ns() : 0) {}

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  ~PhaseTimer() {
    if (ph_) ph_->record(p_, ctx_->now_ns() - t0_);
  }

  /// Drop without recording.
  void cancel() { ph_ = nullptr; }

 private:
  PhaseHists* ph_;
  const sim::ExecContext* ctx_;
  Phase p_;
  uint64_t t0_;
};

}  // namespace stats
