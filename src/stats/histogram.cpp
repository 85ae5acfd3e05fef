#include "stats/histogram.h"

namespace stats {

uint64_t Histogram::percentile(double p) const {
  if (count_ == 0) return 0;
  if (p < 0) p = 0;
  if (p > 100) p = 100;
  // Rank of the percentile sample, 1-based, rounded up (nearest-rank).
  uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count_) + 0.999999);
  if (target == 0) target = 1;
  if (target > count_) target = count_;
  uint64_t cum = 0;
  for (int i = 0; i < kBuckets; i++) {
    cum += counts_[static_cast<size_t>(i)];
    if (cum >= target) {
      const uint64_t hi = bucket_hi(i);
      return hi < max_ ? hi : max_;
    }
  }
  return max_;
}

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kBegin: return "begin";
    case Phase::kRead: return "read";
    case Phase::kWrite: return "write";
    case Phase::kLogAppend: return "log_append";
    case Phase::kValidate: return "validate";
    case Phase::kFlushDrain: return "flush_drain";
    case Phase::kFenceWait: return "fence_wait";
    case Phase::kWpqStall: return "wpq_stall";
    case Phase::kCommit: return "commit";
    case Phase::kAbortBackoff: return "abort_backoff";
    case Phase::kEpochWait: return "epoch_wait";
    case Phase::kEpochDrain: return "epoch_drain";
  }
  return "?";
}

}  // namespace stats
