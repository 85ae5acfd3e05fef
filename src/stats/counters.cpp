#include "stats/counters.h"

#include <algorithm>
#include <limits>

namespace stats {

const char* abort_cause_name(AbortCause c) {
  switch (c) {
    case AbortCause::kConflictRead: return "read_conflict";
    case AbortCause::kConflictWrite: return "write_conflict";
    case AbortCause::kValidation: return "validation";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kCapacity: return "capacity";
  }
  return "?";
}

void TxCounters::add(const TxCounters& o) {
  commits += o.commits;
  aborts += o.aborts;
  for (size_t i = 0; i < kNumAbortCauses; i++) aborts_by_cause[i] += o.aborts_by_cause[i];
  reads += o.reads;
  writes += o.writes;
  clwbs += o.clwbs;
  sfences += o.sfences;
  log_bytes += o.log_bytes;
  log_lines_hwm = std::max(log_lines_hwm, o.log_lines_hwm);
  log_growths += o.log_growths;
  pmem_loads += o.pmem_loads;
  pmem_stores += o.pmem_stores;
  dram_cache_hits += o.dram_cache_hits;
  dram_cache_misses += o.dram_cache_misses;
  l3_hits += o.l3_hits;
  l3_misses += o.l3_misses;
  wpq_stall_ns += o.wpq_stall_ns;
  fence_wait_ns += o.fence_wait_ns;
  energy_pj += o.energy_pj;
  phases.merge(o.phases);
}

double TxCounters::commit_abort_ratio() const {
  if (aborts == 0) return std::numeric_limits<double>::infinity();
  return static_cast<double>(commits) / static_cast<double>(aborts);
}

TxCounters aggregate(const std::vector<TxCounters>& per_thread) {
  TxCounters total;
  for (const auto& c : per_thread) total.add(c);
  return total;
}

}  // namespace stats
