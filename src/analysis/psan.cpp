#include "analysis/psan.h"

#include <algorithm>
#include <cstdio>

namespace analysis {

const char* diag_kind_name(DiagKind k) {
  switch (k) {
    case DiagKind::kMissingFlush: return "missing_flush";
    case DiagKind::kMisorderedPersist: return "misordered_persist";
    case DiagKind::kRedundantFlush: return "redundant_flush";
    case DiagKind::kRedundantFence: return "redundant_fence";
    case DiagKind::kUnflushedAtCrash: return "unflushed_at_crash";
  }
  return "?";
}

std::string Diag::describe() const {
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "%s worker=%d tx=%llu line=%llu store_event=%llu at_event=%llu: %s [%s]",
                diag_kind_name(kind), worker, static_cast<unsigned long long>(tx_id),
                static_cast<unsigned long long>(line),
                static_cast<unsigned long long>(store_event),
                static_cast<unsigned long long>(at_event), what, state);
  return buf;
}

Psan::Psan(const nvm::SystemConfig& cfg, uint64_t num_lines, int max_workers)
    : SanitizerCore("psan", cfg, num_lines, max_workers), w_(max_workers) {}

void Psan::emit(DiagKind kind, int worker, uint64_t line, uint64_t store_event,
                uint64_t flush_event, const char* what, const char* state) {
  const WorkerState& ws = w_.of(worker);
  switch (kind) {
    case DiagKind::kMissingFlush: sum_.missing_flush++; break;
    case DiagKind::kMisorderedPersist: sum_.misordered_persist++; break;
    case DiagKind::kRedundantFlush:
      sum_.redundant_flush++;
      sum_.redundant_flush_by_phase[static_cast<size_t>(ws.phase)]++;
      break;
    case DiagKind::kRedundantFence:
      sum_.redundant_fence++;
      sum_.redundant_fence_by_phase[static_cast<size_t>(ws.phase)]++;
      break;
    case DiagKind::kUnflushedAtCrash: sum_.unflushed_at_crash++; break;
  }
  Diag d;
  d.kind = kind;
  d.worker = worker;
  d.tx_id = ws.in_tx ? ws.tx_id : 0;
  d.phase = ws.phase;
  d.line = line;
  d.store_event = store_event;
  d.flush_event = flush_event;
  d.at_event = event_;
  d.what = what;
  d.state = state;
  keep(d);
}

void Psan::on_store(int worker, uint64_t first_line, uint64_t last_line) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;  // eADR/PDRAM: stores are durable on their own
  for (uint64_t l = first_line; l <= last_line && l < num_lines_; l++) {
    persist_.store(worker, l, event_);
  }
}

void Psan::on_clwb(int worker, uint64_t line) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;

  // Redundant iff the line carries no store (from any worker) newer than
  // its latest capture: flushing clean data, or re-flushing an
  // already-captured line before anyone stored to it again.
  const uint64_t newest_store = persist_.newest_store(line);
  const auto cap = captured_.find(line);
  const uint64_t captured_at = cap == captured_.end() ? 0 : cap->second;
  if (newest_store == 0 || captured_at >= newest_store) {
    emit(DiagKind::kRedundantFlush, worker, line, newest_store, captured_at,
         "clwb contributes no new durability",
         newest_store == 0 ? "no unpersisted store on line"
                           : "line already flushed; no store since");
  }

  captured_[line] = event_;
  persist_.clwb(worker, line, event_);
}

void Psan::on_sfence(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;
  const bool retired = persist_.sfence(worker, [&](uint64_t line, uint64_t cap_event) {
    auto c = captured_.find(line);
    if (c != captured_.end() && c->second <= cap_event) captured_.erase(c);
  });
  if (!retired) {
    emit(DiagKind::kRedundantFence, worker, 0, 0, 0,
         "sfence with no clwb outstanding since the previous fence",
         "nothing pending");
  }
}

void Psan::on_power_failure() {
  std::lock_guard<std::mutex> g(mu_);
  crash_unflushed_.clear();
  for (size_t wi = 0; wi < persist_.slots(); wi++) {
    for (const auto& [line, store_event] : persist_.unpersisted_at(wi)) {
      const auto cap = captured_.find(line);
      if (cap != captured_.end() && cap->second >= store_event) {
        // Flushed but its fence never executed: the crash image decides
        // line-by-line whether this made it (torn-by-schedule).
        sum_.torn_at_crash++;
      } else {
        emit(DiagKind::kUnflushedAtCrash, static_cast<int>(wi), line,
             store_event, 0, "power failure", "dirty (never flushed)");
        crash_unflushed_.push_back(line);
      }
    }
  }
  persist_.clear();
  captured_.clear();
  std::sort(crash_unflushed_.begin(), crash_unflushed_.end());
  crash_unflushed_.erase(
      std::unique(crash_unflushed_.begin(), crash_unflushed_.end()),
      crash_unflushed_.end());
}

void Psan::on_checkpoint() {
  std::lock_guard<std::mutex> g(mu_);
  persist_.clear();
  captured_.clear();
}

void Psan::on_tx_begin(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  WorkerState& ws = w_.of(worker);
  if (!ws.in_tx) ws.tx_id++;  // each attempt gets its own ordinal
  ws.in_tx = true;
}

void Psan::on_tx_end(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  WorkerState& ws = w_.of(worker);
  ws.in_tx = false;
  ws.phase = stats::Phase::kBegin;
}

void Psan::set_phase(int worker, stats::Phase p) {
  std::lock_guard<std::mutex> g(mu_);
  w_.of(worker).phase = p;
}

stats::Phase Psan::phase(int worker) const {
  std::lock_guard<std::mutex> g(mu_);
  return w_.of(worker).phase;
}

void Psan::check_persisted(int worker, uint64_t first_line, uint64_t last_line,
                           DiagKind kind, const char* what) {
  std::lock_guard<std::mutex> g(mu_);
  if (!tracks_) {
    sum_.checks += last_line - first_line + 1;
    return;  // trivially persisted in eADR/PDRAM domains
  }
  for (uint64_t l = first_line; l <= last_line; l++) {
    sum_.checks++;
    const uint64_t store_event = persist_.unpersisted(worker, l);
    if (store_event == 0) continue;
    const auto cap = captured_.find(l);
    const bool flushed = cap != captured_.end() && cap->second >= store_event;
    emit(kind, worker, l, store_event, flushed ? cap->second : 0, what,
         flushed ? "flushed but not fenced" : "dirty (never flushed)");
  }
}

std::vector<uint64_t> Psan::crash_unflushed_lines() const {
  std::lock_guard<std::mutex> g(mu_);
  return crash_unflushed_;
}

}  // namespace analysis
