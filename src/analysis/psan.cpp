#include "analysis/psan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "stats/report.h"

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

Psan::Psan(const nvm::SystemConfig& cfg, uint64_t num_lines, int max_workers)
    : tracks_(cfg.needs_flushes()), num_lines_(num_lines) {
  // +1: Memory passes worker -1 (setup / recovery outside an ExecContext)
  // which maps onto the last state slot.
  w_.resize(static_cast<size_t>(max_workers) + 1);
  sum_.enabled = true;
}

Psan::~Psan() {
  const stats::PsanSummary s = summary();
  // Undrained correctness findings are loud even without the JSONL sink:
  // a unit test that trips an ordering bug fails the psan gate's run even
  // if its own assertions never look at psan.
  if (s.correctness() > 0) {
    std::fprintf(stderr,
                 "psan: %llu ordering violation(s) at pool teardown "
                 "(missing_flush=%llu misordered_persist=%llu)\n",
                 static_cast<unsigned long long>(s.correctness()),
                 static_cast<unsigned long long>(s.missing_flush),
                 static_cast<unsigned long long>(s.misordered_persist));
    for (const Diag& d : drain()) {
      if (d.kind != DiagKind::kMissingFlush && d.kind != DiagKind::kMisorderedPersist) {
        continue;
      }
      std::fprintf(stderr,
                   "psan:   %s worker=%d tx=%llu line=%llu store_event=%llu "
                   "at_event=%llu: %s [%s]\n",
                   diag_kind_name(d.kind), d.worker,
                   static_cast<unsigned long long>(d.tx_id),
                   static_cast<unsigned long long>(d.line),
                   static_cast<unsigned long long>(d.store_event),
                   static_cast<unsigned long long>(d.at_event), d.what, d.state);
    }
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-once env probe; nothing in-process calls setenv
  stats::append_jsonl(std::getenv("REPRO_PSAN_OUT"), s);
}

void Psan::emit(DiagKind kind, int worker, uint64_t line, uint64_t store_event,
                uint64_t flush_event, const char* what, const char* state) {
  const WorkerState& ws = w_[slot(worker)];
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
  if (diags_.size() >= kMaxStoredDiags) {
    sum_.diags_dropped++;
    return;
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
  diags_.push_back(d);
}

void Psan::on_store(int worker, uint64_t first_line, uint64_t last_line) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;  // eADR/PDRAM: stores are durable on their own
  auto& up = w_[slot(worker)].unpersisted;
  for (uint64_t l = first_line; l <= last_line && l < num_lines_; l++) {
    up[l] = event_;  // newest store wins; older ones need the same persist
  }
}

void Psan::on_clwb(int worker, uint64_t line) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;
  WorkerState& ws = w_[slot(worker)];

  // Redundant iff the line carries no store (from any worker) newer than
  // its latest capture: flushing clean data, or re-flushing an
  // already-captured line before anyone stored to it again.
  uint64_t newest_store = 0;
  for (const auto& o : w_) {
    auto it = o.unpersisted.find(line);
    if (it != o.unpersisted.end()) newest_store = std::max(newest_store, it->second);
  }
  const auto cap = captured_.find(line);
  const uint64_t captured_at = cap == captured_.end() ? 0 : cap->second;
  if (newest_store == 0 || captured_at >= newest_store) {
    emit(DiagKind::kRedundantFlush, worker, line, newest_store, captured_at,
         "clwb contributes no new durability",
         newest_store == 0 ? "no unpersisted store on line"
                           : "line already flushed; no store since");
  }

  captured_[line] = event_;
  ws.pending.emplace_back(line, event_);
}

void Psan::on_sfence(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;
  WorkerState& ws = w_[slot(worker)];
  if (ws.pending.empty()) {
    emit(DiagKind::kRedundantFence, worker, 0, 0, 0,
         "sfence with no clwb outstanding since the previous fence",
         "nothing pending");
    return;
  }
  for (const auto& [line, cap_event] : ws.pending) {
    for (auto& o : w_) {
      auto it = o.unpersisted.find(line);
      if (it != o.unpersisted.end() && it->second <= cap_event) {
        o.unpersisted.erase(it);
      }
    }
    auto c = captured_.find(line);
    if (c != captured_.end() && c->second <= cap_event) captured_.erase(c);
  }
  ws.pending.clear();
}

void Psan::on_power_failure() {
  std::lock_guard<std::mutex> g(mu_);
  crash_unflushed_.clear();
  for (size_t wi = 0; wi < w_.size(); wi++) {
    WorkerState& ws = w_[wi];
    for (const auto& [line, store_event] : ws.unpersisted) {
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
    ws.unpersisted.clear();
    ws.pending.clear();
  }
  captured_.clear();
  std::sort(crash_unflushed_.begin(), crash_unflushed_.end());
  crash_unflushed_.erase(
      std::unique(crash_unflushed_.begin(), crash_unflushed_.end()),
      crash_unflushed_.end());
}

void Psan::on_checkpoint() {
  std::lock_guard<std::mutex> g(mu_);
  for (auto& ws : w_) {
    ws.unpersisted.clear();
    ws.pending.clear();
  }
  captured_.clear();
}

void Psan::on_tx_begin(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  WorkerState& ws = w_[slot(worker)];
  if (!ws.in_tx) ws.tx_id++;  // each attempt gets its own ordinal
  ws.in_tx = true;
}

void Psan::on_tx_end(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  WorkerState& ws = w_[slot(worker)];
  ws.in_tx = false;
  ws.phase = stats::Phase::kBegin;
}

void Psan::set_phase(int worker, stats::Phase p) {
  std::lock_guard<std::mutex> g(mu_);
  w_[slot(worker)].phase = p;
}

stats::Phase Psan::phase(int worker) const {
  std::lock_guard<std::mutex> g(mu_);
  return w_[slot(worker)].phase;
}

void Psan::check_persisted(int worker, uint64_t first_line, uint64_t last_line,
                           DiagKind kind, const char* what) {
  std::lock_guard<std::mutex> g(mu_);
  if (!tracks_) {
    sum_.checks += last_line - first_line + 1;
    return;  // trivially persisted in eADR/PDRAM domains
  }
  const auto& up = w_[slot(worker)].unpersisted;
  for (uint64_t l = first_line; l <= last_line; l++) {
    sum_.checks++;
    auto it = up.find(l);
    if (it == up.end()) continue;
    const auto cap = captured_.find(l);
    const bool flushed = cap != captured_.end() && cap->second >= it->second;
    emit(kind, worker, l, it->second, flushed ? cap->second : 0, what,
         flushed ? "flushed but not fenced" : "dirty (never flushed)");
  }
}

stats::PsanSummary Psan::summary() const {
  std::lock_guard<std::mutex> g(mu_);
  stats::PsanSummary s = sum_;
  s.events = event_;
  return s;
}

std::vector<uint64_t> Psan::crash_unflushed_lines() const {
  std::lock_guard<std::mutex> g(mu_);
  return crash_unflushed_;
}

std::vector<Diag> Psan::drain() {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Diag> out;
  out.swap(diags_);
  sum_ = stats::PsanSummary{};
  sum_.enabled = true;
  return out;
}

}  // namespace analysis
