#include "analysis/rsan.h"

#include <algorithm>
#include <cstdio>

namespace analysis {

const char* rsan_kind_name(RsanKind k) {
  switch (k) {
    case RsanKind::kWriteWriteRace: return "write_write_race";
    case RsanKind::kReadWriteRace: return "read_write_race";
    case RsanKind::kOrecCoverage: return "orec_coverage";
    case RsanKind::kEarlyRelease: return "early_release";
  }
  return "?";
}

std::string RsanDiag::describe() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf), "%s worker=%d other=%d addr=0x%llx line=%llu event=%llu: %s",
                rsan_kind_name(kind), worker, other, static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(line), static_cast<unsigned long long>(event),
                what);
  return buf;
}

Rsan::Rsan(const nvm::SystemConfig& cfg, uint64_t num_lines, int max_workers)
    : SanitizerCore("rsan", cfg, num_lines, max_workers), w_(max_workers) {
  for (size_t s = 0; s < w_.size(); s++) {
    w_[s].vc.assign(w_.size(), 0);
    // A worker's own component starts at 1 so a store by a worker nobody
    // has synchronized with is strictly newer than everyone's zero view.
    w_[s].vc[s] = 1;
  }
}

void Rsan::emit(RsanKind kind, int worker, int other, uint64_t addr,
                uint64_t line, const char* what) {
  if (crash_frozen_) return;  // post-crash unwinding: recovery owns the pool
  switch (kind) {
    case RsanKind::kWriteWriteRace: sum_.write_write_race++; break;
    case RsanKind::kReadWriteRace: sum_.read_write_race++; break;
    case RsanKind::kOrecCoverage: sum_.orec_coverage++; break;
    case RsanKind::kEarlyRelease: sum_.early_release++; break;
  }
  RsanDiag d;
  d.kind = kind;
  d.worker = worker;
  d.other = other;
  d.addr = addr;
  d.line = line;
  d.event = event_;
  d.what = what;
  keep(d);
}

void Rsan::join_from_sync(WorkerState& ws, uintptr_t key) {
  auto it = sync_.find(key);
  if (it == sync_.end()) return;
  const VC& o = it->second;
  for (size_t i = 0; i < ws.vc.size(); i++) {
    ws.vc[i] = std::max(ws.vc[i], o[i]);
  }
}

void Rsan::release_to_sync(WorkerState& ws, size_t s, uintptr_t key) {
  VC& o = sync_[key];
  if (o.empty()) o.assign(w_.size(), 0);
  // Join (not copy): several parties may publish through the same object
  // (a releaser that never acquired, e.g. the allocator reclaim hook)
  // and losing a prior releaser's history would fabricate races.
  for (size_t i = 0; i < o.size(); i++) {
    o[i] = std::max(o[i], ws.vc[i]);
  }
  ws.vc[s]++;
}

void Rsan::adjust_read_depth(int worker, int d) {
  std::lock_guard<std::mutex> g(mu_);
  w_.of(worker).read_depth += d;
}

void Rsan::adjust_uncovered_depth(int worker, int d) {
  std::lock_guard<std::mutex> g(mu_);
  w_.of(worker).uncovered_depth += d;
}

void Rsan::set_orec_resolver(OrecResolver r) {
  std::lock_guard<std::mutex> g(mu_);
  resolver_ = std::move(r);
}

void Rsan::on_load(int worker, uint64_t addr, size_t n, uint64_t first_line,
                   bool log_space) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  const size_t s = w_.slot(worker);
  WorkerState& ws = w_[s];
  if (!ws.in_tx) return;  // out-of-transaction accesses are invisible
  sum_.loads++;
  if (log_space) return;          // slot-log protocol: psan/CRC territory
  if (ws.read_depth > 0) return;  // orec-mediated: invisible reader
  if (ws.uncovered_depth == 0 && resolver_) {
    const void* orec = resolver_(reinterpret_cast<const void*>(addr));
    const auto key = reinterpret_cast<uintptr_t>(orec);
    if (orec != nullptr && ws.owned.count(key) == 0 &&
        ws.validated.count(key) == 0) {
      emit(RsanKind::kOrecCoverage, worker, -1, addr, first_line,
           "transactional load of a data word under no owned or validated orec");
    }
  }
  const uint64_t first_word = addr >> 3;
  const uint64_t last_word = (addr + (n ? n - 1 : 0)) >> 3;
  for (uint64_t wk = first_word; wk <= last_word; wk++) {
    if (atomic_words_.count(wk) != 0) continue;  // sync variable, not data
    auto lw = last_write_.find(wk);
    if (lw != last_write_.end() && lw->second.slot != s &&
        lw->second.clk > ws.vc[lw->second.slot]) {
      emit(RsanKind::kReadWriteRace, worker,
           static_cast<int>(lw->second.slot), wk << 3,
           first_line + ((wk >> 3) - (first_word >> 3)),
           "raw transactional load races a prior store with no happens-before path");
    }
    auto& entries = reads_[wk];
    bool found = false;
    for (ReadEntry& e : entries) {
      if (e.slot == s) {
        e.clk = ws.vc[s];
        e.event = event_;
        found = true;
        break;
      }
    }
    if (!found) {
      entries.push_back(ReadEntry{static_cast<uint32_t>(s), ws.vc[s], event_});
    }
  }
}

void Rsan::on_store(int worker, uint64_t addr, size_t n, uint64_t first_line,
                    uint64_t last_line, bool log_space) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  const size_t s = w_.slot(worker);
  WorkerState& ws = w_[s];
  if (!ws.in_tx) return;  // out-of-transaction accesses are invisible
  sum_.stores++;
  if (log_space) return;  // slot-log protocol: psan/CRC territory

  // Coverage + per-orec attribution (for the early-release lint). The
  // orec hash is per 8-byte word; one diagnostic per store is enough.
  if (resolver_) {
    const void* orec = resolver_(reinterpret_cast<const void*>(addr));
    const auto key = reinterpret_cast<uintptr_t>(orec);
    const bool covered = orec != nullptr && ws.owned.count(key) != 0;
    if (!covered && ws.uncovered_depth == 0) {
      emit(RsanKind::kOrecCoverage, worker, -1, addr, first_line,
           "transactional store to a data word under no owned orec");
    }
    if (covered && tracks_) {
      auto& lines = ws.orec_lines[key];
      for (uint64_t l = first_line; l <= last_line && l < num_lines_; l++) {
        if (std::find(lines.begin(), lines.end(), l) == lines.end()) {
          lines.push_back(l);
        }
      }
    }
  }
  if (tracks_) {
    for (uint64_t l = first_line; l <= last_line && l < num_lines_; l++) {
      persist_.store(worker, l, event_);
    }
  }

  const uint64_t first_word = addr >> 3;
  const uint64_t last_word = (addr + (n ? n - 1 : 0)) >> 3;
  for (uint64_t wk = first_word; wk <= last_word; wk++) {
    if (atomic_words_.count(wk) != 0) continue;  // sync variable, not data
    const uint64_t diag_line = first_line + ((wk >> 3) - (first_word >> 3));
    auto lw = last_write_.find(wk);
    if (lw != last_write_.end() && lw->second.slot != s &&
        lw->second.clk > ws.vc[lw->second.slot]) {
      emit(RsanKind::kWriteWriteRace, worker,
           static_cast<int>(lw->second.slot), wk << 3, diag_line,
           "transactional store races a prior store with no happens-before path");
    }
    auto re = reads_.find(wk);
    if (re != reads_.end()) {
      for (const ReadEntry& e : re->second) {
        if (e.slot != s && e.clk > ws.vc[e.slot]) {
          emit(RsanKind::kReadWriteRace, worker, static_cast<int>(e.slot),
               wk << 3, diag_line,
               "transactional store races a prior raw load with no happens-before path");
        }
      }
      reads_.erase(re);  // superseded: this store is now the word's epoch
    }
    last_write_[wk] = WriteEpoch{static_cast<uint32_t>(s), ws.vc[s], event_};
  }
}

void Rsan::on_clwb(int worker, uint64_t line) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;
  persist_.clwb(worker, line, event_);
}

void Rsan::on_sfence(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  if (!tracks_) return;
  persist_.sfence(worker, [](uint64_t, uint64_t) {});
}

void Rsan::on_crash_freeze() {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  crash_frozen_ = true;
}

void Rsan::on_power_failure() {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  crash_frozen_ = false;  // the machine rebooted; observation resumes
  // All volatile order is void: clocks, epochs, reads, in-flight
  // tracking, coverage. Recovery re-seeds ordering via on_global_sync.
  last_write_.clear();
  reads_.clear();
  sync_.clear();
  for (size_t s = 0; s < w_.size(); s++) {
    WorkerState& ws = w_[s];
    ws.vc.assign(w_.size(), 0);
    ws.vc[s] = 1;
    ws.in_tx = false;
    ws.read_depth = 0;
    ws.uncovered_depth = 0;
    ws.owned.clear();
    ws.validated.clear();
    ws.orec_lines.clear();
  }
  persist_.clear();
}

void Rsan::on_checkpoint() {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  persist_.clear();
}

void Rsan::on_tx_begin(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  WorkerState& ws = w_.of(worker);
  ws.in_tx = true;
  ws.owned.clear();
  ws.validated.clear();
  ws.orec_lines.clear();
}

void Rsan::on_tx_end(int worker) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  WorkerState& ws = w_.of(worker);
  ws.in_tx = false;
  ws.read_depth = 0;
  ws.uncovered_depth = 0;
  ws.owned.clear();
  ws.validated.clear();
  ws.orec_lines.clear();
}

void Rsan::on_orec_acquire(int worker, const void* orec) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  sum_.acquires++;
  const size_t s = w_.slot(worker);
  WorkerState& ws = w_[s];
  join_from_sync(ws, reinterpret_cast<uintptr_t>(orec));
  ws.owned.insert(reinterpret_cast<uintptr_t>(orec));
}

void Rsan::on_orec_release(int worker, const void* orec) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  sum_.releases++;
  const size_t s = w_.slot(worker);
  WorkerState& ws = w_[s];
  const auto key = reinterpret_cast<uintptr_t>(orec);
  if (tracks_) {
    auto it = ws.orec_lines.find(key);
    if (it != ws.orec_lines.end()) {
      for (uint64_t line : it->second) {
        if (persist_.unpersisted(worker, line) != 0) {
          emit(RsanKind::kEarlyRelease, worker, -1, 0, line,
               "orec released while a line stored under it still has in-flight stores");
        }
      }
      ws.orec_lines.erase(it);
    }
  }
  release_to_sync(ws, s, key);
  ws.owned.erase(key);
  ws.validated.erase(key);
}

void Rsan::on_validated_read(int worker, const void* orec) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  sum_.validated_reads++;
  const size_t s = w_.slot(worker);
  WorkerState& ws = w_[s];
  join_from_sync(ws, reinterpret_cast<uintptr_t>(orec));
  ws.validated.insert(reinterpret_cast<uintptr_t>(orec));
}

void Rsan::on_atomic_rmw(int worker, const void* addr) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  const size_t s = w_.slot(worker);
  WorkerState& ws = w_[s];
  const auto key = reinterpret_cast<uintptr_t>(addr);
  atomic_words_.insert(static_cast<uint64_t>(key) >> 3);
  join_from_sync(ws, key);
  release_to_sync(ws, s, key);
}

void Rsan::on_publish(int worker, const void* obj) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  const size_t s = w_.slot(worker);
  release_to_sync(w_[s], s, reinterpret_cast<uintptr_t>(obj));
}

void Rsan::on_join(int worker, const void* obj) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  join_from_sync(w_.of(worker), reinterpret_cast<uintptr_t>(obj));
}

void Rsan::on_inherit(int to_worker, int from_worker) {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  sum_.inherits++;
  const size_t to = w_.slot(to_worker);
  const size_t from = w_.slot(from_worker);
  if (to == from) return;
  WorkerState& wt = w_[to];
  WorkerState& wf = w_[from];
  for (size_t i = 0; i < wt.vc.size(); i++) {
    wt.vc[i] = std::max(wt.vc[i], wf.vc[i]);
  }
  // The inheritor replays the victim's transaction on its behalf: it
  // needs the victim's coverage (owned orecs) and store attribution so
  // roll-forward/-back stores and the final orec releases check out.
  wt.owned.insert(wf.owned.begin(), wf.owned.end());
  wt.validated.insert(wf.validated.begin(), wf.validated.end());
  for (const auto& [orec, lines] : wf.orec_lines) {
    auto& dst = wt.orec_lines[orec];
    for (uint64_t l : lines) {
      if (std::find(dst.begin(), dst.end(), l) == dst.end()) dst.push_back(l);
    }
  }
}

void Rsan::on_global_sync() {
  std::lock_guard<std::mutex> g(mu_);
  event_++;
  VC all(w_.size(), 0);
  for (const WorkerState& ws : w_) {
    for (size_t i = 0; i < all.size(); i++) {
      all[i] = std::max(all[i], ws.vc[i]);
    }
  }
  for (WorkerState& ws : w_) ws.vc = all;
}

}  // namespace analysis
