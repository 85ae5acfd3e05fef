// What psan and rsan share: ADR persist tracking per worker, the capped
// diagnostic store with its summary, and the verdict that makes a
// correctness diagnostic fail the crash trial or the pool that produced
// it (docs/ANALYSIS.md, "The verdict"). Each sanitizer feeds its own
// tracker and numbers its own events.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "nvm/domain.h"
#include "util/worker_slots.h"

namespace analysis {

/// Per worker: the lines it stored that are not yet durable, each with
/// the event of its newest such store, and its clwbs awaiting a fence.
class PersistTracker {
 public:
  explicit PersistTracker(int max_workers) : w_(max_workers) {}

  void store(int worker, uint64_t line, uint64_t event) {
    w_.of(worker).unpersisted[line] = event;  // newest wins; older ones need the same persist
  }
  void clwb(int worker, uint64_t line, uint64_t event) {
    w_.of(worker).pending.emplace_back(line, event);
  }

  /// Retire `worker`'s pending clwbs from EVERY worker's map, as the ADR
  /// rule does: an epoch leader's fence durably retires the members'
  /// stores it flushed. `retired(line, capture_event)` sees each clwb.
  /// False when nothing was pending.
  template <typename F>
  bool sfence(int worker, F&& retired) {
    auto& pending = w_.of(worker).pending;
    if (pending.empty()) return false;
    for (const auto& [line, cap_event] : pending) {
      for (Lines& o : w_) {
        auto it = o.unpersisted.find(line);
        if (it != o.unpersisted.end() && it->second <= cap_event) o.unpersisted.erase(it);
      }
      retired(line, cap_event);
    }
    pending.clear();
    return true;
  }

  /// The event of `worker`'s newest store to `line` not yet durable, or 0.
  uint64_t unpersisted(int worker, uint64_t line) const { return find(w_.of(worker), line); }
  /// The same over every worker.
  uint64_t newest_store(uint64_t line) const {
    uint64_t newest = 0;
    for (const Lines& o : w_) newest = std::max(newest, find(o, line));
    return newest;
  }
  /// Slot `s`'s whole map (slots() of them), for a power failure.
  const std::unordered_map<uint64_t, uint64_t>& unpersisted_at(size_t s) const {
    return w_[s].unpersisted;
  }
  size_t slots() const { return w_.size(); }

  /// Power failure or checkpoint: nothing is outstanding any more.
  void clear() {
    for (Lines& l : w_) {
      l.unpersisted.clear();
      l.pending.clear();
    }
  }

 private:
  struct Lines {
    std::unordered_map<uint64_t, uint64_t> unpersisted;  // line -> newest store event
    std::vector<std::pair<uint64_t, uint64_t>> pending;  // clwb'd: (line, capture event)
  };
  static uint64_t find(const Lines& l, uint64_t line) {
    const auto it = l.unpersisted.find(line);
    return it == l.unpersisted.end() ? 0 : it->second;
  }
  util::WorkerSlots<Lines> w_;
};

/// A sanitizer's shared half: its lock, event stream, persist tracker,
/// summary and stored diagnostics. Summary counts are exact; past
/// kMaxStoredDiags a diagnostic is counted in `diags_dropped` instead of
/// stored. `Diag` provides correctness() and describe(); `Summary`
/// provides correctness(), the total that fails a trial or a pool.
template <typename Diag, typename Summary>
class SanitizerCore {
 public:
  static constexpr size_t kMaxStoredDiags = 1024;

  SanitizerCore(const SanitizerCore&) = delete;
  SanitizerCore& operator=(const SanitizerCore&) = delete;

  Summary summary() const {
    std::lock_guard<std::mutex> g(mu_);
    Summary s = sum_;
    s.events = event_;
    return s;
  }

  /// Return all stored diagnostics and reset both the store and the
  /// summary counters — seeded-bug tests consume their expected
  /// diagnostics so the verdict only sees what leaked.
  std::vector<Diag> drain() {
    std::lock_guard<std::mutex> g(mu_);
    return drain_locked();
  }

  /// Empty when no correctness diagnostic was counted since the last
  /// drain. Otherwise drains, and names the sanitizer and the first stored
  /// correctness diagnostic: "psan: missing_flush worker=0 ... (+2 more)".
  std::string verdict() {
    std::lock_guard<std::mutex> g(mu_);
    const uint64_t n = sum_.correctness();
    if (n == 0) return "";
    const std::vector<Diag> ds = drain_locked();
    auto d = ds.begin();
    while (d != ds.end() && !d->correctness()) d++;
    return std::string(name_) + ": " +
           (d != ds.end() ? d->describe() : "correctness diagnostic past the storage cap") +
           (n > 1 ? " (+" + std::to_string(n - 1) + " more)" : "");
  }

 protected:
  SanitizerCore(const char* name, const nvm::SystemConfig& cfg, uint64_t num_lines,
                int max_workers)
      : name_(name),
        tracks_(cfg.needs_flushes()),
        num_lines_(num_lines),
        persist_(max_workers) {
    sum_.enabled = true;
  }

  /// Pool teardown: an undrained correctness diagnostic is printed, and
  /// the process aborts.
  ~SanitizerCore() {
    const std::string v = verdict();
    if (v.empty()) return;
    std::fprintf(stderr, "%s\n%s: undrained correctness diagnostic at pool teardown\n",
                 v.c_str(), name_);
    std::abort();
  }

  /// Store `d`, whose kind the caller already counted; mu_ is held.
  /// Past the cap it is only counted in diags_dropped.
  void keep(const Diag& d) {
    if (diags_.size() >= kMaxStoredDiags) {
      sum_.diags_dropped++;
      return;
    }
    diags_.push_back(d);
  }

  const char* const name_;  // "psan" / "rsan"
  const bool tracks_;       // domain issues real flushes (ADR)
  const uint64_t num_lines_;
  mutable std::mutex mu_;
  uint64_t event_ = 0;
  PersistTracker persist_;
  Summary sum_;

 private:
  std::vector<Diag> drain_locked() {
    std::vector<Diag> out;
    out.swap(diags_);
    sum_ = Summary{};
    sum_.enabled = true;
    return out;
  }

  std::vector<Diag> diags_;
};

}  // namespace analysis
